"""First-class flow table: the GFW's sensor-layer connection state.

Extracted from the :class:`~repro.gfw.firewall.GreatFirewall` monolith so
flow bookkeeping is an independently testable, benchmarkable subsystem.
The table owns

* **flow creation** on border-crossing SYNs, keyed on the canonical
  connection 4-tuple;
* **feature-packet detection** — the first data segment from the
  connection's initiator (the packet the paper's passive classifier
  inspects) and the first responder data (evidence the endpoint serves
  *something*), surfaced through the ``on_first_initiator_data`` /
  ``on_first_responder_data`` callbacks the orchestrator installs;
* **hygiene** — the hard count cap that reclaims the
  least-recently-seen quartile, and the flag-dedup window that stops a
  retransmitted SYN from re-flagging one connection (its stale records
  are pruned by an amortized sweep);
* **per-flow detector scratch state** — :attr:`FlowState.scratch`, a
  lazily allocated dict detector stages may use for stateful
  per-connection features without growing the core flow record.

Counter emissions (``gfw.flow.opened``, ``gfw.flow.evicted``,
``gfw.flow.syn.retransmit``, ``gfw.conn.reflag.suppressed``) keep their
pre-refactor names and firing points, so existing dashboards and cached
result snapshots stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.packet import Flags, Segment

__all__ = ["FlowKey", "FlowState", "FlowTable"]

FlowKey = Tuple[Any, ...]

# Bit masks for the inlined flag tests on the tracking hot path.
_SYN_ACK_MASK = Flags.SYN | Flags.ACK
_FIN_RST_MASK = Flags.FIN | Flags.RST


@dataclass
class FlowState:
    """One tracked border-crossing connection."""

    initiator_ip: str
    initiator_port: int
    responder_ip: str
    responder_port: int
    saw_initiator_data: bool = False
    saw_responder_data: bool = False
    last_seen: float = 0.0
    # Per-flow detector scratch: stages that keep per-connection state
    # (counters, partial reassembly, feature accumulators) store it here.
    # Lazily allocated — stateless stages never pay for the dict.
    scratch: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def scratchpad(self) -> Dict[str, Any]:
        if self.scratch is None:
            self.scratch = {}
        return self.scratch


class FlowTable:
    """Flow creation, eviction, and flag dedup for the censor's sensor."""

    # Amortization period (in tracked segments) for the flag-record sweep.
    EVICTION_SWEEP_INTERVAL = 4096

    def __init__(
        self,
        sim,
        *,
        max_flows: int = 1 << 18,
        flag_dedup_window: float = 60.0,
    ):
        self.sim = sim
        self.flows: Dict[FlowKey, FlowState] = {}
        # Flow-table hygiene: flows that never see FIN/RST (SYN scans,
        # NR probes, half-open connections) must not accumulate forever
        # on multi-week runs.  ``max_flows`` is a hard count cap (the
        # oldest quartile is reclaimed when it is hit).
        self.max_flows = max_flows
        self.flag_dedup_window = flag_dedup_window
        # Replay/retransmission hardening: connection keys whose feature
        # packet was already flagged recently, so a retransmitted SYN
        # recreating the flow entry cannot double-count the flag.
        self._flagged_recently: Dict[FlowKey, float] = {}
        self._track_calls = 0
        self.opened = 0
        self.evicted = 0
        # Sensor events, installed by the orchestrator: the feature
        # packet (first initiator data — what the detector stages see)
        # and the first responder data (the endpoint serves something).
        self.on_first_initiator_data: Callable[[FlowKey, FlowState, Segment], None] = (
            lambda key, flow, seg: None
        )
        self.on_first_responder_data: Callable[[FlowState], None] = lambda flow: None

    def __len__(self) -> int:
        return len(self.flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self.flows

    # ------------------------------------------------------------- tracking

    def track(self, seg: Segment, *, reliable: bool = True) -> None:
        """Fold one border-crossing segment into the table.

        Fires the ``on_first_*`` callbacks at the exact points the
        monolithic firewall used to act, so detector and reaction side
        effects interleave with table mutations identically.
        """
        self.track_keyed(seg, seg.conn_key(), reliable=reliable)

    def track_burst(self, segs: List[Segment], *, reliable: bool = True) -> None:
        """Fold a same-connection burst into the table.

        The connection key is computed once for the whole burst; each
        segment is then tracked individually, so sweep amortization and
        the ``on_first_*`` callback firing points are byte-identical to
        per-segment :meth:`track` calls.
        """
        if not segs:
            return
        key = segs[0].conn_key()
        for seg in segs:
            self.track_keyed(seg, key, reliable=reliable)

    def track_keyed(self, seg: Segment, key: FlowKey, *,
                    reliable: bool = True) -> None:
        """:meth:`track` with the connection key precomputed by the caller
        (burst entry points share one key across a whole burst)."""
        self._track_calls += 1
        if self._track_calls % self.EVICTION_SWEEP_INTERVAL == 0:
            self.sweep(self.sim.now)
        # Flag predicates are inlined as bit tests (rather than the
        # Segment.is_syn/is_data properties): this method runs for every
        # border-crossing segment.
        flags = seg.flags
        flow = self.flows.get(key)
        if flow is None:
            if flags & _SYN_ACK_MASK == Flags.SYN:
                if len(self.flows) >= self.max_flows:
                    self.evict_oldest()
                self.flows[key] = FlowState(
                    initiator_ip=seg.src_ip,
                    initiator_port=seg.src_port,
                    responder_ip=seg.dst_ip,
                    responder_port=seg.dst_port,
                    last_seen=self.sim.now,
                )
                self.opened += 1
                self.sim.bus.incr("gfw.flow.opened")
            return
        flow.last_seen = self.sim.now
        if flags & _SYN_ACK_MASK == Flags.SYN:
            # A SYN on a live flow is not a new connection.  On a lossy
            # network it is a retransmission (counted); on a reliable one
            # it can only be ephemeral-port reuse against a stale entry.
            if not reliable:
                self.sim.bus.incr("gfw.flow.syn.retransmit")
            return
        if seg.payload:
            from_initiator = (
                (seg.src_ip, seg.src_port) == (flow.initiator_ip, flow.initiator_port)
            )
            if from_initiator and not flow.saw_initiator_data:
                flow.saw_initiator_data = True
                self.on_first_initiator_data(key, flow, seg)
            elif not from_initiator and not flow.saw_responder_data:
                flow.saw_responder_data = True
                self.on_first_responder_data(flow)
        if flags & _FIN_RST_MASK:
            # Connection teardown: the feature packet (if any) has been
            # seen by now, so the flow entry can be reclaimed.
            del self.flows[key]

    # ------------------------------------------------------------ flag dedup

    def recently_flagged(self, key: FlowKey, now: float) -> bool:
        """True if this connection key was flagged inside the dedup window."""
        flagged_at = self._flagged_recently.get(key)
        return flagged_at is not None and now - flagged_at <= self.flag_dedup_window

    def note_flagged(self, key: FlowKey, now: float) -> None:
        self._flagged_recently[key] = now

    # -------------------------------------------------------------- hygiene

    def sweep(self, now: float) -> None:
        """Drop flag records older than the dedup window."""
        if self._flagged_recently:
            stale = [k for k, t in self._flagged_recently.items()
                     if now - t > self.flag_dedup_window]
            for k in stale:
                del self._flagged_recently[k]

    def evict_oldest(self) -> None:
        """Hard cap: reclaim the least-recently-seen quartile of the table."""
        victims: List[FlowKey] = sorted(
            self.flows, key=lambda k: self.flows[k].last_seen
        )
        count = max(1, len(victims) // 4)
        for k in victims[:count]:
            del self.flows[k]
        self.evicted += count
        self.sim.bus.incr("gfw.flow.evicted", count)
