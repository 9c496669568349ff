"""The network fabric: delivery, latency, hops, and on-path middleboxes.

Middleboxes (the GFW, brdgrd) sit on the path and may observe, modify,
drop, or replace segments in flight.  Delivery is in-order and lossless
by default; attaching an :class:`~repro.net.impairment.Impairment`
(globally or per address pair) makes the delivery leg lossy, reordering,
duplicating, jittery, or subject to scheduled blackouts.  Per-pair
latency and hop counts are configurable so that arrival TTLs can
reproduce the measured prober fingerprint (TTL 46-50 at the server).

Impairments apply at delivery scheduling, *after* the middlebox chain:
the GFW, being on-path at the border, observes every segment an endpoint
actually transmitted (retransmissions included) while the faults land on
the remaining leg to the destination.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .impairment import Impairment
from .packet import Segment, SegmentBurst

__all__ = ["Network", "Middlebox"]


class Middlebox:
    """Base class for on-path devices.

    ``process`` returns the list of segments to forward (commonly
    ``[seg]``); an empty list drops the segment.  A middlebox may also
    originate traffic by calling :meth:`Network.inject`.
    ``process_datagram`` is the UDP analogue; the default passes
    datagrams through untouched.

    ``process_burst`` is the batched entry: it receives a same-flow
    segment list and returns the segments to forward, in order.  The
    default delegates to ``process`` one segment at a time, so existing
    middleboxes behave identically under the batched datapath;
    middleboxes with per-burst hoistable work (the GFW's border
    predicate, flow lookup) override it.
    """

    def process(self, seg: Segment, network: "Network") -> List[Segment]:
        return [seg]

    def process_burst(self, segs: List[Segment],
                      network: "Network") -> List[Segment]:
        out: List[Segment] = []
        for seg in segs:
            out.extend(self.process(seg, network))
        return out

    def process_datagram(self, dgram, network: "Network") -> list:
        return [dgram]


class Network:
    """Connects hosts and routes segments through middleboxes."""

    DEFAULT_LATENCY = 0.025  # one-way seconds
    DEFAULT_HOPS = 14

    def __init__(self, sim, unreachable_policy: str = "refuse", *,
                 impairment: Optional[Impairment] = None,
                 rng: Optional[random.Random] = None):
        if unreachable_policy not in ("refuse", "drop"):
            raise ValueError(f"bad unreachable_policy {unreachable_policy!r}")
        self.sim = sim
        self._hosts: Dict[str, object] = {}
        self.middleboxes: List[Middlebox] = []
        self._latency: Dict[Tuple[str, str], float] = {}
        self._hops: Dict[Tuple[str, str], int] = {}
        # Fault injection: a network-wide default profile plus per-pair
        # overrides.  Inactive (all-zero) profiles are discarded so the
        # pristine delivery fast path — and the TCP endpoints' choice to
        # skip retransmission machinery — is preserved exactly.
        self._impairment = impairment if impairment and impairment.active else None
        self._pair_impairments: Dict[Tuple[str, str], Impairment] = {}
        # Per-(src, dst) datapath cache: (latency, hops, impairment, host)
        # resolved in one dict probe on the delivery legs.  Purely derived
        # state — every topology mutation (attach, set_latency, set_hops,
        # set_impairment) clears it wholesale.
        self._path_cache: Dict[Tuple[str, str], tuple] = {}
        self.rng = rng or random.Random(0x1A7E7)
        self.segments_delivered = 0
        self.segments_dropped = 0
        # UDP bookkeeping is separate: datagram drops used to be folded
        # into ``segments_dropped``, muddling TCP accounting.
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.impairment_drops = 0
        # "refuse": SYNs to unattached addresses bounce with RST (fast
        # failure, the common case on the real Internet); "drop": silence,
        # leaving the connector hanging in SYN_SENT (the slow-failure path
        # §5.2.1 mentions).
        self.unreachable_policy = unreachable_policy
        # Toy DNS: hostname -> IP.  Unregistered names fail to resolve,
        # which is what happens to the garbage hostnames random probes
        # decrypt to.
        self.dns: Dict[str, str] = {}

    def register_name(self, name: str, ip: str) -> None:
        self.dns[name] = ip

    def resolve(self, name: str) -> Optional[str]:
        return self.dns.get(name)

    # ------------------------------------------------------------- topology

    def attach(self, host) -> None:
        if host.ip in self._hosts:
            raise ValueError(f"IP {host.ip} already attached")
        self._hosts[host.ip] = host
        self._path_cache.clear()

    def register_extra_ip(self, host, ip: str) -> None:
        """Bind an additional address (e.g. one prober IP) to a host."""
        if ip in self._hosts:
            raise ValueError(f"IP {ip} already attached")
        self._hosts[ip] = host
        host.extra_ips.add(ip)
        self._path_cache.clear()

    def add_middlebox(self, mbox: Middlebox) -> None:
        self.middleboxes.append(mbox)

    def remove_middlebox(self, mbox: Middlebox) -> None:
        self.middleboxes.remove(mbox)

    def set_latency(self, src_ip: str, dst_ip: str, seconds: float, symmetric: bool = True) -> None:
        self._latency[(src_ip, dst_ip)] = seconds
        if symmetric:
            self._latency[(dst_ip, src_ip)] = seconds
        self._path_cache.clear()

    def set_hops(self, src_ip: str, dst_ip: str, hops: int, symmetric: bool = True) -> None:
        """Set the hop count; ``dst_ip`` may be "*" for all destinations."""
        self._hops[(src_ip, dst_ip)] = hops
        if symmetric and dst_ip != "*":
            self._hops[(dst_ip, src_ip)] = hops
        self._path_cache.clear()

    def set_impairment(self, src_ip: str, dst_ip: str,
                       impairment: Optional[Impairment],
                       symmetric: bool = True) -> None:
        """Attach a fault profile to one path (``None`` clears it)."""
        keys = [(src_ip, dst_ip)] + ([(dst_ip, src_ip)] if symmetric else [])
        for key in keys:
            if impairment is None or not impairment.active:
                self._pair_impairments.pop(key, None)
            else:
                self._pair_impairments[key] = impairment
        self._path_cache.clear()

    def set_default_impairment(self, impairment: Optional[Impairment]) -> None:
        """Set the network-wide fault profile (``None`` clears it)."""
        self._impairment = (
            impairment if impairment and impairment.active else None
        )
        self._path_cache.clear()

    def impairment_for(self, src_ip: str, dst_ip: str) -> Optional[Impairment]:
        exact = self._pair_impairments.get((src_ip, dst_ip))
        return exact if exact is not None else self._impairment

    @property
    def reliable(self) -> bool:
        """True while no active impairment is attached anywhere.

        TCP endpoints sample this at connection setup: on a reliable
        network they keep the historical no-retransmission machinery
        (and its exact traces); on an unreliable one they arm
        retransmission timers and sequence-checked receive.  Configure
        impairments before opening connections.
        """
        return self._impairment is None and not self._pair_impairments

    def latency(self, src_ip: str, dst_ip: str) -> float:
        return self._latency.get((src_ip, dst_ip), self.DEFAULT_LATENCY)

    def hops(self, src_ip: str, dst_ip: str) -> int:
        exact = self._hops.get((src_ip, dst_ip))
        if exact is not None:
            return exact
        return self._hops.get((src_ip, "*"), self.DEFAULT_HOPS)

    def _path(self, src_ip: str, dst_ip: str) -> tuple:
        """Resolved ``(latency, hops, impairment, host)`` for one pair.

        The datapath's per-delivery lookups collapse into a single dict
        probe once a pair is warm.  Entries for unattached destinations
        are not cached (a host attached later must be seen); every
        topology mutation clears the cache outright.
        """
        key = (src_ip, dst_ip)
        entry = self._path_cache.get(key)
        if entry is None:
            entry = (
                self._latency.get(key, self.DEFAULT_LATENCY),
                self.hops(src_ip, dst_ip),
                self.impairment_for(src_ip, dst_ip),
                self._hosts.get(dst_ip),
            )
            if entry[3] is not None:
                self._path_cache[key] = entry
        return entry

    # -------------------------------------------------------------- routing

    def send_segment(self, seg: Segment) -> None:
        """Route one segment from a host through the middlebox chain."""
        seg.timestamp = self.sim.now
        # Specialized for the overwhelmingly common topologies — no
        # middlebox, or exactly one that neither fans out nor drops —
        # before falling back to the general fan-out walk.  The pristine
        # scheduling leg (``_schedule_delivery``'s common branch) is
        # inlined for both.
        mboxes = self.middleboxes
        if mboxes:
            if len(mboxes) > 1:
                self._through_middleboxes(seg, index=0)
                return
            forwarded = mboxes[0].process(seg, self)
            if len(forwarded) != 1:
                if not forwarded:
                    self.segments_dropped += 1
                else:
                    for s in forwarded:
                        self._schedule_delivery(s)
                return
            seg = forwarded[0]
        delay, _, impairment, _ = self._path(seg.src_ip, seg.dst_ip)
        if impairment is None:
            self.sim.schedule_fire(delay, self._deliver_pristine, seg)
        else:
            self._schedule_impaired(seg, delay, impairment)

    def send_segment_burst(self, burst: SegmentBurst) -> None:
        """Route a same-flow burst through the middlebox chain as one unit.

        The burst traverses every middlebox in emission order and is
        delivered by a single scheduled event, weighted so the
        ``sim.events`` counter counts its segments.  On impaired paths
        each segment gets its own event and fault draws, taken in burst
        (= emission) order: the RNG stream one :meth:`send_segment` call
        per member would consume.
        """
        now = self.sim.now
        for seg in burst.segments:
            seg.timestamp = now
        current = burst.segments
        for mbox in self.middleboxes:
            before = len(current)
            current = mbox.process_burst(current, self)
            if len(current) < before:
                # Exact when no middlebox fans out inside a burst (none
                # of the built-ins do); a fanning-out middlebox should
                # route singles through ``process`` for exact accounting.
                self.segments_dropped += before - len(current)
            if not current:
                return
        if len(current) == 1:
            self._schedule_delivery(current[0])
            return
        first = current[0]
        delay, _, impairment, _ = self._path(first.src_ip, first.dst_ip)
        if impairment is None:
            self.sim.schedule_fire(delay, self._deliver_burst, current,
                                   weight=len(current))
            return
        for seg in current:
            self._schedule_impaired(seg, delay, impairment)

    def inject(self, seg: Segment, skip_middleboxes: bool = False) -> None:
        """Originate a segment from a middlebox (e.g. a GFW prober SYN)."""
        if skip_middleboxes:
            seg.timestamp = self.sim.now
            self._schedule_delivery(seg)
        else:
            # Identical routing to a host transmission (timestamp, full
            # middlebox walk, delivery scheduling), including its
            # single-middlebox specialization — probe traffic is hot
            # enough for the general fan-out walk to show up.
            self.send_segment(seg)

    def _through_middleboxes(self, seg: Segment, index: int) -> None:
        current = [seg]
        for i in range(index, len(self.middleboxes)):
            mbox = self.middleboxes[i]
            next_round: List[Segment] = []
            for s in current:
                forwarded = mbox.process(s, self)
                if forwarded:
                    next_round.extend(forwarded)
                else:
                    # Count every segment a middlebox swallowed — also
                    # under fan-out, where a partially dropped round
                    # previously went uncounted and a fully dropped one
                    # counted as a single loss.
                    self.segments_dropped += 1
            current = next_round
            if not current:
                return
        for s in current:
            self._schedule_delivery(s)

    def _schedule_delivery(self, seg: Segment) -> None:
        delay, _, impairment, _ = self._path(seg.src_ip, seg.dst_ip)
        if impairment is None:
            # Pristine path: exactly one delivery of this object, so the
            # arrival clone can be elided (see ``_deliver_pristine``) and
            # the uncancellable fire-and-forget scheduling lane used.
            self.sim.schedule_fire(delay, self._deliver_pristine, seg)
            return
        self._schedule_impaired(seg, delay, impairment)

    def _schedule_impaired(self, seg: Segment, delay: float,
                           impairment: Impairment) -> None:
        delays = self._impaired_delays(impairment, "net")
        if not delays:
            self.segments_dropped += 1
            self.impairment_drops += 1
        for extra in delays:
            self.sim.schedule(delay + extra, self._deliver, seg)

    def _impaired_delays(self, impairment: Impairment, layer: str) -> List[float]:
        """Extra delivery delays under a fault profile ([] means dropped).

        One entry per copy to deliver; every random draw comes from the
        network's own RNG so impaired runs remain seed-reproducible.
        The caller owns drop-counter attribution (TCP vs UDP); the bus
        counters are emitted here under the caller's ``layer`` prefix.
        """
        bus = self.sim.bus
        if impairment.is_down(self.sim.now):
            bus.incr(f"{layer}.flap.drop")
            return []
        if impairment.loss and self.rng.random() < impairment.loss:
            bus.incr(f"{layer}.loss")
            return []
        extra = 0.0
        if impairment.jitter:
            extra += self.rng.uniform(0.0, impairment.jitter)
        if impairment.reorder and self.rng.random() < impairment.reorder:
            extra += impairment.reorder_skew
            bus.incr(f"{layer}.reorder")
        delays = [extra]
        if impairment.duplicate and self.rng.random() < impairment.duplicate:
            delays.append(extra + impairment.duplicate_gap)
            bus.incr(f"{layer}.duplicate")
        return delays

    def _deliver(self, seg: Segment) -> None:
        _, hops, _, host = self._path(seg.src_ip, seg.dst_ip)
        if host is None:
            self.segments_dropped += 1
            if self.unreachable_policy == "refuse" and not seg.flags & 0x04:  # not RST
                self._refuse_unreachable(seg)
            return
        ttl = seg.ttl - hops
        if ttl <= 0:
            # Hop count exhausted the TTL: real routers discard such
            # packets, so fail loudly instead of delivering an impossible
            # arrival TTL.
            self.segments_dropped += 1
            self.sim.bus.incr("net.ttl.expired")
            return
        self.segments_delivered += 1
        host.deliver(seg.arrived(ttl, self.sim.now))

    def _deliver_pristine(self, seg: Segment) -> None:
        """:meth:`_deliver` for unimpaired paths: arrival without a clone.

        On a pristine path a segment object is scheduled for delivery
        exactly once (no duplicate copies, no retransmission reuse — TCP
        rebuilds retransmits from its queue of payload tuples), so the
        TTL decrement and arrival timestamp can be written in place
        instead of paying the 14-slot arrival clone.  Capture records on
        both ends alias the same object either way; the serialized
        outputs are byte-identical (pinned by the scenario-identity
        suite).  Impaired paths — where duplicates make the same object
        deliverable twice — keep the cloning :meth:`_deliver`.
        """
        _, hops, _, host = self._path(seg.src_ip, seg.dst_ip)
        if host is None:
            self.segments_dropped += 1
            if self.unreachable_policy == "refuse" and not seg.flags & 0x04:
                self._refuse_unreachable(seg)
            return
        ttl = seg.ttl - hops
        if ttl <= 0:
            self.segments_dropped += 1
            self.sim.bus.incr("net.ttl.expired")
            return
        self.segments_delivered += 1
        seg.ttl = ttl
        seg.timestamp = self.sim.now
        host.deliver(seg)

    def _deliver_burst(self, segs: List[Segment]) -> None:
        first = segs[0]
        _, hops, _, host = self._path(first.src_ip, first.dst_ip)
        if host is None:
            self.segments_dropped += len(segs)
            if self.unreachable_policy == "refuse":
                for seg in segs:
                    if not seg.flags & 0x04:  # not RST
                        self._refuse_unreachable(seg)
            return
        now = self.sim.now
        # Bursts only ride pristine paths (impaired paths fall back to
        # per-segment ``_deliver``), so arrival is in-place here too —
        # same contract as ``_deliver_pristine``.
        arrived: List[Segment] = []
        for seg in segs:
            ttl = seg.ttl - hops
            if ttl <= 0:
                self.segments_dropped += 1
                self.sim.bus.incr("net.ttl.expired")
                continue
            seg.ttl = ttl
            seg.timestamp = now
            arrived.append(seg)
        if not arrived:
            return
        self.segments_delivered += len(arrived)
        host.deliver_burst(arrived)

    # ------------------------------------------------------------------ UDP

    def send_datagram(self, dgram) -> None:
        dgram.timestamp = self.sim.now
        current = [dgram]
        for mbox in self.middleboxes:
            next_round = []
            for d in current:
                forwarded = mbox.process_datagram(d, self)
                if forwarded:
                    next_round.extend(forwarded)
                else:
                    self.datagrams_dropped += 1
            current = next_round
            if not current:
                return
        for d in current:
            delay = self.latency(d.src_ip, d.dst_ip)
            impairment = self.impairment_for(d.src_ip, d.dst_ip)
            if impairment is None:
                self.sim.schedule(delay, self._deliver_datagram, d)
                continue
            delays = self._impaired_delays(impairment, "net.udp")
            if not delays:
                self.datagrams_dropped += 1
                self.impairment_drops += 1
            for extra in delays:
                self.sim.schedule(delay + extra, self._deliver_datagram, d)

    def _deliver_datagram(self, dgram) -> None:
        host = self._hosts.get(dgram.dst_ip)
        if host is None:
            self.datagrams_dropped += 1
            return
        ttl = dgram.ttl - self.hops(dgram.src_ip, dgram.dst_ip)
        if ttl <= 0:
            self.datagrams_dropped += 1
            self.sim.bus.incr("net.ttl.expired")
            return
        arrived = dgram.copy(ttl=ttl, timestamp=self.sim.now)
        self.datagrams_delivered += 1
        host.deliver_datagram(arrived)

    def _refuse_unreachable(self, seg: Segment) -> None:
        from .packet import Flags

        rst = Segment(
            src_ip=seg.dst_ip,
            dst_ip=seg.src_ip,
            src_port=seg.dst_port,
            dst_port=seg.src_port,
            flags=Flags.RST | Flags.ACK,
            seq=0,
            ack=(seg.seq + len(seg.payload) + (1 if seg.is_syn else 0)) & 0xFFFFFFFF,
        )
        # The RST comes from "the far side"; skip middleboxes to avoid
        # the GFW reacting to its own synthetic traffic.
        self.inject(rst, skip_middleboxes=True)
