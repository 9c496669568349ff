"""The GFW's blocking module (§6).

Observed behaviour encoded here:

* blocking is **by port or by whole IP** (both occurred);
* only the **server-to-client direction** is dropped (null routing);
* blocking is **rare** relative to probing — the paper saw only 3 of 63
  vantage points blocked, and offers two hypotheses: a *human-gated*
  decision (more blocking during politically sensitive periods) and an
  *implementation-dependent* one (all three blocked servers ran
  ShadowsocksR or Shadowsocks-python);
* **no periodic recheck**: one server was unblocked more than a week
  later without receiving any probes first.

Both hypotheses are modeled and can be toggled for ablation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .prober import ProbeRecord, Reaction
from .scheduler import ServerProbeState

__all__ = ["BlockingPolicy", "BlockEvent", "BlockingModule",
           "SENSITIVE_PERIODS_2019"]

# The politically sensitive windows §2.2 and §6 associate with blocking
# waves, as day-of-year offsets (in seconds) for experiments that anchor
# their clock to Jan 1: the Tiananmen anniversary (Jun 4), the PRC 70th
# anniversary (Oct 1), and the 4th Plenary Session (Oct 28 - 31, 2019).
_DAY = 86_400.0
SENSITIVE_PERIODS_2019 = [
    (154 * _DAY, 157 * _DAY),   # around June 4
    (273 * _DAY, 277 * _DAY),   # around October 1
    (300 * _DAY, 304 * _DAY),   # 4th Plenary Session
]


@dataclass
class BlockingPolicy:
    human_gated: bool = True
    # [start, end) windows of simulation time during which the human
    # operators act (politically sensitive periods).
    sensitive_periods: List[Tuple[float, float]] = field(default_factory=list)
    # Per-confirmation probability that a listed server is actually blocked
    # when the gate is open.  Low: few probed servers ever get blocked.
    block_probability: float = 0.05
    block_by_ip_probability: float = 0.5
    # Unblock after roughly this long, without rechecking.
    unblock_after: float = 8 * 24 * 3600.0
    unblock_jitter: float = 4 * 24 * 3600.0
    # Evidence thresholds for putting a server on the candidate list.
    # Statistical (RST/FIN-ACK pattern) evidence accumulates slowly — the
    # GFW needs *many* probes to be confident (§5.2.2, §6) — while a
    # replay answered with data is near-conclusive and confirms fast
    # (the implementation-vulnerability hypothesis for why the blocked
    # servers all ran ShadowsocksR / Shadowsocks-python).
    min_confirming_reactions: int = 40
    fast_confirm_reactions: int = 2


@dataclass
class BlockEvent:
    time: float
    ip: str
    port: Optional[int]  # None = blocked by IP
    unblock_time: float


class BlockingModule:
    """Maintains the blocklist and decides when to add to it."""

    def __init__(self, sim, rng: Optional[random.Random] = None,
                 policy: Optional[BlockingPolicy] = None):
        self.sim = sim
        self.rng = rng or random.Random(0xB10C)
        self.policy = policy or BlockingPolicy()
        self._blocked_ports: Dict[Tuple[str, int], float] = {}  # -> unblock time
        self._blocked_ips: Dict[str, float] = {}
        self.events: List[BlockEvent] = []
        # Per-candidate evidence: replay probes answered with data, and
        # "distinctive" error reactions (RST / server-first FIN-ACK).
        self.candidates: Dict[Tuple[str, int], Dict[str, int]] = {}

    # ------------------------------------------------------------ decisions

    def gate_open(self, now: float) -> bool:
        if not self.policy.human_gated:
            return True
        return any(start <= now < end for start, end in self.policy.sensitive_periods)

    def consider(self, state: ServerProbeState, record: ProbeRecord) -> None:
        """Feed one probe result into the evidence model.

        A server is confirmable when it *both* answers replays with data
        and shows distinctive error reactions to other probes — the
        combination only replay-vulnerable, RST-on-error implementations
        (ShadowsocksR, Shadowsocks-python, old Outline) exhibit.  A
        server whose every error is a timeout looks like any silent TCP
        service and needs an implausible volume of statistical evidence,
        which is the paper's hypothesis for why its Outline and libev
        servers were intensively probed yet rarely blocked.
        """
        key = (state.ip, state.port)
        if self.is_blocked(state.ip, state.port):
            return
        evidence = self.candidates.setdefault(key, {"replay_data": 0, "distinctive": 0})
        if record.probe.is_replay and record.reaction == Reaction.DATA:
            evidence["replay_data"] += 1
        elif record.reaction in (Reaction.RST, Reaction.FINACK):
            evidence["distinctive"] += 1
        confirmed = (
            evidence["replay_data"] >= 1
            and evidence["distinctive"] >= self.policy.fast_confirm_reactions
        ) or evidence["distinctive"] >= self.policy.min_confirming_reactions
        if confirmed:
            self._maybe_block(state)

    def _maybe_block(self, state: ServerProbeState) -> None:
        now = self.sim.now
        if not self.gate_open(now):
            return
        if self.rng.random() >= self.policy.block_probability:
            return
        self.block(state.ip, state.port)

    def block(self, ip: str, port: Optional[int] = None,
              by_ip: Optional[bool] = None) -> BlockEvent:
        """Add a block rule (used by decisions and by experiments directly)."""
        now = self.sim.now
        if by_ip is None:
            by_ip = self.rng.random() < self.policy.block_by_ip_probability
        unblock_time = now + self.policy.unblock_after + self.rng.uniform(
            0, self.policy.unblock_jitter
        )
        if by_ip or port is None:
            self._blocked_ips[ip] = unblock_time
            event = BlockEvent(now, ip, None, unblock_time)
        else:
            self._blocked_ports[(ip, port)] = unblock_time
            event = BlockEvent(now, ip, port, unblock_time)
        self.events.append(event)
        bus = self.sim.bus
        bus.incr("gfw.block.applied")
        if bus.wants_records:
            bus.emit("block", {
                "time": event.time,
                "ip": event.ip,
                "port": event.port,
                "unblock_time": event.unblock_time,
            })
        self.sim.schedule(unblock_time - now, self._unblock, event)
        return event

    def _unblock(self, event: BlockEvent) -> None:
        # No recheck probes: the entry just lapses (§6).
        if event.port is None:
            self._blocked_ips.pop(event.ip, None)
        else:
            self._blocked_ports.pop((event.ip, event.port), None)

    # --------------------------------------------------------------- lookup

    def is_blocked(self, ip: str, port: Optional[int] = None) -> bool:
        if ip in self._blocked_ips:
            return True
        return port is not None and (ip, port) in self._blocked_ports

    @property
    def blocked_count(self) -> int:
        return len(self._blocked_ips) + len(self._blocked_ports)
