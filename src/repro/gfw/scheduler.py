"""Staged probing driver: generic scheduling + per-protocol playbooks.

The *mechanics* of probing live here — per-server state, probe budget,
delayed firing through the prober fleet, result plumbing.  The
*playbook* (which probes a flagged connection draws, and how the
endpoint escalates through stages) is per-protocol: each flagged flow
carries a protocol classification from the detector, and the scheduler
dispatches to the matching :class:`~repro.gfw.probing.ProbeBehavior`
from the behaviour registry.

The default behaviour is the source paper's Shadowsocks stage model:

* **Stage 1** — a flagged connection draws replay probes: an identical
  replay (R1), often a byte-0-changed replay (R2), sometimes repeated
  many times (payloads were replayed up to 47 times), plus random NR2
  probes of 221 bytes.  Delays follow the Figure 7 distribution.
* **Stage 2** — entered only once the server has *responded with data*
  to a stage-1 replay probe (the replay-vulnerable implementations):
  byte-changed replays R3 and R4 arrive in volume, R5 rarely.  This is
  why Outline (no replay filter then) received R3–R5 and
  Shadowsocks-libev never did.
* **NR1 drip** — servers that are long-term suspects (many flagged
  connections *and* observed to answer their own clients with data)
  receive the NR1 length-trio battery, a few probes per hour rather
  than all at once.

The relative probe-type frequencies reproduce Figure 2 (NR2 ≈ 3× all
NR1 combined) and the Exp 1.a tallies (R1 ≈ 2.5× R2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .delays import ReplayDelayModel
from .probes import Probe, ProbeForge
from .prober import ProbeRecord, ProberRunner

__all__ = ["SchedulerConfig", "ServerProbeState", "ProbeScheduler"]


@dataclass
class SchedulerConfig:
    # Stage 1.
    r2_probability: float = 0.40          # R2 per flagged connection vs R1's 1.0
    nr2_probability: float = 0.30         # NR2 per flagged connection
    repeat_geometric_p: float = 0.30      # extra replays of the same payload
    max_replays_per_payload: int = 47     # hard cap observed in the wild
    # Stage 2 (after the server responds to a replay).
    stage2_burst_low: int = 8
    stage2_burst_high: int = 24
    stage2_spread_hours: float = 6.0
    r5_probability: float = 0.02          # only two R5s were ever observed
    r6_probability: float = 0.01          # Exp 1.b: 11 replays with bytes 16-32 changed
    # NR1 drip.
    nr1_flag_threshold: int = 10          # long-term suspect cutoff
    # Per flagged connection past the threshold; with a 1-3 probe batch this
    # yields NR2 ~ 3x all NR1 in the long run, the Figure 2 ratio.
    nr1_probability: float = 0.05
    nr1_spread_hours: float = 1.0         # "a few in each hour"
    nr3_probability: float = 0.002        # rare stray lengths
    # §5.3: ~10% of NR2 probes were sent to the same server more than once
    # — consistent with the duplicate-probe replay-filter check.
    nr2_duplicate_probability: float = 0.10
    # Resource bound per server, far above anything the paper observed.
    max_probes_per_server: int = 100_000


@dataclass
class ServerProbeState:
    """Accumulated GFW knowledge about one suspected endpoint."""

    ip: str
    port: int
    flag_count: int = 0
    stage: int = 1
    serves_data: bool = False     # server answered its own clients with data
    probes_sent: int = 0
    replay_responses: int = 0     # replay probes the server answered with data
    recorded_payloads: List[Tuple[float, bytes]] = field(default_factory=list)
    reactions: Dict[str, int] = field(default_factory=dict)
    # Protocol classification from the first verdict that flagged this
    # endpoint (sticky); None until flagged, then e.g. "shadowsocks"/"tor".
    protocol: Optional[str] = None

    def note_reaction(self, record: ProbeRecord) -> None:
        self.reactions[record.reaction] = self.reactions.get(record.reaction, 0) + 1


class ProbeScheduler:
    """Drives the staged probing of every suspected server."""

    MAX_RECORDED_PAYLOADS = 512

    def __init__(
        self,
        runner: ProberRunner,
        forge: Optional[ProbeForge] = None,
        delay_model: Optional[ReplayDelayModel] = None,
        rng: Optional[random.Random] = None,
        config: Optional[SchedulerConfig] = None,
        behaviors: Optional[Mapping[str, Union[str, Mapping[str, Any]]]] = None,
        default_protocol: str = "shadowsocks",
    ):
        self.runner = runner
        self.rng = rng or random.Random(0x5CED)
        self.forge = forge or ProbeForge(self.rng)
        self.delay_model = delay_model or ReplayDelayModel()
        self.config = config or SchedulerConfig()
        self.servers: Dict[Tuple[str, int], ServerProbeState] = {}
        # Per-protocol playbook overrides: protocol name -> behaviour spec.
        # Unlisted protocols resolve to the behaviour registered under their
        # own name (so {"tor": {...params...}} tweaks tor; plain "tor"
        # protocol classifications work with no spec at all).
        self.behavior_specs: Dict[str, Union[str, Mapping[str, Any]]] = dict(
            behaviors or {})
        self.default_protocol = default_protocol
        self._behaviors: Dict[str, Any] = {}
        # Hook for the blocking module: called on every probe result.
        self.on_probe_result: Callable[[ServerProbeState, ProbeRecord], None] = (
            lambda state, record: None
        )

    @property
    def sim(self):
        return self.runner.sim

    def behavior_for(self, protocol: Optional[str]):
        """The probing playbook for a protocol classification (cached)."""
        name = protocol or self.default_protocol
        behavior = self._behaviors.get(name)
        if behavior is None:
            # Lazy import: probing.py imports our dataclasses at module load.
            from .probing import build_behavior

            spec = self.behavior_specs.get(name, name)
            behavior = build_behavior(spec, self)
            self._behaviors[name] = behavior
        return behavior

    def state_for(self, ip: str, port: int) -> ServerProbeState:
        key = (ip, port)
        if key not in self.servers:
            self.servers[key] = ServerProbeState(ip, port)
        return self.servers[key]

    # ------------------------------------------------------------- triggers

    def on_flagged_connection(self, ip: str, port: int, payload: bytes,
                              protocol: Optional[str] = None) -> None:
        """A passively flagged first data packet: start stage-1 probing."""
        state = self.state_for(ip, port)
        state.flag_count += 1
        if state.protocol is None:
            state.protocol = protocol or self.default_protocol
        now = self.sim.now
        if len(state.recorded_payloads) < self.MAX_RECORDED_PAYLOADS:
            state.recorded_payloads.append((now, payload))
        self.behavior_for(state.protocol).on_flagged(state, payload, now)

    def note_server_data(self, ip: str, port: int) -> None:
        """Passively observed server->client data (it serves *something*)."""
        self.state_for(ip, port).serves_data = True

    # ----------------------------------------------------------- scheduling

    def _schedule(self, probe: Probe, state: ServerProbeState, delay: float,
                  trigger_time: Optional[float] = None) -> None:
        if state.probes_sent >= self.config.max_probes_per_server:
            return
        state.probes_sent += 1
        self.sim.schedule(delay, self._fire, probe, state, trigger_time)

    def _fire(self, probe: Probe, state: ServerProbeState,
              trigger_time: Optional[float]) -> None:
        self.runner.send_probe(
            probe, state.ip, state.port,
            trigger_time=trigger_time,
            on_result=lambda record: self._handle_result(state, record),
        )

    # -------------------------------------------------------------- results

    def _handle_result(self, state: ServerProbeState, record: ProbeRecord) -> None:
        state.note_reaction(record)
        self.behavior_for(state.protocol).on_result(state, record)
        self.on_probe_result(state, record)
