"""Reaction layer: what the censor *does* about a detector verdict.

The third stage of the sensor → detector → reaction pipeline.  The
orchestrator hands this layer typed :class:`Verdict` records (never raw
detector internals); the policy turns flagged verdicts into staged
active probing (:class:`~repro.gfw.scheduler.ProbeScheduler`) and feeds
probe results into the :class:`~repro.gfw.blocking.BlockingModule`'s
evidence model — the ad-hoc cross-wiring the monolithic firewall used to
do inline.

On the instrumentation bus a flagged verdict emits two structured
records: the legacy ``flow.flagged`` event (field-compatible with every
existing analyzer, keeping streaming analysis byte-identical) and a
richer ``verdict`` record carrying the deciding stage and its score,
consumed by the ``verdict_records`` analyzer for detector-ensemble
ablations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .blocking import BlockingModule, BlockingPolicy
from .flowtable import FlowState
from .prober import ProbeRecord
from .scheduler import ProbeScheduler, ServerProbeState

__all__ = ["ReactionPolicy", "Verdict"]


@dataclass(frozen=True)
class Verdict:
    """One detector decision on one feature packet, as a typed record."""

    time: float
    initiator_ip: str
    initiator_port: int
    responder_ip: str
    responder_port: int
    length: int          # feature-packet payload length
    flagged: bool
    score: float         # probability / likelihood behind the decision
    stage: str           # kind of the deciding detector stage
    # Protocol classification from the deciding stage; selects the probing
    # playbook (None -> the scheduler's default, i.e. "shadowsocks").
    protocol: Optional[str] = None


class ReactionPolicy:
    """Consumes verdicts and probe results; owns probing and blocking."""

    def __init__(
        self,
        sim,
        scheduler: ProbeScheduler,
        blocking: BlockingModule,
        *,
        flag_hook: Optional[Callable[[FlowState, bytes], None]] = None,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.blocking = blocking
        # Hook for tests/experiments, invoked on every flagged verdict
        # between record emission and probe scheduling (the monolith's
        # ``on_flag`` call point).
        self.flag_hook = flag_hook or (lambda flow, payload: None)
        self.scheduler.on_probe_result = self._on_probe_result

    # ------------------------------------------------------------- verdicts

    def on_verdict(self, verdict: Verdict, flow: FlowState, payload: bytes) -> None:
        """React to a flagged feature packet: record it, then probe."""
        if not verdict.flagged:
            return
        bus = self.sim.bus
        if bus.wants_records:
            bus.emit("flow.flagged", {
                "time": verdict.time,
                "initiator_ip": verdict.initiator_ip,
                "initiator_port": verdict.initiator_port,
                "responder_ip": verdict.responder_ip,
                "responder_port": verdict.responder_port,
                "length": verdict.length,
            })
            bus.emit("verdict", {
                "time": verdict.time,
                "initiator_ip": verdict.initiator_ip,
                "initiator_port": verdict.initiator_port,
                "responder_ip": verdict.responder_ip,
                "responder_port": verdict.responder_port,
                "length": verdict.length,
                "score": verdict.score,
                "stage": verdict.stage,
                # Only non-default classifications widen the record: default
                # runs keep their byte-identical "verdict" payloads.
                **({"protocol": verdict.protocol} if verdict.protocol else {}),
            })
        self.flag_hook(flow, payload)
        self.scheduler.on_flagged_connection(
            verdict.responder_ip, verdict.responder_port, payload,
            protocol=verdict.protocol,
        )

    def on_server_data(self, ip: str, port: int) -> None:
        """Passively observed responder data: the endpoint serves something."""
        self.scheduler.note_server_data(ip, port)

    # --------------------------------------------------------------- probes

    def _on_probe_result(self, state: ServerProbeState, record: ProbeRecord) -> None:
        # The endpoint's protocol playbook picks the escalation timeline
        # (the default delegates to BlockingModule.consider, the paper's
        # Shadowsocks evidence model).
        behavior = self.scheduler.behavior_for(state.protocol)
        behavior.consider_blocking(state, record, self.blocking)

    # ------------------------------------------------------------- builders

    @classmethod
    def default(cls, sim, runner, *, forge, delay_model, rng: random.Random,
                scheduler_config=None,
                blocking_policy: Optional[BlockingPolicy] = None,
                blocking_rng: Optional[random.Random] = None,
                probe_behaviors=None,
                flag_hook=None) -> "ReactionPolicy":
        """The paper's reaction chain: staged prober + gated blocking."""
        scheduler = ProbeScheduler(runner, forge=forge, delay_model=delay_model,
                                   rng=rng, config=scheduler_config,
                                   behaviors=probe_behaviors)
        blocking = BlockingModule(sim, rng=blocking_rng, policy=blocking_policy)
        return cls(sim, scheduler, blocking, flag_hook=flag_hook)
