"""Per-protocol probing playbooks: the censor's reaction engine, pluggable.

PR 5 made the *detector* pluggable; this module does the same for the
probing side.  The staged Shadowsocks replay/NR logic that used to be
hard-wired into :class:`~repro.gfw.scheduler.ProbeScheduler` is now one
:class:`ProbeBehavior` in a registry keyed by protocol name, and the
scheduler dispatches to the behaviour selected by the flagged flow's
protocol classification (``Verdict.protocol``, defaulting to
``"shadowsocks"``).

* ``"shadowsocks"`` — the source paper's playbook, moved here verbatim
  from the scheduler: stage-1 R1/R2 replays with geometric repeats and
  Figure 7 delays, probabilistic NR2/NR3, the NR1 drip for long-term
  suspects, and the stage-2 R3-R6 burst once a replay is answered with
  data.  Byte-identical to the pre-refactor scheduler (property-tested):
  same RNG draws from the scheduler's single stream, in the same order.

* ``"tor"`` — the GFW's Tor/obfs active probing per Winter & Lindskog
  (*How China Is Blocking Tor*): garbage binary probes plus a forged Tor
  VERSIONS handshake, a confirmation burst once a suspected bridge
  answers the handshake, and block rollout deferred to the next *batch
  boundary* — reproducing the probe-to-block delay clustering Fifield &
  Tsai measured (*Censors' Delay in Blocking Circumvention Proxies*).

Spec grammar mirrors the detector-stage registry::

    "shadowsocks"                                  # bare kind
    {"kind": "tor", "batch_interval": 900.0}       # kind + params
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Tuple, Union

from .delays import ReplayDelayModel
from .prober import ProbeRecord, Reaction
from .probes import ProbeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from .blocking import BlockingModule
    from .scheduler import ProbeScheduler, ServerProbeState

__all__ = [
    "FT_TOR_ANCHORS",
    "ProbeBehavior",
    "ShadowsocksProbeBehavior",
    "TorProbeBehavior",
    "behavior_kinds",
    "build_behavior",
    "register_behavior",
]

BehaviorSpec = Union[str, Mapping[str, Any]]

# Tor probe-delay anchors (CDF value, delay seconds).  Winter & Lindskog
# observed quasi-real-time probing (most probes within seconds to
# minutes of the triggering connection); Fifield & Tsai's longitudinal
# measurements add a minutes-scale median and an hours-scale tail.
FT_TOR_ANCHORS: List[Tuple[float, float]] = [
    (0.00, 0.5),
    (0.30, 15.0),
    (0.60, 60.0),
    (0.85, 600.0),
    (0.97, 3600.0),
    (1.00, 21600.0),
]


class ProbeBehavior:
    """One protocol's probing playbook, driven by the scheduler.

    A behaviour owns no RNG, forge, or clock of its own: everything is
    drawn from the owning scheduler so a behaviour's draws interleave
    into the scheduler's single seeded stream (the property that keeps
    the default path byte-identical to the pre-refactor monolith).
    """

    kind: str = ""

    def __init__(self, scheduler: "ProbeScheduler"):
        self.scheduler = scheduler

    # Convenience accessors: behaviours read the scheduler's machinery.
    @property
    def rng(self):
        return self.scheduler.rng

    @property
    def sim(self):
        return self.scheduler.sim

    def spec(self) -> Dict[str, Any]:
        """JSON-able ``{"kind": ..., **params}`` rebuilding this behaviour."""
        return {"kind": self.kind}

    def on_flagged(self, state: "ServerProbeState", payload: bytes,
                   now: float) -> None:
        """A flagged connection to ``state``'s endpoint: schedule probes."""
        raise NotImplementedError

    def on_result(self, state: "ServerProbeState", record: ProbeRecord) -> None:
        """A probe completed: drive stage escalation (default: none)."""

    def consider_blocking(self, state: "ServerProbeState", record: ProbeRecord,
                          blocking: "BlockingModule") -> None:
        """Feed a probe result into the block-escalation timeline.

        The default is the paper's Shadowsocks evidence model
        (:meth:`BlockingModule.consider`); protocol behaviours override
        this to select a different escalation timeline.
        """
        blocking.consider(state, record)


_BEHAVIORS: Dict[str, Callable[..., ProbeBehavior]] = {}


def register_behavior(cls):
    """Class decorator: make a behaviour constructible from its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    _BEHAVIORS[cls.kind] = cls
    return cls


def behavior_kinds() -> List[str]:
    return sorted(_BEHAVIORS)


def build_behavior(spec: BehaviorSpec, scheduler: "ProbeScheduler") -> ProbeBehavior:
    """Construct a probing behaviour from a JSON-able spec."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping):
        raise TypeError(
            f"probe-behavior spec must be a string or mapping, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError(f"probe-behavior spec {spec!r} has no 'kind'")
    try:
        cls = _BEHAVIORS[kind]
    except KeyError:
        known = ", ".join(behavior_kinds()) or "(none)"
        raise KeyError(f"unknown probe-behavior kind {kind!r}; registered: {known}")
    return cls(scheduler, **params)


# ----------------------------------------------------- the paper's playbook


@register_behavior
class ShadowsocksProbeBehavior(ProbeBehavior):
    """The source paper's staged replay/NR playbook (§4.2, §5).

    The logic is the pre-refactor scheduler body, relocated: stage 1
    replays and random probes per flagged connection, the NR1 drip for
    long-term suspects, and the stage-2 burst once the server answers a
    replay with data.  All randomness comes from ``scheduler.rng`` in
    the original draw order.
    """

    kind = "shadowsocks"

    def on_flagged(self, state: "ServerProbeState", payload: bytes,
                   now: float) -> None:
        sched = self.scheduler
        cfg = sched.config
        rng = sched.rng
        self._schedule_replays(state, payload, now, ProbeType.R1)
        if rng.random() < cfg.r2_probability:
            self._schedule_replays(state, payload, now, ProbeType.R2)
        if rng.random() < cfg.nr2_probability:
            nr2 = sched.forge.nr2()
            sched._schedule(nr2, state, sched.delay_model.sample(rng))
            if rng.random() < cfg.nr2_duplicate_probability:
                # Re-send the *same* payload later: the duplicate-probe
                # replay-filter check of §5.3.
                sched._schedule(nr2, state, sched.delay_model.sample(rng))
        if rng.random() < cfg.nr3_probability:
            sched._schedule(sched.forge.nr3(), state,
                            sched.delay_model.sample(rng))
        if (
            state.serves_data
            and state.flag_count >= cfg.nr1_flag_threshold
            and rng.random() < cfg.nr1_probability
        ):
            # Drip a small NR1 batch over the next hour or so.
            for _ in range(rng.randint(1, 3)):
                spread = rng.uniform(0, cfg.nr1_spread_hours * 3600)
                sched._schedule(sched.forge.nr1(), state, spread)

    def _schedule_replays(self, state: "ServerProbeState", payload: bytes,
                          trigger_time: float, probe_type: str) -> None:
        sched = self.scheduler
        cfg = sched.config
        rng = sched.rng
        repeats = 1
        while (
            repeats < cfg.max_replays_per_payload
            and rng.random() < cfg.repeat_geometric_p
        ):
            repeats += 1
        for _ in range(repeats):
            delay = sched.delay_model.sample(rng)
            probe = sched.forge.replay(payload, probe_type)
            sched._schedule(probe, state, delay, trigger_time=trigger_time)

    def on_result(self, state: "ServerProbeState", record: ProbeRecord) -> None:
        if record.probe.is_replay and record.reaction == Reaction.DATA:
            state.replay_responses += 1
            if state.stage == 1:
                state.stage = 2
                self.sim.bus.incr("scheduler.stage2")
                self._enter_stage2(state)

    def _enter_stage2(self, state: "ServerProbeState") -> None:
        """The server answered a replay: unleash R3/R4 (and rarely R5/R6)."""
        sched = self.scheduler
        cfg = sched.config
        rng = sched.rng
        if not state.recorded_payloads:
            return
        burst = rng.randint(cfg.stage2_burst_low, cfg.stage2_burst_high)
        for _ in range(burst):
            recorded_at, payload = rng.choice(state.recorded_payloads)
            roll = rng.random()
            if roll < cfg.r5_probability:
                probe_type = ProbeType.R5
            elif roll < cfg.r5_probability + cfg.r6_probability:
                probe_type = ProbeType.R6
            elif roll < 0.5:
                probe_type = ProbeType.R3
            else:
                probe_type = ProbeType.R4
            delay = rng.uniform(0, cfg.stage2_spread_hours * 3600)
            sched._schedule(sched.forge.replay(payload, probe_type), state, delay,
                            trigger_time=recorded_at)


# --------------------------------------------------- Tor/obfs active probing


@register_behavior
class TorProbeBehavior(ProbeBehavior):
    """GFW Tor active probing: garbage probes, handshakes, batched blocks.

    Stage model (Winter & Lindskog; Fifield & Tsai):

    * **Stage 1** — each flagged connection draws a garbage binary probe
      (uniformly random bytes) and, usually, a forged Tor VERSIONS
      handshake, after a delay from the Tor probe-delay distribution.
    * **Stage 2** — entered once the endpoint *answers the handshake
      like a bridge* (a VERSIONS reply): a short confirmation burst of
      further handshake probes over the next minutes.
    * **Block rollout** — a confirmed bridge is not blocked immediately:
      the rule lands at the next multiple of ``batch_interval``
      (plus a small processing jitter), reproducing the batched
      probe-to-block delay clustering of Fifield & Tsai.  The block
      bypasses the Shadowsocks evidence model and its human gate — Tor
      bridge blocking was observed to be automatic.
    """

    kind = "tor"

    def __init__(
        self,
        scheduler: "ProbeScheduler",
        *,
        garbage_probability: float = 1.0,
        handshake_probability: float = 0.85,
        confirm_burst_low: int = 2,
        confirm_burst_high: int = 5,
        confirm_spread: float = 600.0,
        batch_interval: float = 900.0,
        batch_jitter: float = 30.0,
        block_by_ip_probability: float = 0.3,
    ):
        super().__init__(scheduler)
        self.garbage_probability = garbage_probability
        self.handshake_probability = handshake_probability
        self.confirm_burst_low = confirm_burst_low
        self.confirm_burst_high = confirm_burst_high
        self.confirm_spread = confirm_spread
        self.batch_interval = batch_interval
        self.batch_jitter = batch_jitter
        self.block_by_ip_probability = block_by_ip_probability
        self.delays = ReplayDelayModel(FT_TOR_ANCHORS)
        # Endpoints whose block is already scheduled (or applied).
        self._block_scheduled: set = set()

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "garbage_probability": self.garbage_probability,
            "handshake_probability": self.handshake_probability,
            "confirm_burst_low": self.confirm_burst_low,
            "confirm_burst_high": self.confirm_burst_high,
            "confirm_spread": self.confirm_spread,
            "batch_interval": self.batch_interval,
            "batch_jitter": self.batch_jitter,
            "block_by_ip_probability": self.block_by_ip_probability,
        }

    def on_flagged(self, state: "ServerProbeState", payload: bytes,
                   now: float) -> None:
        sched = self.scheduler
        rng = sched.rng
        if rng.random() < self.garbage_probability:
            sched._schedule(sched.forge.garbage(), state,
                            self.delays.sample(rng), trigger_time=now)
        if rng.random() < self.handshake_probability:
            sched._schedule(sched.forge.tor_handshake(), state,
                            self.delays.sample(rng), trigger_time=now)

    # A bridge is *confirmed* when a probe draws data: the forged
    # VERSIONS handshake (vanilla Tor answers it) or the garbage binary
    # probe (obfs3's unauthenticated handshake answers any block of the
    # right size).  obfs4 answers neither.
    _CONFIRMING = (ProbeType.TORH, ProbeType.GARBAGE)

    def _confirms(self, record: ProbeRecord) -> bool:
        return (record.probe_type in self._CONFIRMING
                and record.reaction == Reaction.DATA)

    def on_result(self, state: "ServerProbeState", record: ProbeRecord) -> None:
        if self._confirms(record) and state.stage == 1:
            state.stage = 2
            self.sim.bus.incr("scheduler.tor.confirmed")
            sched = self.scheduler
            rng = sched.rng
            burst = rng.randint(self.confirm_burst_low, self.confirm_burst_high)
            for _ in range(burst):
                sched._schedule(sched.forge.tor_handshake(), state,
                                rng.uniform(0, self.confirm_spread))

    def consider_blocking(self, state: "ServerProbeState", record: ProbeRecord,
                          blocking: "BlockingModule") -> None:
        if not self._confirms(record):
            return
        key = (state.ip, state.port)
        if key in self._block_scheduled or blocking.is_blocked(state.ip, state.port):
            return
        self._block_scheduled.add(key)
        rng = self.rng
        now = self.sim.now
        # Next batch boundary relative to the epoch, plus processing jitter.
        wait = self.batch_interval - (now % self.batch_interval)
        wait += rng.uniform(0, self.batch_jitter)
        by_ip = rng.random() < self.block_by_ip_probability
        self.sim.bus.incr("scheduler.tor.block_scheduled")
        self.sim.schedule(wait, blocking.block, state.ip, state.port, by_ip)
