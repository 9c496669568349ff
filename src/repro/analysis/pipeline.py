"""Streaming analysis: composable, mergeable online analyzers.

The legacy :mod:`repro.analysis` modules are batch functions over full
in-memory captures — fine for a demo, unaffordable at the ROADMAP's
"millions of users" scale where buffering every packet of a run is the
dominant memory cost.  This module restates that analysis as an online
pipeline:

* an :class:`Analyzer` consumes structured events one at a time
  (``observe``), can fold in a peer's state from another shard
  (``merge``), and reduces to a JSON-able summary (``finalize``);
* an :class:`AnalysisPipeline` owns a named set of analyzers and wires
  them to a run's event sources — the per-simulator
  :class:`~repro.runtime.events.EventBus` record channel and live
  :class:`~repro.net.capture.Capture` taps — so results accumulate
  *while the simulation runs*, with memory bounded by the analysis
  state itself (counters, per-probe tuples, ground-truth payloads)
  rather than by total traffic.

Event vocabulary (see :mod:`repro.runtime.events` for the emitters):

==================  ====================================================
``probe``           prober runner dispatched a probe (payload, type, ...)
``probe.result``    a probe finished with a classified reaction
``flow.flagged``    the passive detector flagged a feature packet
``block``           the blocking module installed a block rule
``payload``         a workload client sent a ground-truth payload
``capture``         a tapped host capture saw a segment (pipeline-local)
==================  ====================================================

Each analyzer declares the attributes that hold its state once
(``state_fields``); the base class serializes them to plain JSON types
and restores them.  A run's analysis section is
``{name: {analyzer, config, state, output}}``
(:meth:`AnalysisPipeline.payload`), so state travels inside cached
:class:`~repro.runtime.scenario.RunResult`s and across process
boundaries: :func:`merge_sections` folds the states of several seeds or
flow shards back into one pipeline instead of shipping raw captures,
and ``python -m repro analyze`` re-finalizes a cached run without
re-simulating anything.

The batch twins of these analyzers (the capture-buffering
``extract_probes`` and the ``*_batch`` summarizers) live with the
property tests as oracles, which assert the streaming outputs are
byte-identical to them.
"""

from __future__ import annotations

import base64
import inspect
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from .classify import ObservedProbe, classify_payload
from .fingerprint import cluster_tsval_sequences, port_statistics
from .stats import ECDF

__all__ = [
    "AnalysisPipeline",
    "Analyzer",
    "BlockEvents",
    "CaptureProbeClassifier",
    "EcdfAnalyzer",
    "FlaggedConnections",
    "FlowCensus",
    "ProbeBlockDelays",
    "ProbeSynTimes",
    "ProbeTally",
    "ProberFingerprint",
    "RandomDataStats",
    "ReplayDelays",
    "SynCount",
    "VerdictRecords",
    "analyzer_kinds",
    "build_analyzer",
    "merge_analysis",
    "merge_sections",
    "register_analyzer",
    "restore_analyzer",
    "series",
]


def _b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _b64d(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def series(values: Iterable[float]) -> Dict[str, float]:
    """Summary stats of a numeric series (empty-safe, JSON-able)."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}
    n = len(ordered)
    median = (ordered[n // 2] if n % 2
              else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0)
    return {"count": n, "mean": sum(ordered) / n, "median": median,
            "min": ordered[0], "max": ordered[-1]}


def _to_json(value: Any) -> Any:
    """A JSON-shaped deep copy: sets become sorted lists, tuples lists."""
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


# ------------------------------------------------------------------ protocol


class Analyzer:
    """One online reduction over the event stream.

    A subclass sets a unique ``kind``, names the attributes that hold
    its state in ``state_fields``, stores each constructor parameter in
    the same-named attribute, registers with :func:`register_analyzer`,
    and writes ``__init__``, ``observe``, ``merge`` and ``finalize``:

    * ``observe`` must be cheap and must not retain unbounded per-packet
      state — analyzer memory is the sufficient statistic of its output,
      not the traffic that produced it;
    * ``merge`` folds another instance of the same kind and config into
      this one (``_check_mergeable`` enforces both), so shard states
      combine associatively in seed order.

    The base class derives the serialized form from those declarations:
    ``config`` reads the constructor parameters back, ``state_dict``
    copies the ``state_fields`` into plain JSON types and ``load_state``
    restores them, which is what lets states cross process boundaries
    and live in cached results.  A state JSON cannot carry as is (bytes,
    tuple keys) overrides ``state_dict`` and ``load_state``.
    """

    kind: ClassVar[str] = ""
    state_fields: ClassVar[Tuple[str, ...]] = ()

    def config(self) -> Dict[str, Any]:
        """JSON-able constructor kwargs (identity of the reduction)."""
        params = inspect.signature(type(self)).parameters
        return {name: _to_json(getattr(self, name)) for name in params}

    def observe(self, event: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def merge(self, other: "Analyzer") -> None:
        raise NotImplementedError

    def finalize(self) -> Dict[str, Any]:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """The ``state_fields`` as JSON-shaped deep copies."""
        return {name: _to_json(getattr(self, name))
                for name in self.state_fields}

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore ``state_dict`` output into this analyzer.

        Each field comes back as a deep copy in the type a fresh
        instance of this config holds (a set stays a set), and a field
        the state lacks keeps that fresh instance's value.
        """
        fresh = type(self)(**self.config())
        for name in self.state_fields:
            default = getattr(fresh, name)
            value = state.get(name)
            if value is None:
                value = default
            setattr(self, name, (set(value) if isinstance(default, set)
                                 else _to_json(value)))

    def _check_mergeable(self, other: "Analyzer") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other.config() != self.config():
            raise ValueError(
                f"cannot merge {type(self).__name__} with config "
                f"{other.config()} into one with {self.config()}"
            )


_ANALYZERS: Dict[str, Type[Analyzer]] = {}


def register_analyzer(cls: Type[Analyzer]) -> Type[Analyzer]:
    """Class decorator: make ``cls`` restorable by its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    _ANALYZERS[cls.kind] = cls
    return cls


def analyzer_kinds() -> List[str]:
    return sorted(_ANALYZERS)


def build_analyzer(kind: str, config: Optional[Mapping[str, Any]] = None) -> Analyzer:
    try:
        cls = _ANALYZERS[kind]
    except KeyError:
        known = ", ".join(analyzer_kinds()) or "(none)"
        raise KeyError(f"unknown analyzer kind {kind!r}; registered: {known}")
    return cls(**dict(config or {}))


def restore_analyzer(spec: Mapping[str, Any]) -> Analyzer:
    """Rebuild a live analyzer from a serialized ``{analyzer, config, state}``."""
    analyzer = build_analyzer(spec["analyzer"], spec.get("config"))
    analyzer.load_state(spec.get("state") or {})
    return analyzer


def merge_sections(
    per_run: Sequence[Mapping[str, Mapping[str, Any]]],
) -> "AnalysisPipeline":
    """Restore the first run's analyzers and fold in the later runs' states.

    ``per_run`` holds one serialized section (``{name: spec}``) per run,
    in merge order; a later run that lacks a name is skipped.
    """
    analyzers: Dict[str, Analyzer] = {}
    for name, spec in per_run[0].items():
        analyzer = restore_analyzer(spec)
        for later in per_run[1:]:
            if later.get(name) is not None:
                analyzer.merge(restore_analyzer(later[name]))
        analyzers[name] = analyzer
    return AnalysisPipeline(analyzers)


def merge_analysis(
    per_run: Sequence[Mapping[str, Mapping[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Merge serialized analysis sections from several runs and re-finalize.

    ``per_run`` holds one ``{name: spec}`` mapping per run, in seed
    order.  Returns ``{name: output}``; empty if any run carries no
    analysis (mixing analyzed and unanalyzed runs is not meaningful).
    """
    if not per_run or any(not section for section in per_run):
        return {}
    return merge_sections(per_run).outputs()


# ------------------------------------------------------------------ pipeline


class AnalysisPipeline:
    """A named analyzer set wired to a run's live event sources.

    ``attach(bus)`` subscribes every analyzer to the bus's structured
    record channel; ``tap_capture`` additionally routes one host
    capture's records (wrapped as ``capture`` events) to a subset of
    analyzers.  ``outputs()`` finalizes exactly once and memoizes, so
    summarizers and serializers see one consistent view.
    """

    def __init__(self, analyzers: Mapping[str, Analyzer]):
        self.analyzers: Dict[str, Analyzer] = dict(analyzers)
        self._bus: Any = None
        self._taps: List[Tuple[Any, Callable[[Any], None]]] = []
        self._outputs: Optional[Dict[str, Dict[str, Any]]] = None

    # -------------------------------------------------------------- wiring

    def attach(self, bus: Any) -> "AnalysisPipeline":
        """Subscribe all analyzers to a bus's structured record channel."""
        self._bus = bus
        bus.subscribe_records(self._observe_all)
        return self

    def tap_capture(self, capture: Any, *, host: str = "",
                    names: Optional[Sequence[str]] = None) -> None:
        """Route one capture's records to the named analyzers (all if None).

        The tap fires per record as it happens, independent of the
        capture's ``buffering`` flag — turning buffering off is what
        makes a large run constant-memory while analysis still sees
        every segment.
        """
        targets = (list(self.analyzers.values()) if names is None
                   else [self.analyzers[n] for n in names])

        def tap(rec: Any) -> None:
            event = {"kind": "capture", "host": host, "time": rec.time,
                     "sent": rec.sent, "segment": rec.segment}
            for analyzer in targets:
                analyzer.observe(event)

        capture.subscribe(tap)
        self._taps.append((capture, tap))

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe_records(self._observe_all)
            self._bus = None
        for capture, tap in self._taps:
            try:
                capture.taps.remove(tap)
            except ValueError:
                pass
        self._taps.clear()

    def _observe_all(self, event: Dict[str, Any]) -> None:
        for analyzer in self.analyzers.values():
            analyzer.observe(event)

    # ------------------------------------------------------------- results

    def outputs(self) -> Dict[str, Dict[str, Any]]:
        """Finalized ``{name: output}``; computed once, then memoized."""
        if self._outputs is None:
            self._outputs = {name: analyzer.finalize()
                             for name, analyzer in self.analyzers.items()}
        return self._outputs

    def payload(self) -> Dict[str, Dict[str, Any]]:
        """Full serialized section: ``{name: {analyzer, config, state, output}}``."""
        outputs = self.outputs()
        return {
            name: {
                "analyzer": analyzer.kind,
                "config": analyzer.config(),
                "state": analyzer.state_dict(),
                "output": outputs[name],
            }
            for name, analyzer in self.analyzers.items()
        }


# ----------------------------------------------------------- probe analyzers


@register_analyzer
class ProbeTally(Analyzer):
    """Per-type, per-source, per-target probe counts (Figures 2-3)."""

    kind = "probe_tally"
    state_fields = ("count", "by_type", "src_ips", "by_server")

    def __init__(self) -> None:
        self.count = 0
        self.by_type: Dict[str, int] = {}
        self.src_ips: Set[str] = set()
        self.by_server: Dict[str, int] = {}

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "probe":
            return
        self.count += 1
        probe_type = event["probe_type"]
        self.by_type[probe_type] = self.by_type.get(probe_type, 0) + 1
        self.src_ips.add(event["src_ip"])
        server = event["server_ip"]
        self.by_server[server] = self.by_server.get(server, 0) + 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ProbeTally)
        self.count += other.count
        for key, n in other.by_type.items():
            self.by_type[key] = self.by_type.get(key, 0) + n
        self.src_ips.update(other.src_ips)
        for key, n in other.by_server.items():
            self.by_server[key] = self.by_server.get(key, 0) + n

    def finalize(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "by_type": dict(sorted(self.by_type.items())),
            "unique_src_ips": len(self.src_ips),
            "by_server": dict(sorted(self.by_server.items())),
        }


@register_analyzer
class FlaggedConnections(Analyzer):
    """How many feature packets the passive detector flagged."""

    kind = "flagged_connections"
    state_fields = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") == "flow.flagged":
            self.count += 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, FlaggedConnections)
        self.count += other.count

    def finalize(self) -> Dict[str, Any]:
        return {"count": self.count}


@register_analyzer
class ReplayDelays(Analyzer):
    """Figure 7: replay delays, first-occurrence-per-payload and overall.

    First-occurrence is keyed on the replayed payload bytes; events
    arrive in simulation-time order, so "first" matches the batch
    computation over a time-sorted probe log.
    """

    kind = "replay_delays"
    state_fields = ("first", "all")

    def __init__(self) -> None:
        self.first: Dict[str, float] = {}
        self.all: List[float] = []

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "probe":
            return
        delay = event.get("delay")
        if delay is None:
            return
        self.all.append(float(delay))
        key = _b64e(event["payload"])
        if key not in self.first:
            self.first[key] = float(delay)

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ReplayDelays)
        self.all.extend(other.all)
        for key, delay in other.first.items():
            if key not in self.first:
                self.first[key] = delay

    def finalize(self) -> Dict[str, Any]:
        return {"first": series(self.first.values()), "all": series(self.all)}


@register_analyzer
class BlockEvents(Analyzer):
    """§6 block-rule installations, in event order."""

    kind = "block_events"
    state_fields = ("events",)

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "block":
            return
        self.events.append({
            "time": event["time"],
            "ip": event["ip"],
            "port": event["port"],
            "unblock_time": event["unblock_time"],
        })

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, BlockEvents)
        self.events.extend(other.events)

    def finalize(self) -> Dict[str, Any]:
        return {"count": len(self.events), "events": list(self.events)}


@register_analyzer
class ProbeBlockDelays(Analyzer):
    """Detection-to-blocking timelines per endpoint (Fifield & Tsai).

    Tracks, keyed on the responder/server IP, the first time a flow to
    the endpoint was flagged, the first active probe it received, and
    the time its block rule landed — then reports the three derived
    delay series (flag→probe, probe→block, flag→block).  State is one
    float per endpoint per table and merging is min-combination, so
    shard order never changes the result.
    """

    kind = "probe_block_delays"
    state_fields = ("first_flagged", "first_probe", "blocked_at")

    def __init__(self) -> None:
        self.first_flagged: Dict[str, float] = {}
        self.first_probe: Dict[str, float] = {}
        self.blocked_at: Dict[str, float] = {}

    @staticmethod
    def _note(table: Dict[str, float], ip: str, time: Any) -> None:
        t = float(time)
        prev = table.get(ip)
        if prev is None or t < prev:
            table[ip] = t

    def observe(self, event: Mapping[str, Any]) -> None:
        kind = event.get("kind")
        if kind == "flow.flagged":
            self._note(self.first_flagged, event["responder_ip"], event["time"])
        elif kind == "probe":
            self._note(self.first_probe, event["server_ip"], event["time"])
        elif kind == "block":
            self._note(self.blocked_at, event["ip"], event["time"])

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ProbeBlockDelays)
        for mine, theirs in ((self.first_flagged, other.first_flagged),
                             (self.first_probe, other.first_probe),
                             (self.blocked_at, other.blocked_at)):
            for ip, t in theirs.items():
                self._note(mine, ip, t)

    def finalize(self) -> Dict[str, Any]:
        endpoints = {
            ip: {
                "flagged_at": self.first_flagged.get(ip),
                "first_probe_at": self.first_probe.get(ip),
                "blocked_at": self.blocked_at.get(ip),
            }
            for ip in sorted(set(self.first_flagged)
                             | set(self.first_probe) | set(self.blocked_at))
        }
        flag_to_probe = [self.first_probe[ip] - self.first_flagged[ip]
                         for ip in sorted(self.first_probe)
                         if ip in self.first_flagged]
        probe_to_block = [self.blocked_at[ip] - self.first_probe[ip]
                          for ip in sorted(self.blocked_at)
                          if ip in self.first_probe]
        flag_to_block = [self.blocked_at[ip] - self.first_flagged[ip]
                         for ip in sorted(self.blocked_at)
                         if ip in self.first_flagged]
        return {
            "endpoints": endpoints,
            "blocked": len(self.blocked_at),
            "flag_to_probe": series(flag_to_probe),
            "probe_to_block": series(probe_to_block),
            "flag_to_block": series(flag_to_block),
        }


@register_analyzer
class VerdictRecords(Analyzer):
    """Detector-pipeline verdicts (flagged feature packets), by stage.

    Consumes the ``verdict`` records the reaction layer emits alongside
    the legacy ``flow.flagged`` events.  Tracks the deciding stage kind,
    score statistics, and per-responder counts — the observables a
    detector-ensemble ablation compares across pipelines.
    """

    kind = "verdict_records"
    state_fields = ("count", "by_stage", "scores", "by_server")

    def __init__(self, per_server_cap: int = 1024) -> None:
        self.per_server_cap = per_server_cap
        self.count = 0
        self.by_stage: Dict[str, int] = {}
        self.scores: List[float] = []   # sufficient stats kept small below
        self.by_server: Dict[str, int] = {}

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "verdict":
            return
        self.count += 1
        stage = str(event.get("stage", ""))
        self.by_stage[stage] = self.by_stage.get(stage, 0) + 1
        self.scores.append(float(event.get("score", 0.0)))
        server = f"{event.get('responder_ip')}:{event.get('responder_port')}"
        if server in self.by_server or len(self.by_server) < self.per_server_cap:
            self.by_server[server] = self.by_server.get(server, 0) + 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, VerdictRecords)
        self.count += other.count
        for stage, n in other.by_stage.items():
            self.by_stage[stage] = self.by_stage.get(stage, 0) + n
        self.scores.extend(other.scores)
        for server, n in other.by_server.items():
            if server in self.by_server or len(self.by_server) < self.per_server_cap:
                self.by_server[server] = self.by_server.get(server, 0) + n

    def finalize(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "by_stage": dict(sorted(self.by_stage.items())),
            "scores": series(self.scores),
            "by_server": dict(sorted(self.by_server.items())),
        }


@register_analyzer
class FlowCensus(Analyzer):
    """Aggregate census of ``scale.flow`` records (the scale-1m scenario).

    Deliberately integer-only and order-insensitive: every field is a
    count, so merging shard states is plain addition and the merged
    result is byte-identical to the serial run no matter how the flow
    space was partitioned.  (List- or float-accumulating analyzers like
    :class:`VerdictRecords` cannot make that promise — their state
    depends on observation order.)
    """

    kind = "flow_census"
    state_fields = ("flows", "flagged", "by_port", "by_stage", "entropy_hist")

    def __init__(self, bins: int = 16) -> None:
        self.bins = int(bins)
        self.flows = 0
        self.flagged = 0
        # responder port -> [flows, flagged]
        self.by_port: Dict[str, List[int]] = {}
        self.by_stage: Dict[str, int] = {}
        self.entropy_hist = [0] * self.bins

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "scale.flow":
            return
        self.flows += 1
        flagged = bool(event.get("flagged"))
        port = str(event.get("port"))
        tally = self.by_port.get(port)
        if tally is None:
            tally = self.by_port[port] = [0, 0]
        tally[0] += 1
        if flagged:
            self.flagged += 1
            tally[1] += 1
            stage = str(event.get("stage", ""))
            self.by_stage[stage] = self.by_stage.get(stage, 0) + 1
        entropy = float(event.get("entropy", 0.0))
        index = int(entropy / 8.0 * self.bins)
        self.entropy_hist[min(self.bins - 1, max(0, index))] += 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, FlowCensus)
        self.flows += other.flows
        self.flagged += other.flagged
        for port, (total, hits) in other.by_port.items():
            tally = self.by_port.get(port)
            if tally is None:
                self.by_port[port] = [total, hits]
            else:
                tally[0] += total
                tally[1] += hits
        for stage, n in other.by_stage.items():
            self.by_stage[stage] = self.by_stage.get(stage, 0) + n
        for i, n in enumerate(other.entropy_hist):
            self.entropy_hist[i] += n

    def finalize(self) -> Dict[str, Any]:
        return {
            "flows": self.flows,
            "flagged": self.flagged,
            "by_port": {port: list(tally)
                        for port, tally in sorted(self.by_port.items())},
            "by_stage": dict(sorted(self.by_stage.items())),
            "entropy_hist": list(self.entropy_hist),
        }


# --------------------------------------------------------- capture analyzers


@register_analyzer
class SynCount(Analyzer):
    """Received-SYN counter for one tapped host capture."""

    kind = "syn_count"
    state_fields = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "capture" or event["sent"]:
            return
        if event["segment"].is_syn:
            self.count += 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, SynCount)
        self.count += other.count

    def finalize(self) -> Dict[str, Any]:
        return {"count": self.count}


@register_analyzer
class ProbeSynTimes(Analyzer):
    """§7.1 observable: prober SYN arrival times at one tapped server.

    A prober SYN is any received SYN whose source is neither the
    experiment's own client nor outside the known prober AS prefixes.
    ``finalize`` derives the Figure 11 series: hourly counts over
    ``duration`` and probes/hour inside vs outside the ``windows``.
    """

    kind = "probe_syn_times"
    state_fields = ("times",)

    def __init__(self, client_ip: str = "", duration: float = 0.0,
                 windows: Sequence[Sequence[float]] = ()) -> None:
        self.client_ip = client_ip
        self.duration = float(duration)
        self.windows: List[List[float]] = [[float(s), float(e)]
                                           for s, e in windows]
        self.times: List[float] = []

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "capture" or event["sent"]:
            return
        seg = event["segment"]
        if not seg.is_syn or seg.src_ip == self.client_ip:
            return
        from ..net import lookup_asn

        if lookup_asn(seg.src_ip) is not None:
            self.times.append(float(event["time"]))

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ProbeSynTimes)
        self.times.extend(other.times)

    def finalize(self) -> Dict[str, Any]:
        hours = int(self.duration // 3600) + 1
        hourly = [0] * hours
        for t in self.times:
            if t < self.duration:
                hourly[int(t // 3600)] += 1
        active_seconds = sum(end - start for start, end in self.windows)
        inactive_seconds = self.duration - active_seconds

        def in_window(t: float) -> bool:
            return any(start <= t < end for start, end in self.windows)

        active = sum(1 for t in self.times if in_window(t))
        inactive = sum(1 for t in self.times
                       if t < self.duration and not in_window(t))
        return {
            "count": len(self.times),
            "hourly": hourly,
            "rate_active": (active / (active_seconds / 3600.0)
                            if active_seconds else 0.0),
            "rate_inactive": (inactive / (inactive_seconds / 3600.0)
                              if inactive_seconds else 0.0),
        }


@register_analyzer
class CaptureProbeClassifier(Analyzer):
    """§3.2 classification from one tapped server capture, online.

    Streams the server's traffic once, retaining only the sufficient
    statistics of the batch method: the deduplicated ground-truth
    payloads the experiment's own clients sent, plus per-foreign-
    connection SYN metadata and first data payload.  Classification is
    deferred to ``finalize`` so every probe is diffed against the same
    ground-truth set a pass over the buffered capture would see —
    byte-identical output without buffering the capture.
    """

    kind = "capture_probes"

    def __init__(self, server_port: int = 0,
                 client_ips: Iterable[str] = ()) -> None:
        self.server_port = int(server_port)
        self.client_ips = set(client_ips)
        self.legit: List[bytes] = []
        self._legit_seen: Set[bytes] = set()
        # (src_ip, src_port) -> (time, tsval, ttl) / (time, payload)
        self.syn_meta: Dict[Tuple[str, int],
                            Tuple[float, Optional[int], Optional[int]]] = {}
        self.first_payload: Dict[Tuple[str, int], Tuple[float, bytes]] = {}

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "capture" or event["sent"]:
            return
        seg = event["segment"]
        if seg.dst_port != self.server_port:
            return
        if seg.src_ip in self.client_ips:
            if seg.is_data:
                payload = bytes(seg.payload)
                # Duplicates cannot change a first-match classification;
                # dropping them keeps the ground-truth list at one entry
                # per distinct payload.
                if payload not in self._legit_seen:
                    self._legit_seen.add(payload)
                    self.legit.append(payload)
            return
        key = (seg.src_ip, seg.src_port)
        if seg.is_syn and key not in self.syn_meta:
            self.syn_meta[key] = (float(event["time"]), seg.tsval, seg.ttl)
        elif seg.is_data and key not in self.first_payload:
            self.first_payload[key] = (float(event["time"]), bytes(seg.payload))

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, CaptureProbeClassifier)
        for payload in other.legit:
            if payload not in self._legit_seen:
                self._legit_seen.add(payload)
                self.legit.append(payload)
        for key, meta in other.syn_meta.items():
            self.syn_meta.setdefault(key, meta)
        for key, fp in other.first_payload.items():
            self.first_payload.setdefault(key, fp)

    def probes(self) -> List[ObservedProbe]:
        """The reconstructed probe list, classified against ground truth."""
        out: List[ObservedProbe] = []
        by_len: Dict[int, List[bytes]] = {}
        for legit in self.legit:
            by_len.setdefault(len(legit), []).append(legit)
        for key, (time, payload) in sorted(self.first_payload.items(),
                                           key=lambda kv: kv[1][0]):
            probe_type, matched = classify_payload(payload, by_len.get(len(payload), ()))
            meta = self.syn_meta.get(key)
            out.append(ObservedProbe(
                time=time,
                src_ip=key[0],
                src_port=key[1],
                dst_port=self.server_port,
                payload=payload,
                probe_type=probe_type,
                matched_payload=matched,
                syn_tsval=meta[1] if meta else None,
                syn_ttl=meta[2] if meta else None,
            ))
        return out

    def finalize(self) -> Dict[str, Any]:
        by_type: Dict[str, int] = {}
        probes = self.probes()
        for probe in probes:
            by_type[probe.probe_type] = by_type.get(probe.probe_type, 0) + 1
        return {"count": len(probes), "by_type": dict(sorted(by_type.items()))}

    def state_dict(self) -> Dict[str, Any]:
        return {
            "legit": [_b64e(p) for p in self.legit],
            "syn_meta": {f"{ip}|{port}": [t, tsval, ttl]
                         for (ip, port), (t, tsval, ttl)
                         in self.syn_meta.items()},
            "first_payload": {f"{ip}|{port}": [t, _b64e(p)]
                              for (ip, port), (t, p)
                              in self.first_payload.items()},
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.legit = [_b64d(s) for s in state.get("legit") or []]
        self._legit_seen = set(self.legit)
        self.syn_meta = {}
        for key, (t, tsval, ttl) in (state.get("syn_meta") or {}).items():
            ip, port = key.rsplit("|", 1)
            self.syn_meta[(ip, int(port))] = (float(t), tsval, ttl)
        self.first_payload = {}
        for key, (t, payload) in (state.get("first_payload") or {}).items():
            ip, port = key.rsplit("|", 1)
            self.first_payload[(ip, int(port))] = (float(t), _b64d(payload))


@register_analyzer
class RandomDataStats(Analyzer):
    """§4.1 reductions: trigger lengths, replay lengths, Figure 9 ratios.

    Observes workload ``payload`` ground truth and ``probe`` events; the
    per-payload entropy map is the only payload-keyed state and holds
    one float per distinct legitimate payload.
    """

    kind = "random_data"
    state_fields = ("connections", "trigger_lengths", "replay_lengths",
                    "legit_bins", "replay_bins", "entropy_of")

    def __init__(self, bins: int = 8) -> None:
        self.bins = int(bins)
        self.connections = 0
        self.trigger_lengths: List[int] = []
        self.replay_lengths: List[int] = []
        self.legit_bins = [0] * self.bins
        self.replay_bins = [0] * self.bins
        self.entropy_of: Dict[str, float] = {}

    def _bin(self, entropy: float) -> int:
        return min(self.bins - 1, int(entropy / 8.0 * self.bins))

    def observe(self, event: Mapping[str, Any]) -> None:
        kind = event.get("kind")
        if kind == "payload":
            from ..gfw import shannon_entropy

            payload = event["payload"]
            entropy = shannon_entropy(payload)
            self.entropy_of[_b64e(payload)] = entropy
            self.legit_bins[self._bin(entropy)] += 1
            self.trigger_lengths.append(len(payload))
            self.connections += 1
        elif kind == "probe" and event.get("is_replay"):
            self.replay_lengths.append(len(event["payload"]))
            source = event.get("source_payload")
            if source is None:
                return
            entropy = self.entropy_of.get(_b64e(source))
            if entropy is None:
                from ..gfw import shannon_entropy

                entropy = shannon_entropy(source)
            self.replay_bins[self._bin(entropy)] += 1

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, RandomDataStats)
        self.connections += other.connections
        self.trigger_lengths.extend(other.trigger_lengths)
        self.replay_lengths.extend(other.replay_lengths)
        for i, n in enumerate(other.legit_bins):
            self.legit_bins[i] += n
        for i, n in enumerate(other.replay_bins):
            self.replay_bins[i] += n
        self.entropy_of.update(other.entropy_of)

    def finalize(self) -> Dict[str, Any]:
        ratio = []
        for i in range(self.bins):
            center = (i + 0.5) * 8.0 / self.bins
            legit = self.legit_bins[i]
            ratio.append([center,
                          self.replay_bins[i] / legit if legit else 0.0])
        return {
            "connections": self.connections,
            "replays": len(self.replay_lengths),
            "trigger_lengths": series(self.trigger_lengths),
            "replay_lengths": series(self.replay_lengths),
            "ratio_by_entropy": ratio,
        }


# ------------------------------------------------------ statistics analyzers


@register_analyzer
class EcdfAnalyzer(Analyzer):
    """ECDF quantiles of one numeric field of one event kind."""

    kind = "ecdf"
    state_fields = ("values",)

    DEFAULT_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)

    def __init__(self, event: str = "probe", field: str = "delay",
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.event = event
        self.field = field
        self.quantiles = [float(q) for q in quantiles]
        self.values: List[float] = []

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != self.event:
            return
        value = event.get(self.field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.values.append(float(value))

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, EcdfAnalyzer)
        self.values.extend(other.values)

    def finalize(self) -> Dict[str, Any]:
        if not self.values:
            return {"count": 0}
        ecdf = ECDF(self.values)
        return {
            "count": len(self.values),
            "min": ecdf.min,
            "max": ecdf.max,
            "quantiles": {f"{q:g}": ecdf.quantile(q) for q in self.quantiles},
        }


@register_analyzer
class ProberFingerprint(Analyzer):
    """§3.4 fingerprints from the probe stream: TSval processes and ports."""

    kind = "fingerprint"
    state_fields = ("points", "ports")

    def __init__(self, rates: Sequence[float] = (250.0, 1000.0, 1009.0)) -> None:
        self.rates = [float(r) for r in rates]
        self.points: List[List[float]] = []   # [time, tsval]
        self.ports: List[int] = []

    def observe(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "probe":
            return
        self.points.append([float(event["time"]), int(event["tsval"])])
        self.ports.append(int(event["src_port"]))

    def merge(self, other: Analyzer) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ProberFingerprint)
        self.points.extend(other.points)
        self.ports.extend(other.ports)

    def finalize(self) -> Dict[str, Any]:
        clusters = cluster_tsval_sequences(
            [(t, int(v)) for t, v in self.points], rates=self.rates)
        return {
            "points": len(self.points),
            "clusters": [{"rate_hz": c.rate_hz, "size": c.size}
                         for c in clusters],
            "ports": port_statistics(self.ports) if self.ports else None,
        }
