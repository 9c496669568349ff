"""Execute ``(scenario, params, seed)`` jobs: serial, parallel, cached.

The runner is the one place simulation work is launched from.  Every
entry point is built from the same three pieces:

* the **unit** (:func:`_execute`) — one scenario, one seed and an
  optional shard stamp.  It resolves the scenario in the registry,
  consults the on-disk :class:`~repro.runtime.cache.ResultCache` (keyed
  on scenario + canonical params + seed + code fingerprint) and skips
  the simulation on a hit; on a miss it empties every process-wide
  memo (:mod:`repro.memos`), builds the experiment, times it, snapshots
  the instrumentation bus, summarizes the artifact into a structured
  :class:`~repro.runtime.scenario.RunResult`, and writes result +
  manifest back to the cache;
* the **shard planner** (:func:`_plan_shards`) — splits one seed of a
  sharded run into per-shard units, or answers it from the cached
  merged result;
* the **fan-out** (:func:`_fan_out`) — runs a list of units in-process
  or across one :class:`concurrent.futures.ProcessPoolExecutor`,
  returning results in submission order.

:func:`execute_job` plans every (seed, shard) unit of a
:class:`JobSpec`, runs them all through one fan-out, merges shards per
seed and seeds with :func:`merge_results`.  :func:`run_scenario`,
:func:`run_artifact` and :func:`run_sharded` are single-seed views over
the same pieces.

Determinism contract: a scenario's builder must derive all randomness
from its params' ``seed`` field, which every harness in this repository
already does — so serial, parallel and sharded execution of the same
job produce identical :meth:`JobResult.canonical_bytes`.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import memos
from .cache import ResultCache, code_fingerprint
from .scenario import RunResult, Scenario, canonical_json, canonical_params, get_scenario
from .sharding import Sharder, ShardingError, fold_snapshots, partition

__all__ = [
    "JobResult",
    "JobSpec",
    "JobSpecError",
    "ShardedResult",
    "execute_job",
    "merge_results",
    "run_artifact",
    "run_scenario",
    "run_sharded",
]

# One unit of work: (scenario, seed, overrides, shard stamp or None).
_Unit = Tuple[str, int, Mapping[str, Any], Optional[Dict[str, Any]]]


# ------------------------------------------------------------ single jobs


def _stamped(params: Mapping[str, Any],
             stamp: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical ``params`` with execution-identity keys merged in."""
    merged = dict(params)
    merged.update(json.loads(canonical_json(dict(stamp))))
    return {key: merged[key] for key in sorted(merged)}


def _execute(name: str, seed: int, overrides: Optional[Mapping[str, Any]],
             cache: Optional[ResultCache], use_cache: bool,
             extra_params: Optional[Mapping[str, Any]] = None,
             ) -> Tuple[RunResult, Optional[Any]]:
    """Run one unit; returns (result, artifact) — artifact None on cache hit.

    ``extra_params`` are execution-identity keys (e.g. the shard stamp
    ``{"shards": {"count": N, "index": k}}``) merged into the canonical
    params dict *before* cache lookup/store, so results produced under
    different execution layouts can never satisfy each other's cache
    keys.
    """
    scenario = get_scenario(name)
    name = scenario.name  # canonicalize aliases so results/cache keys agree
    params = scenario.instantiate(seed, overrides)
    params_dict = canonical_params(params)
    if extra_params:
        params_dict = _stamped(params_dict, extra_params)
    fingerprint = code_fingerprint()

    if cache is not None and use_cache:
        cached = cache.load(name, params_dict, seed, fingerprint)
        if cached is not None:
            return cached, None

    # Every memo belongs to one unit: the build reads nothing an
    # earlier unit in this process left behind.
    memos.clear_all()
    started = time.perf_counter()
    artifact = scenario.build(params)
    # Round-trip through canonical JSON: fails fast on non-serialisable
    # payloads and makes a fresh result structurally identical (key order
    # included) to the same result loaded back from the cache.
    payload = json.loads(canonical_json(scenario.summarize(artifact)))
    events = json.loads(canonical_json(scenario.events_of(artifact)))
    analysis = (
        json.loads(canonical_json(scenario.analysis_of(artifact)))
        if scenario.analysis_of is not None else {}
    )
    result = RunResult(
        scenario=name,
        params=params_dict,
        seed=seed,
        payload=payload,
        events=events,
        wall_time=time.perf_counter() - started,
        fingerprint=fingerprint,
        analysis=analysis,
    )
    if cache is not None:
        cache.store(result)
    return result, artifact


def run_scenario(name: str, seed: int = 0,
                 overrides: Optional[Mapping[str, Any]] = None, *,
                 cache: Optional[ResultCache] = None,
                 use_cache: bool = True) -> RunResult:
    """Run (or fetch from cache) one job and return its structured result."""
    result, _ = _execute(name, seed, overrides, cache, use_cache)
    return result


def run_artifact(name: str, seed: int = 0,
                 overrides: Optional[Mapping[str, Any]] = None, *,
                 cache: Optional[ResultCache] = None,
                 ) -> Tuple[RunResult, Any]:
    """Run one job and return both the result and the live artifact.

    Always executes (the rich in-memory artifact cannot come from the
    JSON cache), but still writes result + manifest through ``cache`` so
    the run leaves the same auditable record.  This is the entry point
    for benchmarks that need the full experiment object.
    """
    return _execute(name, seed, overrides, cache, use_cache=False)


# ---------------------------------------------------------------- fan-out


def _unit_worker(job: Tuple[_Unit, Optional[str], bool]) -> Dict[str, Any]:
    """Top-level (picklable) worker: one unit in a pool process."""
    (name, seed, overrides, stamp), cache_root, use_cache = job
    cache = ResultCache(cache_root) if cache_root is not None else None
    result, _ = _execute(name, seed, overrides, cache, use_cache,
                         extra_params=stamp)
    return result.to_json_dict()


def _fan_out(units: Sequence[_Unit], jobs: int,
             cache: Optional[ResultCache], use_cache: bool,
             ) -> Tuple[List[RunResult], int]:
    """Run ``units``; returns their results and the processes that ran them.

    ``jobs <= 1`` (or a single unit) runs in-process, one unit after
    another, and counts as one process.  Otherwise one pool of
    ``min(jobs, len(units))`` processes runs every unit; results come
    back in submission order regardless of completion order, so what
    callers merge is identical either way.
    """
    workers = min(jobs, len(units))
    if workers <= 1:
        return [_execute(name, seed, overrides, cache, use_cache,
                         extra_params=stamp)[0]
                for name, seed, overrides, stamp in units], 1
    cache_root = str(cache.root) if cache is not None else None
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = [RunResult.from_json_dict(d) for d in pool.map(
            _unit_worker, [(unit, cache_root, use_cache) for unit in units])]
    if cache is not None:
        # Fold worker-side cache traffic into this process's tallies.
        for result in results:
            if result.cache_hit:
                cache.hits += 1
            else:
                cache.misses += 1
    return results, workers


def merge_results(results: Sequence[RunResult]) -> Dict[str, Any]:
    """Deterministically merge per-seed results into one document.

    Per-seed identities are kept in seed order; numeric payload scalars
    are additionally aggregated (mean/min/max) and event counters are
    summed, which is what figure-level consumers want from a sweep.

    When every result carries a streaming-analysis section, the
    serialized analyzer *states* are merged in seed order and
    re-finalized into one cross-seed ``analysis`` document — shards
    exchange sufficient statistics, never raw captures, so parallel and
    serial sweeps merge to identical bytes.
    """
    ordered = sorted(results, key=lambda r: r.seed)
    runs = [r.identity() for r in ordered]
    metrics: Dict[str, Dict[str, float]] = {}
    for key in sorted({name for r in ordered for name in r.payload}):
        values = [r.payload[key] for r in ordered
                  if isinstance(r.payload.get(key), (int, float))
                  and not isinstance(r.payload.get(key), bool)]
        if values and len(values) == len(ordered):
            metrics[key] = {
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
            }
    event_totals: Dict[str, int] = {}
    for r in ordered:
        for name, count in (r.events.get("counters") or {}).items():
            event_totals[name] = event_totals.get(name, 0) + int(count)
    # Imported lazily: repro.analysis pulls in the gfw/net stack, which
    # plain runtime users (and the events module they import) must not.
    from ..analysis.pipeline import merge_analysis

    analysis = merge_analysis([r.analysis for r in ordered])
    return {
        "scenario": ordered[0].scenario if ordered else None,
        "params": ordered[0].params if ordered else {},
        "seeds": [r.seed for r in ordered],
        "runs": runs,
        "metrics": metrics,
        "events": dict(sorted(event_totals.items())),
        "analysis": json.loads(canonical_json(analysis)),
    }


# ------------------------------------------------------- sharded execution


@dataclass
class ShardedResult:
    """One scenario run partitioned into flow shards and merged back.

    ``merged`` is the recombined :class:`RunResult`; its ``params``
    carry the shard layout (``{"shards": {"count", "layout"}}``) so the
    cache can never confuse it with a serial run.  ``shards`` holds the
    per-shard results (empty when ``merged`` came straight from the
    cache); ``layout`` maps shard index → owned unit labels; ``jobs``
    is the number of processes the shards ran on (0 when cached).
    """

    scenario: str
    merged: RunResult
    shards: List[RunResult]
    layout: List[List[str]]
    wall_time: float
    jobs: int

    def serial_identity(self) -> Dict[str, Any]:
        """The merged identity with the shard stamp stripped.

        Byte-comparing this against a serial run's ``identity()`` is the
        sharding correctness contract: everything except the layout
        bookkeeping must be identical.
        """
        ident = self.merged.identity()
        ident["params"] = {k: v for k, v in ident["params"].items()
                           if k != "shards"}
        return ident

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.serial_identity()).encode("utf-8")


def _sharded(name: str, shards: int) -> Tuple[Scenario, Sharder]:
    """Resolve a scenario for a ``shards``-way run, or raise ShardingError."""
    scenario = get_scenario(name)
    sharder = scenario.sharder
    if sharder is None:
        from .scenario import all_scenarios

        shardable = ", ".join(
            s.name for s in all_scenarios() if s.sharder is not None
        ) or "(none)"
        raise ShardingError(
            f"scenario {scenario.name!r} is not shardable "
            f"(no flow partitioner declared); shardable scenarios: {shardable}"
        )
    if shards < 1:
        raise ShardingError(f"shard count must be >= 1, got {shards}")
    return scenario, sharder


@dataclass
class _ShardPlan:
    """One seed of a sharded run: its shard units, or its cached merge."""

    seed: int
    params: Dict[str, Any]      # canonical params stamped with the layout
    labels: List[str]
    layout: List[List[str]]
    units: List[_Unit]
    cached: Optional[RunResult]


def _plan_shards(scenario: Scenario, sharder: Sharder, seed: int,
                 overrides: Mapping[str, Any], shards: int,
                 cache: Optional[ResultCache], use_cache: bool) -> _ShardPlan:
    """Partition one seed's units into shards, unless its merge is cached.

    Each non-empty shard becomes one unit: the scenario restricted to
    the shard's labels, stamped ``{"shards": {"count", "index"}}``.
    """
    params = scenario.instantiate(seed, overrides)
    labels = list(sharder.units(params))
    if not labels:
        raise ShardingError(
            f"scenario {scenario.name!r} has no shardable units under these params")
    layout = partition(labels, shards)
    stamped = _stamped(canonical_params(params),
                       {"shards": {"count": shards, "layout": layout}})
    if cache is not None and use_cache:
        cached = cache.load(scenario.name, stamped, seed, code_fingerprint())
        if cached is not None:
            return _ShardPlan(seed, stamped, labels, layout, [], cached)
    units: List[_Unit] = [
        (scenario.name, seed, {**overrides, **sharder.restrict(params, owned)},
         {"shards": {"count": shards, "index": index}})
        for index, owned in enumerate(layout) if owned
    ]
    return _ShardPlan(seed, stamped, labels, layout, units, None)


def _deep_union(base: Dict[str, Any], add: Mapping[str, Any],
                path: str = "") -> Dict[str, Any]:
    """Union shard payload slices; identical leaves tolerated, else error."""
    for key, value in add.items():
        here = f"{path}/{key}"
        if key not in base:
            base[key] = value
        elif isinstance(base[key], dict) and isinstance(value, Mapping):
            _deep_union(base[key], value, here)
        elif base[key] != value:
            raise ShardingError(
                f"shard payloads disagree at {here!r}: "
                f"{base[key]!r} != {value!r}"
            )
    return base


def _merge_cases(ordered: Sequence[RunResult], labels: Sequence[str],
                 ) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Recombine case-mode shards: union slices, re-fold unit buses.

    Every unit (case) ran in exactly one shard with its own bus; the
    serial run's top-level counters/scalars are the fold of per-unit
    snapshots in unit order, so replaying that fold over the union of
    shard-carried snapshots reproduces them byte-for-byte.
    """
    payload: Dict[str, Any] = {}
    analysis: Dict[str, Any] = {}
    units: Dict[str, Any] = {}
    for result in ordered:
        # Round-trip the slice so the union never aliases (and therefore
        # never mutates) a live shard result's own payload dict.
        _deep_union(payload, json.loads(canonical_json(result.payload)))
        for name, spec in result.analysis.items():
            if name in analysis:
                raise ShardingError(
                    f"analysis section {name!r} produced by two shards")
            analysis[name] = spec
        for label, snap in (result.events.get("units") or {}).items():
            if label in units:
                raise ShardingError(f"unit {label!r} executed by two shards")
            units[label] = snap
    missing = [label for label in labels if label not in units]
    if missing:
        raise ShardingError(f"units never executed by any shard: {missing}")
    events = fold_snapshots([units[label] for label in labels])
    events["units"] = {label: units[label] for label in labels}
    return payload, events, analysis


def _merge_flows(ordered: Sequence[RunResult], sharder: Sharder,
                 ) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Recombine flow-mode shards through analyzer state merging.

    Counters are integer sums (order-free); scalar series are rejected
    because their fold order across shards is not reproducible; the
    payload is re-derived from the merged analyzer outputs with the
    same function the serial summarizer uses.
    """
    from ..analysis.pipeline import merge_sections

    counters: Dict[str, int] = {}
    for result in ordered:
        if result.events.get("scalars"):
            names = sorted(result.events["scalars"])
            raise ShardingError(
                f"flow-sharded run emitted scalar series {names}; scalar "
                f"folds are order-dependent and cannot merge byte-identically"
            )
        for name, n in (result.events.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(n)
    events = {"counters": dict(sorted(counters.items())), "scalars": {}}

    sections = [result.analysis for result in ordered]
    for name in sections[0]:
        if any(later.get(name) is None for later in sections[1:]):
            raise ShardingError(f"shard missing analysis section {name!r}")
    merged = merge_sections(sections)
    if sharder.payload_from_analysis is None:
        raise ShardingError(
            "flows-mode sharder declares no payload_from_analysis")
    payload = sharder.payload_from_analysis(merged.outputs())
    return payload, events, merged.payload()


def _merge_shards(scenario: Scenario, sharder: Sharder, plan: _ShardPlan,
                  results: Sequence[RunResult], started: float,
                  cache: Optional[ResultCache]) -> RunResult:
    """Recombine one seed's shard results and cache the merged result."""
    if sharder.mode == "cases":
        payload, events, analysis = _merge_cases(results, plan.labels)
    else:
        payload, events, analysis = _merge_flows(results, sharder)
    merged = RunResult(
        scenario=scenario.name,
        params=plan.params,
        seed=plan.seed,
        payload=json.loads(canonical_json(payload)),
        events=json.loads(canonical_json(events)),
        wall_time=time.perf_counter() - started,
        fingerprint=code_fingerprint(),
        analysis=json.loads(canonical_json(analysis)),
    )
    if cache is not None:
        cache.store(merged)
    return merged


def run_sharded(name: str, seed: int = 0,
                overrides: Optional[Mapping[str, Any]] = None, *,
                shards: int, jobs: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                use_cache: bool = True) -> ShardedResult:
    """Partition one scenario across ``shards`` workers and merge back.

    The scenario must declare a :class:`~repro.runtime.sharding.Sharder`;
    its unit labels are assigned to shards by seed-stable
    :func:`~repro.runtime.sharding.flow_key` hashing, each non-empty
    shard runs the scenario restricted to its own units (in its own
    process when ``jobs > 1``), and the per-shard results recombine into
    one :class:`RunResult` byte-identical — modulo the recorded shard
    layout — with the serial run.

    ``jobs=None`` uses one process per non-empty shard, capped at the
    machine's CPU count; ``jobs<=1`` runs the shards sequentially
    in-process (still produces the identical merged result).
    """
    started = time.perf_counter()
    scenario, sharder = _sharded(name, shards)
    plan = _plan_shards(scenario, sharder, seed, dict(overrides or {}),
                        shards, cache, use_cache)
    if plan.cached is not None:
        return ShardedResult(
            scenario=scenario.name, merged=plan.cached, shards=[],
            layout=plan.layout, wall_time=time.perf_counter() - started,
            jobs=0,
        )
    if jobs is None:
        jobs = os.cpu_count() or 1  # the fan-out caps it at the shard count
    results, workers = _fan_out(plan.units, jobs, cache, use_cache)
    merged = _merge_shards(scenario, sharder, plan, results, started, cache)
    return ShardedResult(
        scenario=scenario.name,
        merged=merged,
        shards=results,
        layout=plan.layout,
        wall_time=merged.wall_time,
        jobs=workers,
    )


# ------------------------------------------------------------ job layer


class JobSpecError(ValueError):
    """A job specification that cannot be executed as requested."""


def _require_int(data: Mapping[str, Any], key: str, default: int) -> int:
    """``data[key]`` if it is an int (bools excluded), else JobSpecError."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{key!r} must be an int, got {value!r}")
    return value


@dataclass
class JobSpec:
    """One executable job description, shared by the CLI and the service.

    This is the serialization boundary of the runtime: a spec is plain
    JSON-able data (it travels in ``POST /jobs`` bodies and across the
    service's worker pool), and :func:`execute_job` turns it into a
    :class:`JobResult` with exactly the semantics of the equivalent
    ``python -m repro run`` invocation — ``shards=None`` is a plain
    multi-seed sweep, ``shards=N`` runs one sharded execution per seed
    and folds the merged per-seed results into the same sweep shape.
    """

    scenario: str
    seeds: Tuple[int, ...] = (0,)
    overrides: Dict[str, Any] = field(default_factory=dict)
    shards: Optional[int] = None
    jobs: int = 1
    use_cache: bool = True

    KEYS = ("scenario", "seeds", "overrides", "shards", "jobs", "use_cache")

    def __post_init__(self) -> None:
        self.seeds = tuple(int(s) for s in self.seeds)
        self.overrides = dict(self.overrides)
        if not self.scenario:
            raise JobSpecError("job spec needs a scenario name")
        if not self.seeds:
            raise JobSpecError("job spec needs at least one seed")
        if self.shards is not None and int(self.shards) < 1:
            raise JobSpecError(f"shards must be >= 1, got {self.shards}")
        if int(self.jobs) < 1:
            raise JobSpecError(f"jobs must be >= 1, got {self.jobs}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from untrusted JSON (the service's POST body).

        Accepts either an explicit ``seeds`` list or the CLI-shaped
        ``{"seeds": N, "seed_start": S}`` count form; rejects unknown
        keys so typos fail loudly instead of silently running the
        default sweep, and values of the wrong JSON type instead of
        coercing them.
        """
        if not isinstance(data, Mapping):
            raise JobSpecError(f"job spec must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls.KEYS) - {"seed_start"})
        if unknown:
            raise JobSpecError(
                f"unknown job spec keys {unknown}; valid: {sorted(cls.KEYS)}")
        scenario = data.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise JobSpecError("'scenario' must be a non-empty string")
        seeds = data.get("seeds", 1)
        start = _require_int(data, "seed_start", 0)
        if isinstance(seeds, bool):
            raise JobSpecError("'seeds' must be an int count or a list of ints")
        if isinstance(seeds, int):
            if seeds < 1:
                raise JobSpecError(f"'seeds' count must be >= 1, got {seeds}")
            seed_list = tuple(range(start, start + seeds))
        elif isinstance(seeds, (list, tuple)):
            if any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
                raise JobSpecError(f"'seeds' list must contain ints, got {seeds!r}")
            seed_list = tuple(seeds)
        else:
            raise JobSpecError("'seeds' must be an int count or a list of ints")
        overrides = data.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise JobSpecError("'overrides' must be an object")
        shards = data.get("shards")
        if shards is not None and (isinstance(shards, bool)
                                   or not isinstance(shards, int)):
            raise JobSpecError(f"'shards' must be an int or null, got {shards!r}")
        use_cache = data.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise JobSpecError(f"'use_cache' must be a bool, got {use_cache!r}")
        return cls(
            scenario=scenario,
            seeds=seed_list,
            overrides=dict(overrides),
            shards=shards,
            jobs=_require_int(data, "jobs", 1),
            use_cache=use_cache,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "overrides": json.loads(canonical_json(self.overrides)),
            "shards": self.shards,
            "jobs": self.jobs,
            "use_cache": self.use_cache,
        }


@dataclass
class JobResult:
    """The JSON-able outcome of one executed :class:`JobSpec`.

    ``merged`` is the deterministic merged-sweep document —
    byte-identical (via :meth:`canonical_bytes`) to what
    ``python -m repro run ... --json`` prints for the same spec; the
    rest is accounting the control plane reports and meters.  ``jobs``
    is the number of processes the job's units ran on (1 in-process).
    """

    spec: Dict[str, Any]
    merged: Dict[str, Any]
    wall_time: float
    jobs: int
    cache_hits: int
    cache_misses: int

    def canonical_bytes(self) -> bytes:
        """Deterministic bytes of the merged document (timing excluded)."""
        return canonical_json(self.merged).encode("utf-8")

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "merged": self.merged,
            "wall_time": self.wall_time,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        return cls(
            spec=dict(data["spec"]),
            merged=dict(data["merged"]),
            wall_time=float(data["wall_time"]),
            jobs=int(data["jobs"]),
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
        )


def execute_job(spec: JobSpec, *,
                cache: Optional[ResultCache] = None) -> JobResult:
    """Run one :class:`JobSpec` to completion and return its result.

    This is the single execution path beneath both front-ends: the CLI
    builds a spec from its flags, the service deserializes one from a
    POST body, and both get the same bytes for the same spec.

    Every (seed, shard) unit of the job runs through one fan-out.  With
    ``shards`` set, seeds whose merged result is cached are skipped,
    and ``jobs=1`` means auto fan-out (one process per non-empty shard
    of a seed, capped at the CPU count) — matching the CLI's
    ``--shards`` semantics, where ``--jobs`` only pins the pool size
    when it is greater than one.
    """
    started = time.perf_counter()
    if spec.shards is None:
        name = get_scenario(spec.scenario).name
        units: List[_Unit] = [(name, seed, spec.overrides, None)
                              for seed in spec.seeds]
        results, workers = _fan_out(units, spec.jobs, cache, spec.use_cache)
    else:
        scenario, sharder = _sharded(spec.scenario, spec.shards)
        plans = [_plan_shards(scenario, sharder, seed, spec.overrides,
                              spec.shards, cache, spec.use_cache)
                 for seed in spec.seeds]
        # Automatic width is today's per-seed one: a process per
        # non-empty shard, at most one per CPU.
        jobs = spec.jobs if spec.jobs > 1 else min(
            os.cpu_count() or 1, max(len(plan.units) for plan in plans))
        shard_results, workers = _fan_out(
            [unit for plan in plans for unit in plan.units],
            jobs, cache, spec.use_cache)
        pending = iter(shard_results)
        results = []
        for plan in plans:
            own = [next(pending) for _ in plan.units]
            results.append(plan.cached if plan.cached is not None else
                           _merge_shards(scenario, sharder, plan, own,
                                         started, cache))
    hits = sum(1 for r in results if r.cache_hit)
    return JobResult(
        spec=spec.to_dict(),
        merged=merge_results(results),
        wall_time=time.perf_counter() - started,
        jobs=workers,
        cache_hits=hits,
        cache_misses=len(results) - hits,
    )
