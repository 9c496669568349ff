"""The runtime spine: scenario registry, runner, cache, instrumentation.

``repro.runtime`` is the layer every harness goes through:

* :mod:`~repro.runtime.events` — the instrumentation bus each
  :class:`~repro.net.sim.Simulator` carries;
* :mod:`~repro.runtime.scenario` — declarative scenario specs and the
  structured :class:`RunResult` schema;
* :mod:`~repro.runtime.cache` — the on-disk result cache plus run
  manifests, keyed on (scenario, params, seed, code fingerprint);
* :mod:`~repro.runtime.runner` — :class:`JobSpec` execution: one unit
  of work (scenario, seed, shard) fanned out over seeds × shards,
  serial or parallel, with deterministic merge;
* :mod:`~repro.runtime.scenarios` — builtin registrations (imported
  lazily the first time the registry is consulted).

Quick use::

    from repro.runtime import JobSpec, execute_job, run_scenario
    result = run_scenario("sink", seed=3, overrides={"connections": 500})
    sweep = execute_job(JobSpec("brdgrd", seeds=tuple(range(8)), jobs=4))
"""

from .cache import ResultCache, code_fingerprint, default_cache_root
from .events import (
    EventBus,
    RecordForwarder,
    install_record_tap,
    remove_record_tap,
    sanitize_record,
)
from .runner import (
    JobResult,
    JobSpec,
    JobSpecError,
    ShardedResult,
    execute_job,
    merge_results,
    run_artifact,
    run_scenario,
    run_sharded,
)
from .scenario import (
    RunResult,
    Scenario,
    all_scenarios,
    canonical_json,
    canonical_params,
    get_scenario,
    register,
    scenario_names,
)
from .sharding import (
    Sharder,
    ShardingError,
    derive_seed,
    flow_key,
    partition,
    shard_of,
)

__all__ = [
    "EventBus",
    "JobSpec",
    "JobSpecError",
    "JobResult",
    "RecordForwarder",
    "ResultCache",
    "RunResult",
    "Scenario",
    "ShardedResult",
    "Sharder",
    "ShardingError",
    "all_scenarios",
    "canonical_json",
    "canonical_params",
    "code_fingerprint",
    "default_cache_root",
    "derive_seed",
    "execute_job",
    "flow_key",
    "get_scenario",
    "install_record_tap",
    "merge_results",
    "partition",
    "register",
    "remove_record_tap",
    "run_artifact",
    "run_scenario",
    "run_sharded",
    "sanitize_record",
    "scenario_names",
    "shard_of",
]
