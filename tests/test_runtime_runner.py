"""The runner: sweeps, deterministic merge, serial == parallel."""

from dataclasses import dataclass

import pytest

from repro.runtime import (
    JobSpec,
    ResultCache,
    RunResult,
    execute_job,
    merge_results,
    run_artifact,
)
from repro.runtime.scenario import Scenario, register, unregister

# A real (but scaled-down) builtin scenario: worker processes re-register
# builtins on import, so parallel sweeps can only exercise those.
CHEAP = ("ablation-detector-features", {"samples": 40})


@dataclass
class _ToyParams:
    seed: int = 0
    base: int = 100


@pytest.fixture
def toy_scenario():
    register(Scenario(
        name="_toy-runner",
        title="toy",
        params_type=_ToyParams,
        build=lambda p: {"value": p.base + p.seed},
        summarize=lambda artifact: artifact,
        events_of=lambda artifact: {"counters": {"toy.built": 1}},
    ))
    yield "_toy-runner"
    unregister("_toy-runner")


def test_serial_and_parallel_sweeps_byte_identical():
    """The tentpole determinism property: --jobs M never changes results."""
    name, overrides = CHEAP
    serial = execute_job(JobSpec(name, seeds=(0, 1, 2), overrides=overrides,
                                 jobs=1))
    parallel = execute_job(JobSpec(name, seeds=(0, 1, 2), overrides=overrides,
                                   jobs=2))
    assert serial.canonical_bytes() == parallel.canonical_bytes()
    assert [run["seed"] for run in parallel.merged["runs"]] == [0, 1, 2]


def test_parallel_sweep_uses_and_fills_cache(tmp_path):
    name, overrides = CHEAP
    cache = ResultCache(tmp_path)
    spec = JobSpec(name, seeds=(0, 1, 2), overrides=overrides, jobs=2)
    first = execute_job(spec, cache=cache)
    assert first.cache_misses == 3
    again = execute_job(spec, cache=cache)
    assert again.cache_hits == 3 and again.cache_misses == 0
    assert again.canonical_bytes() == first.canonical_bytes()


def test_sweep_results_come_back_in_seed_order(toy_scenario):
    job = execute_job(JobSpec(toy_scenario, seeds=(4, 1, 3)))
    assert job.spec["seeds"] == [4, 1, 3]                # submission order
    assert job.merged["seeds"] == [1, 3, 4]              # merge sorts
    assert [run["payload"]["value"] for run in job.merged["runs"]] \
        == [101, 103, 104]
    assert job.canonical_bytes() == execute_job(
        JobSpec(toy_scenario, seeds=(1, 3, 4))).canonical_bytes()


def test_merge_aggregates_metrics_and_events(toy_scenario):
    merged = execute_job(JobSpec(toy_scenario, seeds=(0, 1, 2))).merged
    assert merged["scenario"] == toy_scenario
    assert merged["metrics"]["value"] == {"mean": 101.0, "min": 100, "max": 102}
    assert merged["events"] == {"toy.built": 3}
    assert len(merged["runs"]) == 3


def test_merge_skips_non_numeric_and_partial_metrics():
    def make(seed, payload):
        return RunResult(scenario="s", params={}, seed=seed, payload=payload,
                         events={}, wall_time=0.0, fingerprint="f")

    merged = merge_results([
        make(0, {"n": 1, "name": "a", "flag": True, "partial": 5}),
        make(1, {"n": 3, "name": "b", "flag": False}),
    ])
    assert merged["metrics"] == {"n": {"mean": 2.0, "min": 1, "max": 3}}


def test_merge_empty():
    merged = merge_results([])
    assert merged["seeds"] == [] and merged["runs"] == []


def test_run_artifact_returns_live_object(tmp_path, toy_scenario):
    cache = ResultCache(tmp_path)
    result, artifact = run_artifact(toy_scenario, seed=2, cache=cache)
    assert artifact == {"value": 102}
    assert not result.cache_hit
    # It still records the run on disk...
    assert cache.load(result.scenario, result.params, result.seed,
                      result.fingerprint) is not None
    # ...and never serves the artifact from cache (always re-executes).
    result2, artifact2 = run_artifact(toy_scenario, seed=2, cache=cache)
    assert artifact2 == {"value": 102} and not result2.cache_hit


def test_unknown_scenario_fails_fast():
    with pytest.raises(KeyError):
        execute_job(JobSpec("no-such-scenario", seeds=(0, 1), jobs=2))
