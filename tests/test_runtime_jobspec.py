"""The JobSpec/JobResult layer shared by the CLI and the service."""

import os
from dataclasses import dataclass

import pytest

from repro.runtime import (
    JobSpec,
    JobSpecError,
    ResultCache,
    canonical_json,
    execute_job,
    merge_results,
    run_scenario,
)
from repro.runtime.scenario import Scenario, register, unregister


@dataclass
class _JobParams:
    seed: int = 0
    value: int = 3


@pytest.fixture
def job_scenario():
    register(Scenario(
        name="_toy-job",
        title="toy",
        params_type=_JobParams,
        build=lambda params: {"tripled": params.value * 3,
                              "seed": params.seed},
        summarize=lambda artifact: artifact,
        events_of=lambda artifact: {"counters": {"toy.built": 1}},
    ))
    yield "_toy-job"
    unregister("_toy-job")


# ------------------------------------------------------------- from_dict


def test_from_dict_seed_count_form():
    spec = JobSpec.from_dict({"scenario": "s", "seeds": 3, "seed_start": 5})
    assert spec.seeds == (5, 6, 7)
    assert spec.overrides == {}
    assert spec.shards is None and spec.jobs == 1 and spec.use_cache


def test_from_dict_seed_list_form():
    spec = JobSpec.from_dict({"scenario": "s", "seeds": [9, 2, 4]})
    assert spec.seeds == (9, 2, 4)


def test_from_dict_defaults_to_single_seed():
    assert JobSpec.from_dict({"scenario": "s"}).seeds == (0,)


@pytest.mark.parametrize("bad", [
    {},                                              # no scenario
    {"scenario": ""},                                # empty scenario
    {"scenario": 3},                                 # non-string scenario
    {"scenario": "s", "seeds": 0},                   # zero-count sweep
    {"scenario": "s", "seeds": True},                # bool is not a count
    {"scenario": "s", "seeds": ["x"]},               # non-int seed
    {"scenario": "s", "seeds": "3"},                 # stringly-typed count
    {"scenario": "s", "overrides": [1]},             # non-object overrides
    {"scenario": "s", "shards": 0},                  # shards below 1
    {"scenario": "s", "shards": "auto"},             # service takes ints only
    {"scenario": "s", "jobs": 0},                    # jobs below 1
    {"scenario": "s", "jobs": True},                 # bool is not a count
    {"scenario": "s", "sedes": 3},                   # typo'd key
    {"scenario": "s", "seed_start": "x"},            # non-int start
    {"scenario": "s", "seed_start": None},           # null start
    {"scenario": "s", "seed_start": 1.5},            # float start
    {"scenario": "s", "seeds": [True, 2.7]},         # bool/float seeds
    {"scenario": "s", "use_cache": "false"},         # stringly-typed bool
])
def test_from_dict_rejects_malformed_specs(bad):
    with pytest.raises(JobSpecError):
        JobSpec.from_dict(bad)


def test_spec_round_trips_through_to_dict():
    spec = JobSpec(scenario="s", seeds=(1, 2), overrides={"value": 9},
                   shards=4, jobs=2, use_cache=False)
    assert JobSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------- execute_job


def test_execute_job_matches_run_sweep(job_scenario):
    spec = JobSpec(scenario=job_scenario, seeds=(0, 1),
                   overrides={"value": 5}, use_cache=False)
    job = execute_job(spec)
    expected = merge_results([
        run_scenario(job_scenario, seed=seed, overrides={"value": 5},
                     use_cache=False)
        for seed in (0, 1)])
    assert job.canonical_bytes() == canonical_json(expected).encode("utf-8")
    doc = job.merged
    assert doc["seeds"] == [0, 1]
    assert doc["runs"][0]["payload"]["tripled"] == 15


def test_execute_job_counts_cache_traffic(tmp_path, job_scenario):
    cache = ResultCache(tmp_path)
    spec = JobSpec(scenario=job_scenario, seeds=(0,))
    first = execute_job(spec, cache=cache)
    second = execute_job(spec, cache=cache)
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert second.canonical_bytes() == first.canonical_bytes()


def test_job_result_round_trips_through_json(job_scenario):
    from repro.runtime.runner import JobResult

    spec = JobSpec(scenario=job_scenario, use_cache=False)
    job = execute_job(spec)
    clone = JobResult.from_json_dict(job.to_json_dict())
    assert clone.canonical_bytes() == job.canonical_bytes()
    assert clone.spec == spec.to_dict()


def test_job_reports_the_processes_it_ran_on(job_scenario):
    # A sharded job fans out automatically, one process per shard up to
    # the CPU count; one seed never leaves the process, whatever --jobs.
    sharded = execute_job(JobSpec(
        scenario="scale-1m", shards=2, use_cache=False,
        overrides={"flows": 1000, "block_size": 128}))
    assert sharded.jobs == min(2, os.cpu_count() or 1)
    single = execute_job(JobSpec(scenario=job_scenario, jobs=4,
                                 use_cache=False))
    assert single.jobs == 1
