"""Property tests for flow-sharded single-scenario execution.

Three invariants anchor the sharding refactor:

1. **Seed-stable keying.**  :func:`~repro.runtime.sharding.flow_key` is
   a pure function of its arguments — never of ``PYTHONHASHSEED``, the
   interpreter run, or dict order — so shard assignment is identical
   across processes and machine restarts.
2. **Sharded == serial.**  Running any shardable scenario partitioned
   into N shards and merging the per-shard results must reproduce the
   serial run byte-for-byte (canonical JSON), modulo only the recorded
   shard layout in ``params``.
3. **Distinct cache identities.**  A cached serial result must never
   satisfy a ``--shards N`` request, and vice versa: the shard layout
   is part of the execution identity.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    JobSpec,
    ResultCache,
    ShardingError,
    execute_job,
    merge_results,
    run_scenario,
    run_sharded,
)
from repro.runtime.scenario import canonical_json, get_scenario
from repro.runtime.sharding import (
    derive_seed,
    flow_key,
    fold_snapshots,
    partition,
    shard_of,
)

# Deliberately small parameterizations (minutes of sim, thousands of
# flows) so the whole module stays tier-1 friendly.  Every scenario that
# declares a Sharder must appear here — a registry test enforces it.
SHARDABLE_OVERRIDES = {
    "probesim-grid": {"trials": 1, "profiles": ["ss-libev-3.1.3"],
                      "methods": ["aes-128-gcm", "aes-256-ctr"],
                      "lengths": [1, 2, 50]},
    "probesim-replay": {"trials": 1,
                        "pairs": [["ss-libev-3.1.3", "aes-256-ctr"],
                                  ["outline-1.0.7",
                                   "chacha20-ietf-poly1305"]]},
    "impairment-matrix": {"loss_rates": [0.0, 0.01],
                          "reorder_rates": [0.0],
                          "connections": 5, "duration": 1800.0},
    "ablation-defense-matrix": {"connections": 4, "duration": 1800.0},
    "ablation-detector-ensemble": {
        "connections": 4, "duration": 1800.0,
        "cases": [["passive", {"kind": "passive", "base_rate": 1.0}],
                  ["entropy", {"kind": "entropy", "threshold": 7.2}],
                  ["vmess", "vmess"]]},
    "scale-1m": {"flows": 2000, "block_size": 256},
}

# ------------------------------------------------------ seed-stable keys

# Golden values: these are the blake2b-derived keys as of the sharding
# module's introduction.  They must never change — cached shard layouts
# and cross-process shard assignment both depend on them.
GOLDEN_KEYS = {
    ("10.0.0.1", 1234, "203.0.113.5", 8388): 4042156279641814704,
    (0, 0): 6414683138966711611,
    ("block-00000",): 10014109999170049474,
    (b"bytes", 3.5, None, True, ("a", 1)): 2558566929059553529,
}


def test_flow_key_golden_values():
    for parts, expected in GOLDEN_KEYS.items():
        assert flow_key(*parts) == expected


def test_derive_seed_golden_value():
    assert derive_seed(7, "case-a") == 759313167
    assert 0 <= derive_seed(7, "case-a") < (1 << 31)


def test_partition_golden_layout():
    labels = [f"u{i}" for i in range(8)]
    assert partition(labels, 3) == [
        ["u5"], ["u0", "u1", "u3", "u4", "u6"], ["u2", "u7"]]


_SUBPROCESS_SNIPPET = """
from repro.runtime.sharding import flow_key, partition
print(flow_key('10.0.0.1', 1234, '203.0.113.5', 8388))
print(flow_key(0, 0))
print(partition(['u%d' % i for i in range(8)], 3))
"""


def _run_with_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SNIPPET],
                          capture_output=True, text=True, env=env,
                          check=True)
    return proc.stdout


def test_flow_key_stable_across_interpreter_restarts():
    """Satellite 1: identical shard assignment under any PYTHONHASHSEED.

    A fresh interpreter with randomized (and with pinned) string
    hashing must produce the same keys and the same partition as this
    process — i.e. ``flow_key`` never routes through ``hash()``.
    """
    outputs = {_run_with_hashseed(seed) for seed in ("0", "1", "random")}
    assert len(outputs) == 1
    lines = outputs.pop().strip().splitlines()
    assert int(lines[0]) == GOLDEN_KEYS[("10.0.0.1", 1234, "203.0.113.5",
                                         8388)]
    assert int(lines[1]) == GOLDEN_KEYS[(0, 0)]
    assert lines[2] == str(partition([f"u{i}" for i in range(8)], 3))


@given(parts=st.lists(
    st.one_of(st.integers(-2**40, 2**40), st.text(max_size=20),
              st.binary(max_size=20), st.booleans(), st.none(),
              st.floats(allow_nan=False)),
    min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_flow_key_is_deterministic_and_type_sensitive(parts):
    key = flow_key(*parts)
    assert key == flow_key(*parts)
    assert 0 <= key < (1 << 64)
    # Tuple nesting changes the encoding: key(a, b) != key((a, b)).
    assert flow_key(tuple(parts)) != key


@given(labels=st.lists(st.text(min_size=1, max_size=12), unique=True,
                       min_size=1, max_size=40),
       count=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_partition_covers_disjointly_in_order(labels, count):
    layout = partition(labels, count)
    assert len(layout) == count
    flat = [label for shard in layout for label in shard]
    assert sorted(flat) == sorted(labels)          # disjoint cover
    for index, shard in enumerate(layout):
        # Membership agrees with the key hash, order with the input.
        assert shard == [label for label in labels
                         if shard_of(flow_key(label), count) == index]


# ------------------------------------------------- sharded == serial

SHARD_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("name", sorted(SHARDABLE_OVERRIDES))
def test_sharded_merge_is_byte_identical_to_serial(name):
    """Satellite 3: serial == merged-sharded for every shardable builtin."""
    overrides = SHARDABLE_OVERRIDES[name]
    serial = run_scenario(name, seed=0, overrides=overrides,
                          use_cache=False)
    expected = canonical_json(serial.identity()).encode("utf-8")
    for shards in SHARD_COUNTS:
        sharded = run_sharded(name, seed=0, overrides=overrides,
                              shards=shards, jobs=1, use_cache=False)
        assert sharded.canonical_bytes() == expected, (
            f"{name} diverged at shards={shards}")


def test_sharded_multiprocess_matches_in_process():
    """The process-pool path merges to the same bytes as jobs=1."""
    overrides = SHARDABLE_OVERRIDES["scale-1m"]
    one = run_sharded("scale-1m", seed=0, overrides=overrides,
                      shards=2, jobs=1, use_cache=False)
    pooled = run_sharded("scale-1m", seed=0, overrides=overrides,
                         shards=2, jobs=2, use_cache=False)
    assert pooled.canonical_bytes() == one.canonical_bytes()
    assert pooled.merged.params["shards"]["count"] == 2


def test_seeds_by_shards_job_matches_per_seed_sharded_runs(tmp_path):
    """One pool runs every (seed, shard) unit of a job; pool workers take
    units of different seeds one after another, and the merged bytes
    must equal the per-seed in-process sharded runs."""
    overrides = SHARDABLE_OVERRIDES["scale-1m"]
    expected = merge_results([
        run_sharded("scale-1m", seed=seed, overrides=overrides,
                    shards=2, jobs=1, use_cache=False).merged
        for seed in (0, 1)])
    spec = JobSpec("scale-1m", seeds=(0, 1), shards=2, jobs=2,
                   overrides=overrides)
    assert execute_job(spec).canonical_bytes() \
        == canonical_json(expected).encode("utf-8")

    cache = ResultCache(tmp_path)
    first = execute_job(spec, cache=cache)
    assert (first.cache_hits, first.cache_misses) == (0, 2)
    again = execute_job(spec, cache=cache)
    assert (again.cache_hits, again.cache_misses) == (2, 0)
    assert again.canonical_bytes() == first.canonical_bytes()


def test_every_sharder_declaring_scenario_is_covered():
    from repro.runtime.scenario import all_scenarios

    shardable = {s.name for s in all_scenarios() if s.sharder is not None}
    assert shardable == set(SHARDABLE_OVERRIDES)


def test_non_shardable_scenario_raises():
    with pytest.raises(ShardingError, match="not shardable"):
        run_sharded("sink", shards=2, use_cache=False)
    with pytest.raises(ShardingError, match=">= 1"):
        run_sharded("scale-1m", shards=0, use_cache=False)


def test_layout_restriction_is_honoured_per_shard():
    """Each shard's world only executes (and reports) its own units."""
    overrides = SHARDABLE_OVERRIDES["ablation-detector-ensemble"]
    sharded = run_sharded("ablation-detector-ensemble", seed=0,
                          overrides=overrides, shards=2, jobs=1,
                          use_cache=False)
    for result, owned in zip(sharded.shards,
                             [s for s in sharded.layout if s]):
        assert sorted(result.events["units"]) == sorted(owned)
        assert sorted(result.payload["cases"]) == sorted(owned)


# ------------------------------------------------- cache-key isolation


def test_serial_cache_never_serves_sharded_requests(tmp_path):
    """Satellite 2: the shard layout is part of the cache identity."""
    overrides = SHARDABLE_OVERRIDES["scale-1m"]
    cache = ResultCache(tmp_path)
    serial = run_scenario("scale-1m", seed=0, overrides=overrides,
                          cache=cache, use_cache=True)
    assert not serial.cache_hit

    sharded = run_sharded("scale-1m", seed=0, overrides=overrides,
                          shards=2, jobs=1, cache=cache, use_cache=True)
    # Nothing the serial run cached may satisfy the sharded request:
    # not the merged result, not any per-shard job.
    assert not sharded.merged.cache_hit
    assert all(not r.cache_hit for r in sharded.shards)
    assert sharded.merged.params["shards"] == {
        "count": 2, "layout": sharded.layout}
    for result in sharded.shards:
        assert result.params["shards"]["count"] == 2

    # Re-running the same sharded request hits its own merged entry...
    again = run_sharded("scale-1m", seed=0, overrides=overrides,
                        shards=2, jobs=1, cache=cache, use_cache=True)
    assert again.merged.cache_hit
    assert again.canonical_bytes() == sharded.canonical_bytes()
    # ...a different layout misses it...
    other = run_sharded("scale-1m", seed=0, overrides=overrides,
                        shards=4, jobs=1, cache=cache, use_cache=True)
    assert not other.merged.cache_hit
    # ...and the serial entry is still served only to serial requests.
    serial_again = run_scenario("scale-1m", seed=0, overrides=overrides,
                                cache=cache, use_cache=True)
    assert serial_again.cache_hit
    assert "shards" not in serial_again.params


# ------------------------------------------------------- merge helpers


def test_fold_snapshots_reproduces_bus_fold():
    from repro.runtime.events import EventBus

    buses = []
    for i in range(3):
        bus = EventBus()
        bus.incr("n", i + 1)
        bus.observe("x", 0.1 * (i + 1))
        buses.append(bus)
    reference = EventBus()
    snaps = [bus.snapshot() for bus in buses]
    for bus in buses:
        reference.absorb(bus)
    folded = fold_snapshots(snaps)
    assert folded == json.loads(canonical_json(reference.snapshot()))


def test_flow_sharded_scalars_are_rejected():
    """Flows-mode merging refuses order-dependent scalar series."""
    from repro.runtime.runner import _merge_flows
    from repro.runtime.scenario import RunResult
    from repro.runtime.sharding import Sharder

    result = RunResult(
        scenario="scale-1m", params={}, seed=0, payload={},
        events={"counters": {}, "scalars": {"t": {"count": 1, "sum": 1.0,
                                                  "min": 1.0, "max": 1.0}}},
        wall_time=0.0, fingerprint="x", analysis={})
    sharder = get_scenario("scale-1m").sharder
    assert isinstance(sharder, Sharder)
    with pytest.raises(ShardingError, match="scalar"):
        _merge_flows([result], sharder)
