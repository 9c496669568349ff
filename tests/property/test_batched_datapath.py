"""Batched datapath invariants: batched == per-segment, byte for byte.

The burst datapath (host transmit batching, burst middlebox traversal,
weighted burst delivery events) is a pure performance transform of the
one-event-per-segment datapath that ``tests/net_reference.py`` keeps as
the oracle: every observable — captures, bus counters, flag decisions,
probe logs, delivery and drop counts, canonical run payloads — must be
identical between the two, pristine or impaired.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Impairment
from repro.runtime import run_scenario
from repro.runtime.scenario import scenario_names

from ..net_reference import per_segment_tx
from .test_impairment_properties import _run_workload

# Small parameterizations per builtin scenario, tier-1 friendly.  A
# registry test below keeps this table complete: every builtin must be
# exercised on both datapaths.
SCENARIO_OVERRIDES = {
    "shadowsocks": {"connections_per_pair": 40, "duration": 21600.0,
                    "libev_pairs": 1, "outline_pairs": 1},
    "sink": {"connections": 150, "duration": 7200.0},
    "brdgrd": {"duration": 21600.0,
               "brdgrd_windows": [[3600.0, 10800.0]]},
    "blocking": {"connections_per_server": 30, "duration": 86400.0,
                 "sensitive_periods": [[21600.0, 43200.0]]},
    "probesim-grid": {"trials": 1, "profiles": ["ss-libev-3.1.3"],
                      "methods": ["aes-128-gcm"], "lengths": [1, 2, 50]},
    "probesim-replay": {"trials": 1,
                        "pairs": [["ss-libev-3.1.3", "aes-256-ctr"]]},
    "ablation-detector-features": {"samples": 50},
    "impairment-matrix": {"loss_rates": [0.0, 0.01], "reorder_rates": [0.0],
                          "connections": 5, "duration": 1800.0},
    "ablation-defense-matrix": {"connections": 4, "duration": 1800.0},
    "ablation-detector-ensemble": {
        "connections": 4, "duration": 1800.0,
        "cases": [["passive", {"kind": "passive", "base_rate": 1.0}],
                  ["entropy", {"kind": "entropy", "threshold": 7.2}]]},
    "scale-1m": {"flows": 2000, "block_size": 256},
    "quickstart": {"connections": 6},
    "tor-probing": {"connections": 4, "interval": 60.0, "duration": 3600.0},
}


def _run_canonical(name, seed=0):
    result = run_scenario(name, seed=seed, overrides=SCENARIO_OVERRIDES[name],
                          use_cache=False)
    return result.canonical_bytes()


def test_override_table_covers_every_builtin_scenario():
    assert set(SCENARIO_OVERRIDES) == set(scenario_names())


@pytest.mark.parametrize("name", sorted(SCENARIO_OVERRIDES))
def test_batched_equals_per_segment(name):
    # Zero-impairment runs of every builtin scenario must be
    # byte-identical on the batched and the per-segment datapath.
    batched = _run_canonical(name)
    with per_segment_tx():
        per_segment = _run_canonical(name)
    assert batched == per_segment


# ----------------------------------------------- impaired burst ordering


@given(loss=st.sampled_from([0.0, 0.02, 0.08]),
       reorder=st.sampled_from([0.0, 0.05, 0.2]),
       duplicate=st.sampled_from([0.0, 0.05]))
@settings(max_examples=8, deadline=None)
def test_impaired_burst_ordering_matches_per_segment(loss, reorder, duplicate):
    # Under loss/reorder/duplication the burst path falls back to
    # per-copy scheduling, drawing each segment's faults in burst order:
    # the RNG stream — and hence every retransmission, reordering, and
    # duplicate — must match the per-segment datapath exactly.
    imp = Impairment(loss=loss, reorder=reorder, duplicate=duplicate,
                     jitter=0.002)
    batched = _run_workload(imp)
    with per_segment_tx():
        per_segment = _run_workload(imp)
    assert batched == per_segment


def test_zero_impairment_batched_equals_absent_impairment_per_segment():
    # Cross-datapath *and* cross-impairment: an all-zero profile on the
    # batched path reproduces the pristine per-segment traces.
    batched = _run_workload(Impairment())
    with per_segment_tx():
        per_segment = _run_workload(None)
    assert batched == per_segment
