"""Receive-side batching invariants: batched RX == per-segment, byte for byte.

The batched receive path (``Host.deliver_burst`` → ``TcpConnection.
handle_burst`` → coalesced cumulative ACKs riding the return transmit
batch) is a pure performance transform, the receive-side twin of the
transmit batching pinned by ``test_batched_datapath``.  Under the
oracle's ``per_segment_rx`` (``tests/net_reference.py``) every arrival
takes ``handle_segment``, and all observables — captures, bus counters,
analyzer states, flag decisions, probe logs, canonical run payloads —
must be identical between the two, pristine or impaired.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Impairment
from repro.runtime.scenario import scenario_names

from ..net_reference import per_segment_rx
from .test_batched_datapath import SCENARIO_OVERRIDES, _run_canonical
from .test_impairment_properties import _run_workload


def test_override_table_covers_every_builtin_scenario():
    # The transmit-side suite owns the table; re-assert completeness here
    # so a new builtin scenario cannot silently skip the RX equivalence.
    assert set(SCENARIO_OVERRIDES) == set(scenario_names())


@pytest.mark.parametrize("name", sorted(SCENARIO_OVERRIDES))
def test_batched_rx_equals_per_segment(name):
    # Zero-impairment runs of every builtin scenario must be
    # byte-identical with and without the batched receive path.
    batched = _run_canonical(name)
    with per_segment_rx():
        per_segment = _run_canonical(name)
    assert batched == per_segment


# ----------------------------------------------- impaired burst ordering


@given(loss=st.sampled_from([0.0, 0.02, 0.08]),
       reorder=st.sampled_from([0.0, 0.05, 0.2]),
       duplicate=st.sampled_from([0.0, 0.05]))
@settings(max_examples=8, deadline=None)
def test_impaired_rx_matches_per_segment(loss, reorder, duplicate):
    # Impaired fabrics keep the sequence-checked per-segment receive
    # (handle_burst gates on conn.reliable), so the batched receive path
    # must reproduce every retransmission, reordering, and duplicate.
    imp = Impairment(loss=loss, reorder=reorder, duplicate=duplicate,
                     jitter=0.002)
    batched = _run_workload(imp)
    with per_segment_rx():
        per_segment = _run_workload(imp)
    assert batched == per_segment


def test_zero_impairment_batched_rx_equals_absent_impairment():
    # Cross-mode *and* cross-impairment: an all-zero profile under
    # batched RX reproduces the pristine per-segment traces.
    batched = _run_workload(Impairment())
    with per_segment_rx():
        per_segment = _run_workload(None)
    assert batched == per_segment
