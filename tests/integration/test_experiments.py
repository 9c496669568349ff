"""Experiment harnesses produce the paper's qualitative results at small scale."""

import pytest

from repro.analysis import CaptureProbeClassifier
from repro.experiments import (
    BlockingExperimentConfig,
    BrdgrdExperimentConfig,
    ShadowsocksExperimentConfig,
    SinkExperimentConfig,
    run_blocking_experiment,
    run_brdgrd_experiment,
    run_shadowsocks_experiment,
    run_sink_experiment,
)
from repro.gfw import ProbeType
from repro.runtime import run_scenario


SMALL_SS = ShadowsocksExperimentConfig(connections_per_pair=120,
                                       duration=36 * 3600.0)


@pytest.fixture(scope="module")
def ss_result():
    return run_shadowsocks_experiment(SMALL_SS)


def test_shadowsocks_exp_probes_sent(ss_result):
    assert len(ss_result.probe_log) > 30
    assert ss_result.control_probe_count == 0


def test_shadowsocks_exp_replays_dominate(ss_result):
    counts = ss_result.probes_by_type
    assert counts.get(ProbeType.R1, 0) > counts.get(ProbeType.NR2, 0)


def test_shadowsocks_exp_stage2_only_outline(ss_result):
    for name, probes in ss_result.server_probes.items():
        types = {p.probe_type for p in probes}
        if name.startswith("outline"):
            assert types & {ProbeType.R3, ProbeType.R4}
        else:
            assert not types & {ProbeType.R3, ProbeType.R4, ProbeType.R5}


def test_shadowsocks_exp_server_side_classification_agrees(ss_result):
    """Server-capture classification reproduces the GFW-side probe log."""
    observed = sum(len(v) for v in ss_result.server_probes.values())
    unknown = sum(
        1 for probes in ss_result.server_probes.values()
        for p in probes if p.probe_type == "UNKNOWN"
    )
    assert observed > 0
    assert unknown / observed < 0.05


def test_shadowsocks_exp_delays_match_model(ss_result):
    first, all_delays = ss_result.replay_delays
    assert len(all_delays) >= len(first) > 0
    assert min(all_delays) >= 0.28


def test_sink_exp_1a_no_stage2():
    res = run_sink_experiment(
        SinkExperimentConfig.table4("1.a", connections=1500, duration=12 * 3600)
    )
    types = set(res.probes_by_type())
    assert types <= {ProbeType.R1, ProbeType.R2, ProbeType.NR2, ProbeType.NR3}
    assert ProbeType.R1 in types


def test_sink_exp_switch_triggers_stage2():
    """Exp 1.a -> 1.b: R3/R4 appear soon after the server starts responding."""
    res = run_sink_experiment(SinkExperimentConfig(
        mode="switch", connections=1500, duration=24 * 3600,
        switch_after=12 * 3600, seed=2,
    ))
    before = [r for r in res.probe_log if r.time_sent < 12 * 3600]
    after = [r for r in res.probe_log if r.time_sent >= 12 * 3600]
    assert not any(r.probe_type in (ProbeType.R3, ProbeType.R4) for r in before)
    assert any(r.probe_type in (ProbeType.R3, ProbeType.R4) for r in after)


def test_sink_exp_low_entropy_draws_fewer_probes():
    high = run_sink_experiment(
        SinkExperimentConfig.table4("1.a", connections=1200, duration=12 * 3600)
    )
    low = run_sink_experiment(
        SinkExperimentConfig.table4("2", connections=1200, duration=12 * 3600)
    )
    assert len(low.probe_log) < len(high.probe_log) / 2


def test_sink_exp_replay_lengths_in_band():
    res = run_sink_experiment(
        SinkExperimentConfig.table4("1.a", connections=1500, duration=12 * 3600)
    )
    lengths = res.replay_lengths()
    in_core = sum(1 for l in lengths if 160 <= l <= 700)
    assert in_core / len(lengths) > 0.8
    assert max(lengths) <= 999


def test_brdgrd_exp_probing_collapses():
    res = run_brdgrd_experiment(BrdgrdExperimentConfig(
        duration=24 * 3600.0,
        brdgrd_windows=((8 * 3600.0, 16 * 3600.0),),
    ))
    active, inactive = res.window_rates()
    assert inactive > 0
    assert active < inactive / 4
    assert len(res.control_syn_times) > 0


def test_blocking_exp_only_vulnerable_blocked():
    res = run_blocking_experiment(BlockingExperimentConfig())
    assert 0 < res.blocked_fraction < 0.5
    assert set(res.blocked_profiles) <= {"ssr", "ss-python", "outline-1.0.6"}
    # Everyone got probed, few got blocked — the §6 asymmetry.
    assert len(res.probes_per_server) == len(res.server_profiles)


def test_shadowsocks_scenario_classifies_each_capture_once(monkeypatch):
    """A scenario run classifies each server's probes in the finalize
    pass alone; ``server_probes`` is built only when read."""
    calls = {}
    probes = CaptureProbeClassifier.probes

    def counting(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return probes(self)

    monkeypatch.setattr(CaptureProbeClassifier, "probes", counting)
    result = run_scenario("shadowsocks", seed=3, use_cache=False,
                          overrides={"connections_per_pair": 12,
                                     "duration": 4 * 3600.0})
    assert len(result.payload["server_probes"]) == len(calls) == 3
    assert set(calls.values()) == {1}
