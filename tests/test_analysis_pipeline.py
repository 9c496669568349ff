"""Unit tests for the streaming analyzer protocol and pipeline wiring."""

import json

import pytest

from repro.analysis.pipeline import (
    AnalysisPipeline,
    Analyzer,
    EcdfAnalyzer,
    FlaggedConnections,
    ProbeSynTimes,
    ProbeTally,
    ProberFingerprint,
    RandomDataStats,
    analyzer_kinds,
    build_analyzer,
    merge_analysis,
    register_analyzer,
    restore_analyzer,
    series,
)
from repro.net import Flags, Segment
from repro.runtime.events import EventBus


def probe_event(i, probe_type="replay", delay=None):
    event = {
        "kind": "probe",
        "time": 10.0 * i,
        "src_ip": f"101.{i % 4}.0.9",
        "src_port": 30000 + i,
        "server_ip": "203.0.113.5",
        "server_port": 8388,
        "probe_type": probe_type,
        "is_replay": probe_type == "replay",
        "payload": bytes([i % 251]) * (40 + i % 7),
        "source_payload": bytes([i % 251]) * (40 + i % 7),
        "tsval": i * 1000,
    }
    if delay is not None:
        event["delay"] = delay
    return event


SERVER_IP = "203.0.113.5"
CLIENT_IP = "192.0.2.1"


def capture_event(time, segment):
    return {"kind": "capture", "host": "server", "time": time,
            "sent": False, "segment": segment}


def mixed_events(n):
    """Every event kind some analyzer reads, interleaved in time order."""
    events = []
    for i in range(n):
        t = 300.0 * i
        legit = bytes([i % 7]) * 30 + bytes(range(i % 11, 40))
        prober = f"175.42.{i % 3}.{i % 5}"   # inside a prober AS prefix
        events += [
            {"kind": "payload", "time": t, "payload": legit},
            probe_event(i, probe_type=("replay" if i % 3 else "rand"),
                        delay=float(i)),
            {"kind": "flow.flagged", "time": t, "initiator_ip": CLIENT_IP,
             "initiator_port": 40000 + i, "responder_ip": f"203.0.113.{i % 4}",
             "responder_port": 8388, "length": len(legit)},
            {"kind": "verdict", "time": t, "responder_ip": f"203.0.113.{i % 3}",
             "responder_port": 8388, "score": i / n,
             "stage": "entropy" if i % 2 else "length"},
            {"kind": "scale.flow", "port": 443 + i % 2, "flagged": i % 3 == 0,
             "stage": "entropy", "entropy": (i % 8) + 0.5},
            capture_event(t, Segment(CLIENT_IP, SERVER_IP, 40000 + i, 8388,
                                     Flags.PSH | Flags.ACK, payload=legit)),
            capture_event(t + 1.0, Segment(prober, SERVER_IP, 30000 + i, 8388,
                                           Flags.SYN, tsval=250 * i,
                                           ttl=40 + i % 9)),
            capture_event(t + 2.0, Segment(
                prober, SERVER_IP, 30000 + i, 8388, Flags.PSH | Flags.ACK,
                payload=legit if i % 2 else bytes(221))),
        ]
        if i % 4 == 3:
            events.append({"kind": "block", "time": t + 3.0,
                           "ip": f"203.0.113.{i % 4}", "port": 8388,
                           "unblock_time": t + 3600.0})
    return events


# Non-default configs, so a config that fails to round-trip shows.
ROUND_TRIP_CONFIGS = {
    "capture_probes": {"server_port": 8388, "client_ips": [CLIENT_IP]},
    "ecdf": {"event": "probe", "field": "delay", "quantiles": [0.5, 0.9]},
    "fingerprint": {"rates": [250.0, 1000.0]},
    "flow_census": {"bins": 4},
    "probe_syn_times": {"client_ip": CLIENT_IP, "duration": 7200.0,
                        "windows": [[0.0, 3600.0]]},
    "random_data": {"bins": 4},
    "verdict_records": {"per_server_cap": 2},
}


# ---------------------------------------------------------------- registry


def test_registry_covers_builtin_analyzers():
    kinds = analyzer_kinds()
    for kind in ("probe_tally", "flagged_connections", "replay_delays",
                 "block_events", "syn_count", "probe_syn_times",
                 "capture_probes", "random_data", "ecdf", "fingerprint"):
        assert kind in kinds


def test_build_analyzer_unknown_kind():
    with pytest.raises(KeyError, match="unknown analyzer kind"):
        build_analyzer("nope")


def test_register_analyzer_requires_kind():
    with pytest.raises(ValueError):
        @register_analyzer
        class Nameless(Analyzer):
            pass


# ----------------------------------------------------- series / semantics


def test_series_empty_and_parity():
    assert series([]) == {"count": 0}
    odd = series([3.0, 1.0, 2.0])
    assert odd["median"] == 2.0 and odd["min"] == 1.0 and odd["max"] == 3.0
    even = series([4.0, 1.0, 2.0, 3.0])
    assert even["median"] == 2.5 and even["mean"] == 2.5


def test_state_round_trips_through_json():
    events = mixed_events(24)
    half = len(events) // 2
    assert set(ROUND_TRIP_CONFIGS) <= set(analyzer_kinds())
    for kind in analyzer_kinds():
        config = ROUND_TRIP_CONFIGS.get(kind)
        one, rest = build_analyzer(kind, config), build_analyzer(kind, config)
        for event in events[:half]:
            one.observe(event)
        for event in events[half:]:
            rest.observe(event)
        spec = json.loads(json.dumps({"analyzer": one.kind,
                                      "config": one.config(),
                                      "state": one.state_dict()}))
        frozen = json.dumps(spec, sort_keys=True)
        restored = restore_analyzer(spec)
        assert restored.config() == one.config(), kind
        assert restored.state_dict() == one.state_dict(), kind
        restored.merge(rest)
        one.merge(rest)
        assert restored.finalize() == one.finalize(), kind
        assert json.dumps(spec, sort_keys=True) == frozen, kind


def test_split_observe_then_merge_equals_single_pass():
    events = [probe_event(i, probe_type=("replay" if i % 3 else "rand"),
                          delay=float(i) * 0.5) for i in range(30)]
    for kind in ("probe_tally", "replay_delays", "random_data", "ecdf",
                 "fingerprint"):
        whole = build_analyzer(kind)
        left, right = build_analyzer(kind), build_analyzer(kind)
        for event in events:
            whole.observe(event)
        for event in events[:13]:
            left.observe(event)
        for event in events[13:]:
            right.observe(event)
        left.merge(right)
        assert left.finalize() == whole.finalize(), kind


def test_merge_rejects_kind_mismatch():
    with pytest.raises(TypeError, match="cannot merge"):
        ProbeTally().merge(FlaggedConnections())


def test_merge_rejects_config_mismatch():
    with pytest.raises(ValueError, match="bins"):
        RandomDataStats(bins=4).merge(RandomDataStats(bins=8))
    with pytest.raises(ValueError, match="quantiles"):
        EcdfAnalyzer(quantiles=(0.5,)).merge(EcdfAnalyzer())
    with pytest.raises(ValueError, match="windows"):
        ProbeSynTimes(windows=[(0.0, 3600.0)]).merge(ProbeSynTimes())


def test_ecdf_analyzer_quantiles():
    a = EcdfAnalyzer(event="probe", field="delay", quantiles=(0.5,))
    assert a.finalize() == {"count": 0}
    for i in range(1, 101):
        a.observe(probe_event(i, delay=float(i)))
    out = a.finalize()
    assert out["count"] == 100
    assert out["min"] == 1.0 and out["max"] == 100.0
    assert 49.0 <= out["quantiles"]["0.5"] <= 51.0


def test_fingerprint_analyzer_clusters_rates():
    a = ProberFingerprint()
    for i in range(50):
        a.observe({"kind": "probe", "time": float(i),
                   "tsval": i * 1000, "src_port": 30000 + i})
    out = a.finalize()
    assert len(a.points) == 50
    assert any(c["rate_hz"] == pytest.approx(1000.0, rel=0.05)
               for c in out["clusters"])


# ------------------------------------------------------- merge_analysis


def _section(count):
    tally = ProbeTally()
    for i in range(count):
        tally.observe(probe_event(i))
    return {"probes": {"analyzer": tally.kind, "config": tally.config(),
                       "state": tally.state_dict(),
                       "output": tally.finalize()}}


def test_merge_analysis_sums_states():
    merged = merge_analysis([_section(3), _section(5)])
    assert merged["probes"]["count"] == 8


def test_merge_analysis_empty_when_any_run_unanalyzed():
    assert merge_analysis([]) == {}
    assert merge_analysis([_section(3), {}]) == {}


# ------------------------------------------------------------- pipeline


def test_pipeline_attach_detach_and_memoized_outputs():
    bus = EventBus()
    pipeline = AnalysisPipeline({"probes": ProbeTally(),
                                 "flagged": FlaggedConnections()})
    assert not bus.wants_records
    pipeline.attach(bus)
    assert bus.wants_records
    bus.emit("probe", probe_event(0))
    bus.emit("flow.flagged", {"time": 1.0})
    first = pipeline.outputs()
    assert first["probes"]["count"] == 1
    assert first["flagged"]["count"] == 1
    # Memoized: later events do not change the finalized view.
    bus.emit("probe", probe_event(1))
    assert pipeline.outputs() is first
    pipeline.detach()
    assert not bus.wants_records
    payload = pipeline.payload()
    assert payload["probes"]["analyzer"] == "probe_tally"
    assert payload["probes"]["output"] == first["probes"]


def test_emit_without_subscribers_is_dropped():
    bus = EventBus()
    bus.emit("probe", {"payload": b"\x00"})  # no listeners, no error
    assert bus.snapshot()["counters"] == {}


# ------------------------------------------------------------ analyze CLI


def test_cli_analyze_round_trip(tmp_path, capsys):
    from repro.cli import main

    run_args = ["sink", "--seeds", "2",
                "--set", "connections=60", "--set", "duration=3600",
                "--cache-dir", str(tmp_path)]
    assert main(["run"] + run_args + ["--json"]) == 0
    merged_run = json.loads(capsys.readouterr().out)

    assert main(["analyze"] + run_args + ["--json"]) == 0
    analyzed = json.loads(capsys.readouterr().out)
    assert analyzed == merged_run["analysis"]
    assert analyzed["probes"]["count"] >= 0

    assert main(["analyze"] + run_args) == 0
    text = capsys.readouterr().out
    assert "re-finalized 2 cached seed(s)" in text
    assert "probes" in text


def test_cli_analyze_missing_cache(tmp_path, capsys):
    from repro.cli import main

    assert main(["analyze", "sink", "--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "no cached result" in err
