"""Property tests for the streaming analysis pipeline.

Two invariants anchor the refactor:

1. **Streaming == batch.**  Every experiment summary computed
   incrementally by the :class:`~repro.analysis.pipeline.AnalysisPipeline`
   must be byte-identical (canonical JSON) to the post-hoc computation
   over buffered captures and probe logs (the batch oracle below).
2. **Parallel merge == serial.**  Sweeping a scenario across seeds with
   a process pool — where shards exchange serialized analyzer states,
   never raw captures — must merge to the same bytes as a serial sweep.
"""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ObservedProbe, classify_payload
from repro.analysis.pipeline import series
from repro.gfw import DetectorConfig
from repro.probesim import ProberSimulator
from repro.runtime import JobSpec, execute_job, get_scenario
from repro.runtime.scenario import canonical_json
from repro.runtime.topology import build_world
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.workloads import CurlDriver

# Deliberately small parameterizations: every scenario in minutes-of-sim
# rather than days, so the whole module stays tier-1 friendly.
CHEAP_OVERRIDES = {
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
    "impairment-matrix": {"loss_rates": [0.0], "reorder_rates": [0.0],
                          "connections": 5, "duration": 1800.0},
    "ablation-defense-matrix": {"connections": 4, "duration": 1800.0},
}


# ----------------------------------------------- the batch oracle
#
# Each experiment's summary recomputed from the post-hoc result
# accessors (probe log, buffered captures) instead of the streaming
# analyzers: the oracle the streaming summaries must match.


def _summarize_shadowsocks_batch(result) -> Dict[str, object]:
    first, all_delays = result.replay_delays
    return {
        "connections": result.connections_made,
        "flagged": result.world.gfw.flagged_connections,
        "probes": len(result.probe_log),
        "probes_by_type": dict(sorted(result.probes_by_type.items())),
        "unique_prober_ips": len(set(result.prober_ips)),
        "control_probes": result.control_probe_count,
        "first_replay_delays": series(first),
        "all_replay_delays": series(all_delays),
        "server_probes": {name: len(probes) for name, probes
                          in sorted(result.server_probes.items())},
    }


def _summarize_sink_batch(result) -> Dict[str, object]:
    replay_records = result.replay_records()
    return {
        "connections": len(result.sent_payloads),
        "probes": len(result.probe_log),
        "probes_by_type": dict(sorted(result.probes_by_type().items())),
        "replays": len(replay_records),
        "replay_lengths": series(result.replay_lengths()),
        "trigger_lengths": series(result.trigger_lengths),
        "replay_ratio_by_entropy": [
            [center, ratio]
            for center, ratio in result.replay_ratio_by_entropy()
        ],
    }


def _summarize_brdgrd_batch(result) -> Dict[str, object]:
    active, inactive = result.window_rates()
    return {
        "probe_syns": len(result.probe_syn_times),
        "control_syns": len(result.control_syn_times),
        "hourly_counts": result.hourly_counts(),
        "control_hourly_counts": result.hourly_counts(result.control_syn_times),
        "rate_active": active,
        "rate_inactive": inactive,
    }


def _summarize_blocking_batch(result) -> Dict[str, object]:
    blocked = {e.ip: e for e in result.block_events}
    servers = [
        {
            "ip": ip,
            "profile": profile,
            "probes": result.probes_per_server.get(ip, 0),
            "blocked": ip in blocked,
            "blocked_at": blocked[ip].time if ip in blocked else None,
            "by_ip": blocked[ip].port is None if ip in blocked else None,
        }
        for ip, profile in sorted(result.server_profiles.items())
    ]
    return {
        "servers": servers,
        "blocked_fraction": result.blocked_fraction,
        "blocked_profiles": sorted(result.blocked_profiles),
        "block_events": len(result.block_events),
        "probes": sum(result.probes_per_server.values()),
    }


BATCH_SUMMARIZERS = {
    "shadowsocks": _summarize_shadowsocks_batch,
    "sink": _summarize_sink_batch,
    "brdgrd": _summarize_brdgrd_batch,
    "blocking": _summarize_blocking_batch,
}


def extract_probes(
    capture,
    server_port: int,
    client_ips: Iterable[str],
    legit_payloads: Optional[Sequence[bytes]] = None,
) -> List[ObservedProbe]:
    """Pull probe connections out of a buffered server-side capture.

    A probe is any inbound connection to ``server_port`` from an address
    other than the experimenter's own clients.  ``legit_payloads``
    defaults to the first payloads the clients themselves sent.  The
    batch twin of :class:`~repro.analysis.pipeline.CaptureProbeClassifier`.
    """
    clients = set(client_ips)
    if legit_payloads is None:
        legit_payloads = [
            bytes(rec.segment.payload)
            for rec in capture.received()
            if rec.segment.is_data
            and rec.segment.dst_port == server_port
            and rec.segment.src_ip in clients
        ]
    # Collect per-connection SYN metadata and first payload.
    syn_meta: Dict[Tuple[str, int], Tuple[float, Optional[int], Optional[int]]] = {}
    first_payload: Dict[Tuple[str, int], Tuple[float, bytes]] = {}
    for rec in capture.received():
        seg = rec.segment
        if seg.dst_port != server_port or seg.src_ip in clients:
            continue
        key = (seg.src_ip, seg.src_port)
        if seg.is_syn and key not in syn_meta:
            syn_meta[key] = (rec.time, seg.tsval, seg.ttl)
        elif seg.is_data and key not in first_payload:
            first_payload[key] = (rec.time, bytes(seg.payload))

    probes: List[ObservedProbe] = []
    for key, (time, payload) in sorted(first_payload.items(), key=lambda kv: kv[1][0]):
        probe_type, matched = classify_payload(payload, legit_payloads)
        meta = syn_meta.get(key)
        probes.append(ObservedProbe(
            time=time,
            src_ip=key[0],
            src_port=key[1],
            dst_port=server_port,
            payload=payload,
            probe_type=probe_type,
            matched_payload=matched,
            syn_tsval=meta[1] if meta else None,
            syn_ttl=meta[2] if meta else None,
        ))
    return probes


def _build(name, seed, extra=None):
    scenario = get_scenario(name)
    overrides = dict(CHEAP_OVERRIDES[name], **(extra or {}))
    return scenario, scenario.build(scenario.instantiate(seed, overrides))


def _assert_streaming_equals_batch(name, seed):
    scenario, artifact = _build(name, seed)
    streaming = canonical_json(scenario.summarize(artifact))
    batch = canonical_json(BATCH_SUMMARIZERS[name](artifact))
    assert streaming == batch
    return artifact


# ------------------------------------------------- streaming == batch


@given(seed=st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_sink_streaming_equals_batch(seed):
    _assert_streaming_equals_batch("sink", seed)


@pytest.mark.parametrize("name", ["shadowsocks", "brdgrd", "blocking"])
def test_streaming_equals_batch(name):
    _assert_streaming_equals_batch(name, seed=3)


def test_capture_classifier_matches_extract_probes():
    """The deferred per-server classifier replays ``extract_probes``."""
    _, artifact = _build("shadowsocks", seed=1)
    config = artifact.config
    for name, probes in artifact.server_probes.items():
        capture = artifact.world.hosts[name].capture
        client_ip = artifact.world.hosts[
            name.replace("-server", "-client")].ip
        batch = extract_probes(capture, config.server_port, [client_ip])
        assert [p.__dict__ for p in probes] == [p.__dict__ for p in batch]


# -------------------------------------------- parallel merge == serial


@pytest.mark.parametrize("name", sorted(CHEAP_OVERRIDES))
def test_parallel_merge_equals_serial(name):
    overrides = CHEAP_OVERRIDES[name]
    serial = execute_job(JobSpec(name, seeds=(0, 1), overrides=overrides,
                                 jobs=1, use_cache=False))
    parallel = execute_job(JobSpec(name, seeds=(0, 1), overrides=overrides,
                                   jobs=2, use_cache=False))
    assert serial.canonical_bytes() == parallel.canonical_bytes()


def test_merged_analysis_equals_merged_states():
    """The sweep's cross-seed analysis re-finalizes merged states."""
    from repro.analysis.pipeline import merge_analysis

    merged = execute_job(JobSpec("sink", seeds=(0, 1),
                                 overrides=CHEAP_OVERRIDES["sink"],
                                 jobs=1, use_cache=False)).merged
    expected = merge_analysis([run["analysis"] for run in merged["runs"]])
    assert canonical_json(merged["analysis"]) == canonical_json(expected)
    per_seed = [run["analysis"]["probes"]["output"]["count"]
                for run in merged["runs"]]
    assert merged["analysis"]["probes"]["count"] == sum(per_seed)


# -------------------------------------------------- bounded memory


def _tunnel_world_captures(**world_kwargs):
    """Every capture of a small probed tunnel world, after its run."""
    world = build_world(seed=3,
                        detector_config=DetectorConfig(base_rate=1.0,
                                                       length_filter=False,
                                                       entropy_filter=False),
                        websites=["example.com"], **world_kwargs)
    server_host = world.add_server("server")
    client_host = world.add_client("client")
    ShadowsocksServer(server_host, 8388, "pw", "chacha20-ietf-poly1305",
                      "outline-1.0.7")
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw",
                               "chacha20-ietf-poly1305")
    CurlDriver(client, rng=random.Random(3),
               sites=["example.com"]).run_schedule(4, 30.0)
    world.sim.run(until=1800.0)
    assert world.gfw.probe_log
    return [h.capture for h in world.hosts.values()] + [world.gfw.fleet_host.capture]


def test_stream_captures_bounded_memory():
    """``stream_captures`` drops capture buffering without changing output.

    It is the default for a world, and the prober simulator keeps no log.
    """
    _, buffered = _build("sink", seed=2)
    _, streamed = _build("sink", seed=2, extra={"stream_captures": True})
    assert (canonical_json(streamed.pipeline.payload())
            == canonical_json(buffered.pipeline.payload()))
    buffered_records = sum(len(h.capture.records)
                           for h in buffered.world.hosts.values())
    streamed_records = sum(len(h.capture)
                           for h in streamed.world.hosts.values())
    assert buffered_records > 0
    assert streamed_records == 0

    assert all(len(capture) == 0 for capture in _tunnel_world_captures())
    assert all(capture.records
               for capture in _tunnel_world_captures(stream_captures=False))

    sim = ProberSimulator("ss-libev-3.3.1", "aes-256-gcm")
    sim.record_legitimate_payload()
    for length in (1, 50, 221):
        sim.send_random_probe(length)
    hosts = (sim.server_host, sim.client_host, sim.prober_host, sim.web_host)
    assert all(len(host.capture) == 0 for host in hosts)
