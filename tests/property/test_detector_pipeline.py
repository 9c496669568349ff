"""Detector-pipeline invariants: default byte-identity, ensemble determinism.

The tentpole refactor split the monolithic firewall into sensor →
detector → reaction layers.  Two invariants anchor it:

1. **Default byte-identity.**  A world built with no ``detectors`` spec
   and one built with the equivalent explicit ``passive`` spec must
   produce byte-identical traces — same segments, same RNG-dependent
   probe schedule, same bus counters.
2. **Swapped pipelines stay deterministic.**  Any detector spec, run
   twice with the same seed, reproduces its full trace; verdict records
   surface on the analysis channel end to end.
"""

import random

from repro.gfw import DetectorConfig
from repro.runtime import run_scenario
from repro.runtime.topology import build_world
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.workloads import CurlDriver


def _trace(world):
    """A byte-comparable rendition of everything observable in a world."""
    segments = [
        (rec.time, rec.sent, rec.segment.flags, rec.segment.seq,
         rec.segment.ack, rec.segment.payload, rec.segment.ttl,
         rec.segment.ip_id, rec.segment.tsval)
        for host in world.hosts.values()
        for rec in host.capture
    ]
    return (segments, world.bus.snapshot(), world.gfw.flagged_connections,
            len(world.gfw.probe_log), world.net.segments_delivered)


def _run_workload(detectors, detector_config=None, seed=5):
    world = build_world(seed=seed,
                        detector_config=detector_config,
                        detectors=detectors,
                        websites=["example.com"],
                        stream_captures=False)
    server_host = world.add_server("server", region="uk")
    client_host = world.add_client("client")
    ShadowsocksServer(server_host, 8388, "pw", "chacha20-ietf-poly1305",
                      "ss-libev-3.3.1", rng=random.Random(6))
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw",
                               "chacha20-ietf-poly1305", rng=random.Random(7))
    CurlDriver(client, rng=random.Random(8),
               sites=["example.com"]).run_schedule(5, 30.0)
    world.sim.run(until=1800.0)
    return _trace(world)


def test_default_pipeline_byte_identical_to_explicit_passive_spec():
    config = DetectorConfig(base_rate=1.0)
    baseline = _run_workload(None, detector_config=config)
    explicit = _run_workload({"kind": "passive", "base_rate": 1.0})
    assert baseline == explicit


def test_swapped_pipeline_reproducible_per_seed():
    spec = {"kind": "any",
            "members": [{"kind": "entropy", "threshold": 7.2}, "vmess"]}
    assert _run_workload(spec) == _run_workload(spec)


def test_ensemble_ablation_scenario_surfaces_verdict_records():
    overrides = {"connections": 5, "duration": 600.0, "interval": 20.0,
                 "cases": [["entropy", {"kind": "entropy", "threshold": 7.2}],
                           ["union", {"kind": "any",
                                      "members": ["entropy", "vmess"]}]]}
    result = run_scenario("ablation-detector-ensemble", seed=1,
                          overrides=overrides, use_cache=False)
    cases = result.payload["cases"]
    assert set(cases) == {"entropy", "union"}
    for label, case in cases.items():
        section = result.analysis[f"{label}:verdicts"]
        assert section["analyzer"] == "verdict_records"
        assert section["output"]["count"] == case["verdicts"]
        assert case["verdicts"] == case["flagged"] > 0
        assert sum(case["by_stage"].values()) == case["verdicts"]
    # The deciding stage is recorded per verdict.
    assert set(cases["entropy"]["by_stage"]) == {"entropy"}
    assert set(cases["union"]["by_stage"]) == {"any"}


def test_ensemble_ablation_deterministic_across_runs():
    overrides = {"connections": 4, "duration": 400.0, "interval": 20.0}
    a = run_scenario("ablation-detector-ensemble", seed=2,
                     overrides=overrides, use_cache=False)
    b = run_scenario("ablation-detector-ensemble", seed=2,
                     overrides=overrides, use_cache=False)
    assert a.identity() == b.identity()
