"""Ablation: stage-2 gating.

The GFW does not send R3/R4/R5 until a server answers a stage-1 replay
(§4.2).  This ablation compares the staged scheduler against a variant
that fires the stage-2 burst unconditionally, measuring probe volume
per server class.  Gating spends the expensive byte-changed probes only
on servers where they are informative.
"""

import random

from repro.analysis import banner, render_table
from repro.runtime.topology import build_world
from repro.gfw import DetectorConfig, ProbeType, SchedulerConfig
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.workloads import CurlDriver


def run_variant(gated: bool, seed: int):
    world = build_world(
        seed=seed,
        detector_config=DetectorConfig(base_rate=1.0, length_filter=False,
                                       entropy_filter=False),
        websites=["example.com"],
    )
    if not gated:
        # Disable the gate: pretend every server already answered a replay.
        scheduler = world.gfw.scheduler
        original = scheduler.on_flagged_connection

        def ungated(ip, port, payload, protocol=None):
            state = scheduler.state_for(ip, port)
            original(ip, port, payload, protocol=protocol)
            if state.stage == 1:
                state.stage = 2
                scheduler.behavior_for(state.protocol)._enter_stage2(state)

        scheduler.on_flagged_connection = ungated

    deployments = [("filtered", "ss-libev-3.3.1"), ("vulnerable", "outline-1.0.7")]
    for name, profile in deployments:
        server_host = world.add_server(f"{name}-server", region="uk")
        client_host = world.add_client(f"{name}-client")
        ShadowsocksServer(server_host, 8388, f"pw-{name}",
                          "chacha20-ietf-poly1305", profile)
        client = ShadowsocksClient(client_host, server_host.ip, 8388,
                                   f"pw-{name}", "chacha20-ietf-poly1305")
        CurlDriver(client, rng=random.Random(seed),
                   sites=["example.com"]).run_schedule(25, 20.0)
    world.sim.run(until=12 * 3600)

    per_server = {}
    for record in world.gfw.probe_log:
        per_server.setdefault(record.server_ip, []).append(record)
    return world, per_server


def test_ablation_staged_probing(benchmark, emit):
    def build():
        return run_variant(gated=True, seed=71), run_variant(gated=False, seed=71)

    (gated_world, gated), (ungated_world, ungated) = benchmark.pedantic(
        build, rounds=1, iterations=1)

    def stage2_count(per_server):
        return sum(
            1 for records in per_server.values() for r in records
            if r.probe_type in (ProbeType.R3, ProbeType.R4, ProbeType.R5,
                                ProbeType.R6)
        )

    rows = [
        ("gated (paper)", sum(len(v) for v in gated.values()), stage2_count(gated)),
        ("ungated", sum(len(v) for v in ungated.values()), stage2_count(ungated)),
    ]
    text = (
        banner("Ablation: stage-2 gating vs unconditional stage 2")
        + "\n" + render_table(["scheduler", "total probes", "stage-2 probes"], rows)
    )
    emit("ablation_staged_probing", text)

    # Gating sends far fewer stage-2 probes overall...
    assert stage2_count(gated) < stage2_count(ungated)
    # ...and spends them only on the replay-vulnerable server.
    filtered_ip = gated_world.hosts["filtered-server"].ip
    gated_filtered_stage2 = [
        r for r in gated.get(filtered_ip, [])
        if r.probe_type in (ProbeType.R3, ProbeType.R4)
    ]
    assert not gated_filtered_stage2
