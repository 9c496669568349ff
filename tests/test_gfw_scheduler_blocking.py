"""Unit tests for the probe scheduler, prober runner, and blocking module."""

import random

import pytest

from repro.gfw import (
    BlockingModule,
    BlockingPolicy,
    FleetConfig,
    GreatFirewall,
    ProbeForge,
    ProbeScheduler,
    ProbeType,
    ProberFleet,
    ProberRunner,
    Reaction,
    SchedulerConfig,
)
from repro.gfw.scheduler import ServerProbeState
from repro.net import Flags, Host, Network, Segment, Simulator


def make_rig(seed=0, scheduler_config=None):
    sim = Simulator()
    net = Network(sim)
    fleet_host = Host(sim, net, "100.64.0.1", "fleet")
    fleet = ProberFleet(fleet_host, rng=random.Random(seed))
    runner = ProberRunner(fleet, rng=random.Random(seed + 1))
    scheduler = ProbeScheduler(runner, rng=random.Random(seed + 2),
                               config=scheduler_config)
    return sim, net, fleet, runner, scheduler


class SinkApp:
    def __init__(self, conn):
        conn.on_data = lambda data: None


class RstApp:
    def __init__(self, conn):
        conn.on_data = lambda data: conn.abort()


class DataApp:
    def __init__(self, conn):
        conn.on_data = lambda data: conn.send(b"response!")


# ------------------------------------------------------------------ runner


def test_runner_classifies_rst():
    sim, net, fleet, runner, _ = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, RstApp)
    record = runner.send_probe(ProbeForge().nr2(), "198.51.100.1", 8388)
    sim.run(until=30)
    assert record.reaction == Reaction.RST


def test_runner_classifies_timeout():
    sim, net, fleet, runner, _ = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, SinkApp)
    record = runner.send_probe(ProbeForge().nr2(), "198.51.100.1", 8388)
    sim.run(until=30)
    assert record.reaction == Reaction.TIMEOUT
    assert record.time_done - record.time_sent < 11


def test_runner_classifies_data_and_closes():
    sim, net, fleet, runner, _ = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, DataApp)
    record = runner.send_probe(ProbeForge().nr2(), "198.51.100.1", 8388)
    sim.run(until=30)
    assert record.reaction == Reaction.DATA
    assert record.response_bytes == 9


def test_runner_classifies_unreachable():
    sim, net, fleet, runner, _ = make_rig()
    net.unreachable_policy = "drop"
    record = runner.send_probe(ProbeForge().nr2(), "198.51.100.99", 8388)
    sim.run(until=30)
    assert record.reaction == Reaction.UNREACHABLE


def test_runner_result_callback_fires_once():
    sim, net, fleet, runner, _ = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")

    class DataThenFin:
        def __init__(self, conn):
            def on_data(data):
                conn.send(b"reply")
                conn.close()

            conn.on_data = on_data

    server.listen(8388, DataThenFin)
    results = []
    runner.send_probe(ProbeForge().nr2(), "198.51.100.1", 8388,
                      on_result=results.append)
    sim.run(until=30)
    assert len(results) == 1
    assert results[0].reaction == Reaction.DATA


def test_runner_probe_metadata():
    sim, net, fleet, runner, _ = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, SinkApp)
    record = runner.send_probe(ProbeForge().nr1(), "198.51.100.1", 8388,
                               trigger_time=0.0)
    sim.run(until=30)
    assert record.process_name.startswith("proc-")
    assert record.src_ip != "100.64.0.1"
    assert record.delay == record.time_sent


# --------------------------------------------------------------- scheduler


def test_scheduler_flag_schedules_r1():
    sim, net, fleet, runner, scheduler = make_rig()
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, SinkApp)
    scheduler.on_flagged_connection("198.51.100.1", 8388, bytes(range(200)))
    sim.run(until=600 * 3600)
    r1 = [r for r in runner.log if r.probe_type == ProbeType.R1]
    assert r1
    assert all(r.probe.payload == bytes(range(200)) for r in r1)


def test_scheduler_respects_probe_cap():
    config = SchedulerConfig(max_probes_per_server=3)
    sim, net, fleet, runner, scheduler = make_rig(scheduler_config=config)
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, SinkApp)
    for _ in range(10):
        scheduler.on_flagged_connection("198.51.100.1", 8388, bytes(300))
    state = scheduler.state_for("198.51.100.1", 8388)
    assert state.probes_sent == 3


def test_scheduler_stage2_on_replay_data():
    sim, net, fleet, runner, scheduler = make_rig(seed=5)
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, DataApp)
    scheduler.on_flagged_connection("198.51.100.1", 8388, bytes(range(100)))
    sim.run(until=600 * 3600)
    state = scheduler.state_for("198.51.100.1", 8388)
    assert state.stage == 2
    types = {r.probe_type for r in runner.log}
    assert types & {ProbeType.R3, ProbeType.R4}


def test_scheduler_payload_memory_bounded():
    sim, net, fleet, runner, scheduler = make_rig()
    state = scheduler.state_for("1.2.3.4", 1)
    for i in range(scheduler.MAX_RECORDED_PAYLOADS + 100):
        scheduler.on_flagged_connection("1.2.3.4", 1, bytes([i % 256]) * 10)
    assert len(state.recorded_payloads) == scheduler.MAX_RECORDED_PAYLOADS


def test_scheduler_nr1_requires_serving_and_threshold():
    config = SchedulerConfig(nr1_flag_threshold=3, nr1_probability=1.0)
    sim, net, fleet, runner, scheduler = make_rig(scheduler_config=config)
    server = Host(sim, net, "198.51.100.1", "server")
    server.listen(8388, SinkApp)
    # Below threshold / not serving: no NR1.
    for _ in range(2):
        scheduler.on_flagged_connection("198.51.100.1", 8388, bytes(50))
    assert not any(r.probe_type == ProbeType.NR1 for r in runner.log)
    scheduler.note_server_data("198.51.100.1", 8388)
    for _ in range(3):
        scheduler.on_flagged_connection("198.51.100.1", 8388, bytes(50))
    sim.run(until=48 * 3600)
    assert any(r.probe_type == ProbeType.NR1 for r in runner.log)


# ----------------------------------------------------------------- blocking


def probe_record(reaction, is_replay=True):
    from repro.gfw.prober import ProbeRecord

    forge = ProbeForge(random.Random(1))
    probe = forge.replay(bytes(100)) if is_replay else forge.nr2()
    record = ProbeRecord(probe=probe, server_ip="9.9.9.9", server_port=1,
                         src_ip="1.1.1.1", src_port=2, time_sent=0.0,
                         tsval=0, process_name="p")
    record.reaction = reaction
    return record


def test_blocking_requires_combined_evidence():
    sim = Simulator()
    module = BlockingModule(sim, rng=random.Random(1),
                            policy=BlockingPolicy(human_gated=False,
                                                  block_probability=1.0))
    state = ServerProbeState("9.9.9.9", 1)
    # Replay-data alone does not confirm.
    for _ in range(5):
        module.consider(state, probe_record(Reaction.DATA))
    assert module.blocked_count == 0
    # Distinctive reactions complete the evidence.
    module.consider(state, probe_record(Reaction.RST, is_replay=False))
    module.consider(state, probe_record(Reaction.RST, is_replay=False))
    assert module.is_blocked("9.9.9.9", 1)


def test_blocking_statistical_path_needs_volume():
    sim = Simulator()
    policy = BlockingPolicy(human_gated=False, block_probability=1.0,
                            min_confirming_reactions=10)
    module = BlockingModule(sim, rng=random.Random(2), policy=policy)
    state = ServerProbeState("9.9.9.9", 1)
    for i in range(9):
        module.consider(state, probe_record(Reaction.RST, is_replay=False))
    assert module.blocked_count == 0
    module.consider(state, probe_record(Reaction.RST, is_replay=False))
    assert module.blocked_count == 1


def test_blocking_by_ip_vs_port():
    sim = Simulator()
    module = BlockingModule(sim, rng=random.Random(3))
    module.block("5.5.5.5", 443, by_ip=False)
    assert module.is_blocked("5.5.5.5", 443)
    assert not module.is_blocked("5.5.5.5", 80)
    module.block("6.6.6.6", by_ip=True)
    assert module.is_blocked("6.6.6.6", 1234)


def test_blocking_should_drop_is_unidirectional():
    sim = Simulator()
    net = Network(sim)
    gfw = GreatFirewall(sim, net, ["1.1.1.0/24"])
    gfw.blocking.block("5.5.5.5", 443, by_ip=False)
    from_server = Segment(src_ip="5.5.5.5", dst_ip="1.1.1.1", src_port=443,
                          dst_port=999, flags=Flags.ACK)
    to_server = Segment(src_ip="1.1.1.1", dst_ip="5.5.5.5", src_port=999,
                        dst_port=443, flags=Flags.ACK)
    assert gfw.process(from_server, net) == []
    assert gfw.process(to_server, net) == [to_server]
    assert gfw.dropped_segments == 1


def test_unblock_lapses_without_recheck():
    sim = Simulator()
    policy = BlockingPolicy(unblock_after=100.0, unblock_jitter=0.0)
    module = BlockingModule(sim, rng=random.Random(5), policy=policy)
    module.block("5.5.5.5", 443, by_ip=False)
    sim.run(until=99)
    assert module.is_blocked("5.5.5.5", 443)
    sim.run(until=101)
    assert not module.is_blocked("5.5.5.5", 443)


def test_gate_open_windows():
    sim = Simulator()
    policy = BlockingPolicy(human_gated=True, sensitive_periods=[(10, 20)])
    module = BlockingModule(sim, policy=policy)
    assert not module.gate_open(5)
    assert module.gate_open(15)
    assert not module.gate_open(25)
    assert BlockingModule(sim, policy=BlockingPolicy(human_gated=False)).gate_open(5)
