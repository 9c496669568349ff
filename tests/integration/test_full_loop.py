"""Full-loop integration: client -> GFW -> server, probes and blocking."""

import random

import pytest

from repro.runtime.topology import build_world
from repro.gfw import (
    BlockingPolicy,
    DetectorConfig,
    ProbeType,
    Reaction,
    SchedulerConfig,
)
from repro.net import lookup_asn
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.workloads import CurlDriver

AGGRESSIVE_DETECTOR = DetectorConfig(base_rate=1.0, length_filter=False,
                                     entropy_filter=False)


def tunnel_world(profile, method="chacha20-ietf-poly1305", seed=1,
                 scheduler_config=None, blocking_policy=None):
    world = build_world(
        seed=seed,
        detector_config=AGGRESSIVE_DETECTOR,
        scheduler_config=scheduler_config,
        blocking_policy=blocking_policy or BlockingPolicy(human_gated=True),
        websites=["www.wikipedia.org", "example.com", "gfw.report"],
        stream_captures=False,
    )
    server_host = world.add_server("ss-server", region="uk")
    client_host = world.add_client("client")
    server = ShadowsocksServer(server_host, 8388, "pw", method, profile)
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw", method)
    driver = CurlDriver(client, rng=random.Random(seed), target_port=443)
    return world, server_host, client_host, driver


def probes_received(server_host, port=8388):
    """Prober SYNs seen at the server, excluding the client's own."""
    return [
        r.segment for r in server_host.capture.syns_received()
        if r.segment.dst_port == port and lookup_asn(r.segment.src_ip) is not None
    ]


def test_probes_arrive_after_legit_connections():
    world, server_host, client_host, driver = tunnel_world("outline-1.0.7")
    driver.run_schedule(count=30, interval=10.0)
    world.sim.run(until=3 * 3600)
    probes = probes_received(server_host)
    assert len(probes) > 5
    # Probe fingerprints: Chinese source, TTL 46-50 on arrival.
    for seg in probes:
        assert 46 <= seg.ttl <= 50


def test_replay_probes_match_recorded_payloads():
    world, server_host, client_host, driver = tunnel_world("outline-1.0.7")
    driver.run_schedule(count=20, interval=10.0)
    world.sim.run(until=2 * 3600)
    log = world.gfw.probe_log
    replays = [r for r in log if r.probe.is_replay]
    assert replays
    # Identical replays reproduce a payload the client actually sent.
    sent_payloads = {
        bytes(rec.segment.payload)
        for rec in client_host.capture.sent()
        if rec.segment.is_data
    }
    r1 = [r for r in replays if r.probe_type == ProbeType.R1]
    assert r1 and all(r.probe.payload in sent_payloads for r in r1)


def test_outline_enters_stage2_libev_does_not():
    results = {}
    for profile in ("outline-1.0.7", "ss-libev-3.3.1"):
        world, server_host, _, driver = tunnel_world(profile, seed=3)
        driver.run_schedule(count=25, interval=10.0)
        world.sim.run(until=12 * 3600)
        types = {r.probe_type for r in world.gfw.probe_log}
        stages = [s.stage for s in world.gfw.scheduler.servers.values()]
        results[profile] = (types, max(stages) if stages else 1)
    outline_types, outline_stage = results["outline-1.0.7"]
    libev_types, libev_stage = results["ss-libev-3.3.1"]
    assert outline_stage == 2
    assert ProbeType.R3 in outline_types or ProbeType.R4 in outline_types
    assert libev_stage == 1
    assert ProbeType.R3 not in libev_types and ProbeType.R4 not in libev_types


def test_control_host_receives_no_probes():
    world, server_host, client_host, driver = tunnel_world("outline-1.0.7")
    control = world.add_server("control", region="uk")
    driver.run_schedule(count=20, interval=10.0)
    world.sim.run(until=2 * 3600)
    assert len(probes_received(server_host)) > 0
    assert len(control.capture.syns_received()) == 0


def test_bidirectional_triggering():
    """A Shadowsocks server *inside* China is probed as well (§4.2)."""
    world = build_world(seed=4, detector_config=AGGRESSIVE_DETECTOR,
                        websites=["example.com"], stream_captures=False)
    server_host = world.add_client("inside-server", residential=True)
    client_host = world.add_server("outside-client", region="us")
    ShadowsocksServer(server_host, 8388, "pw", "chacha20-ietf-poly1305",
                      "outline-1.0.7")
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw",
                               "chacha20-ietf-poly1305")
    driver = CurlDriver(client, rng=random.Random(4), sites=["example.com"])
    driver.run_schedule(count=15, interval=10.0)
    world.sim.run(until=2 * 3600)
    # Probes come from fleet IPs inside China to the inside server: they do
    # not cross the border... but the paper observed inside servers being
    # probed, so the fleet reaches inside targets too.
    assert len(probes_received(server_host)) > 0


def test_probe_reactions_recorded():
    world, server_host, _, driver = tunnel_world("ss-libev-3.0.8",
                                                 method="aes-256-gcm", seed=5)
    driver.run_schedule(count=25, interval=10.0)
    world.sim.run(until=6 * 3600)
    reactions = {r.reaction for r in world.gfw.probe_log if r.reaction}
    # Old libev RSTs replayed salts (replay filter) and garbage.
    assert Reaction.RST in reactions


def test_blocking_unidirectional():
    policy = BlockingPolicy(human_gated=False, block_probability=1.0,
                            block_by_ip_probability=0.0)
    world, server_host, client_host, driver = tunnel_world(
        "outline-1.0.6", seed=6, blocking_policy=policy
    )
    driver.run_schedule(count=25, interval=10.0)
    world.sim.run(until=12 * 3600)
    assert world.gfw.blocking.blocked_count >= 1
    assert world.gfw.blocking.is_blocked(server_host.ip, 8388)
    # New connection now fails: SYN/ACK (server->client) is dropped.
    before_drops = world.gfw.dropped_segments
    conn = client_host.connect(server_host.ip, 8388)
    world.sim.run(until=world.sim.now + 60)
    assert conn.state == "SYN_SENT"  # handshake never completes
    assert world.gfw.dropped_segments > before_drops
    # Client->server direction still passes: the server saw the SYN.
    syns = [r for r in server_host.capture.syns_received()
            if r.segment.src_ip == client_host.ip]
    assert syns


def test_unblocking_after_policy_window():
    policy = BlockingPolicy(human_gated=False, block_probability=1.0,
                            unblock_after=3600.0, unblock_jitter=0.0)
    world, server_host, client_host, driver = tunnel_world(
        "outline-1.0.6", seed=7, blocking_policy=policy
    )
    driver.run_schedule(count=25, interval=10.0)
    world.sim.run(until=6 * 3600)
    assert world.gfw.blocking.events  # got blocked at some point
    world.sim.run(until=world.sim.now + policy.unblock_after + 3700)
    event = world.gfw.blocking.events[0]
    assert not world.gfw.blocking.is_blocked(event.ip, event.port or 8388) or (
        len(world.gfw.blocking.events) > 1  # re-blocked by later evidence
    )


def test_human_gated_blocking_respects_sensitive_periods():
    policy = BlockingPolicy(
        human_gated=True,
        sensitive_periods=[(10 * 3600, 20 * 3600)],
        block_probability=1.0,
    )
    world, server_host, _, driver = tunnel_world(
        "outline-1.0.6", seed=8, blocking_policy=policy
    )
    driver.run_schedule(count=30, interval=10.0)
    world.sim.run(until=9 * 3600)
    assert world.gfw.blocking.blocked_count == 0  # gate closed so far
