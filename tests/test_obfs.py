"""Tor bridge transports: wire formats, tunnel round-trips, probe grading."""

import random

import pytest

from repro.net import Host, Network, Simulator
from repro.obfs import (
    OBFS3_HANDSHAKE_LEN,
    OBFS_PROFILES,
    FrameCodec,
    ObfsClient,
    ObfsServer,
    node_key,
    obfs4_handshake,
    parse_versions_cell,
    tor_versions_cell,
)
from repro.obfs.wire import obfs4_decode_pad_len, obfs4_mac

from .accepted import accepted_sessions


# ------------------------------------------------------------------- wire


def test_versions_cell_round_trip():
    assert parse_versions_cell(tor_versions_cell((3, 4, 5))) == (3, 4, 5)
    assert parse_versions_cell(b"\x00\x00\x06\x00\x02\x00\x03") is None
    assert parse_versions_cell(b"\x00") is None


def test_versions_cell_rejects_odd_body():
    cell = b"\x00\x00\x07\x00\x03abc"
    assert parse_versions_cell(cell) is None


def test_frame_codec_round_trip_across_fragmentation():
    key = node_key("bridge")
    tx, rx = FrameCodec(key, "c2s"), FrameCodec(key, "c2s")
    wire = tx.encode(b"hello") + tx.encode(b"") + tx.encode(b"world" * 100)
    frames = []
    for i in range(0, len(wire), 7):   # deliver in odd-sized chunks
        frames.extend(rx.feed(wire[i:i + 7]))
    assert frames == [b"hello", b"", b"world" * 100]


def test_frame_codec_directions_do_not_collide():
    key = node_key("bridge")
    encoded = FrameCodec(key, "c2s").encode(b"payload")
    assert FrameCodec(key, "s2c").feed(encoded) != [b"payload"]


def test_obfs4_handshake_decodes_with_key():
    key = node_key("b2")
    hs = obfs4_handshake(key, "c2s", random.Random(3))
    pad_len = obfs4_decode_pad_len(hs[:2], key, "c2s")
    assert len(hs) == 2 + pad_len + 16
    assert obfs4_mac(key, hs[:-16]) == hs[-16:]


# ----------------------------------------------------------------- tunnel


def _world(profile):
    """A client, a bridge and a web target at ``example.com:80``."""
    sim = Simulator()
    net = Network(sim)
    client_host = Host(sim, net, "192.0.2.10", "client")
    bridge_host = Host(sim, net, "198.51.100.5", "bridge")
    target_host = Host(sim, net, "203.0.113.80", "web")
    target_host.listen(80, lambda conn: setattr(
        conn, "on_data", lambda data: conn.send(b"HTTP/1.1 200 OK\r\n\r\nhi")))
    net.register_name("example.com", "203.0.113.80")
    ObfsServer(bridge_host, 443, "bridge", profile)
    client = ObfsClient(client_host, "198.51.100.5", 443, "bridge",
                        profile=profile)
    return sim, client


@pytest.mark.parametrize("profile", OBFS_PROFILES)
def test_roundtrip_through_bridge(profile):
    sim, client = _world(profile)
    session = client.open("example.com", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=30)
    assert bytes(session.reply) == b"HTTP/1.1 200 OK\r\n\r\nhi"


def test_unknown_profile_rejected():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, net, "192.0.2.1", "h")
    with pytest.raises(ValueError):
        ObfsServer(host, 443, "bridge", "obfs9")
    with pytest.raises(ValueError):
        ObfsClient(host, "192.0.2.2", 443, "bridge", profile="obfs9")


# ---------------------------------------------------- probe-facing grading


def _probe(profile, payload, until=300):
    """Send one raw payload at the bridge; return (the bridge's sessions,
    reply, whether the bridge closed)."""
    sim = Simulator()
    net = Network(sim)
    prober_host = Host(sim, net, "192.0.2.99", "prober")
    bridge_host = Host(sim, net, "198.51.100.5", "bridge")
    server = ObfsServer(bridge_host, 443, "bridge", profile)
    sessions = accepted_sessions(server)
    got = bytearray()
    conn = prober_host.connect("198.51.100.5", 443)
    conn.on_connected = lambda: conn.send(payload)
    conn.on_data = got.extend
    closed = []
    conn.on_remote_fin = lambda: closed.append(True)
    sim.run(until=until)
    return sessions, bytes(got), bool(closed)


def test_vanilla_answers_forged_versions_probe():
    _, reply, _ = _probe("tor-vanilla", tor_versions_cell())
    assert parse_versions_cell(reply) is not None


def test_vanilla_closes_on_garbage():
    _, reply, closed = _probe("tor-vanilla",
                              bytes(random.Random(7).randrange(256)
                                    for _ in range(200)))
    assert reply == b"" and closed


def test_obfs3_answers_any_full_size_block():
    rng = random.Random(8)
    block = bytes(rng.randrange(256) for _ in range(OBFS3_HANDSHAKE_LEN))
    _, reply, _ = _probe("obfs3", block)
    assert len(reply) == OBFS3_HANDSHAKE_LEN


def test_obfs3_ignores_short_probe():
    _, reply, closed = _probe("obfs3", tor_versions_cell(), until=60)
    assert reply == b"" and not closed


def test_obfs4_drains_unauthenticated_probes():
    rng = random.Random(9)
    block = bytes(rng.randrange(256) for _ in range(300))
    sessions, reply, closed = _probe("obfs4", block, until=60)
    assert reply == b"" and not closed
    assert sessions[0].state == sessions[0].DRAIN


def test_obfs4_accepts_keyed_handshake():
    key = node_key("bridge")
    hs = obfs4_handshake(key, "c2s", random.Random(10))
    sessions, reply, _ = _probe("obfs4", hs)
    assert len(reply) > 0   # the mirrored server handshake
    assert sessions[0].state != sessions[0].DRAIN
