"""Server-engine edge cases: timeouts, drain, buffering, weird targets."""

import random

import pytest

from repro.crypto import AES
from repro.net import Host, Network, Simulator, TcpState
from repro.shadowsocks import (
    ShadowsocksClient,
    ShadowsocksServer,
    encode_target,
)
from repro.shadowsocks.aead_session import AeadEncryptor, aead_master_key
from repro.shadowsocks.spec import ATYP_IPV6

from .accepted import accepted_sessions


def make_world(method="aes-256-gcm", profile="ss-libev-3.3.1", **server_kwargs):
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.50", "server")
    client_host = Host(sim, net, "192.0.2.50", "client")
    web = Host(sim, net, "198.18.0.50", "web")
    web.listen(80, lambda c: setattr(c, "on_data", lambda d: c.send(b"hi")))
    net.register_name("site.example", web.ip)
    server = ShadowsocksServer(server_host, 8388, "pw", method, profile,
                               **server_kwargs)
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw", method)
    return sim, net, server, client, (server_host, client_host, web)


def test_idle_timeout_closes_stalled_handshake():
    sim, net, server, client, (server_host, client_host, _) = make_world()
    conn = client_host.connect(server_host.ip, 8388)
    fin = []
    conn.on_remote_fin = lambda: fin.append(sim.now)
    conn.on_connected = lambda: conn.send(b"\x01\x02\x03")  # partial salt
    sim.run(until=59)
    assert not fin
    sim.run(until=62)
    assert fin and 59 < fin[0] < 62  # server reaps at its 60 s idle timeout


def test_idle_timer_resets_on_activity():
    sim, net, server, client, (server_host, client_host, _) = make_world()
    conn = client_host.connect(server_host.ip, 8388)
    fin = []
    conn.on_remote_fin = lambda: fin.append(sim.now)
    conn.on_connected = lambda: conn.send(b"\x01")
    sim.schedule(40.0, lambda: conn.send(b"\x02"))  # keep-alive trickle
    sim.run(until=110)
    assert fin
    assert 99 < fin[0] < 102  # closed ~60 s after the *last* data, not the first


def test_drain_state_swallows_everything():
    sim, net, server, client, (server_host, client_host, _) = make_world(
        profile="ss-libev-3.3.1")
    sessions = accepted_sessions(server)
    conn = client_host.connect(server_host.ip, 8388)
    got = []
    conn.on_data = got.append
    # Garbage long enough to fail AEAD authentication.
    conn.on_connected = lambda: conn.send(bytes(range(100)))
    sim.run(until=5)
    session = sessions[0]
    assert session.state == session.DRAIN
    conn.send(bytes(500))  # more garbage: still silence
    sim.run(until=10)
    assert not got
    assert not conn.reset_received


def test_data_during_connecting_is_buffered_and_forwarded():
    sim, net, server, client, hosts = make_world()
    server_host, client_host, web = hosts
    net.set_latency(server_host.ip, web.ip, 0.5)  # slow dial to the target
    session = client.open("site.example", 80, b"part1 ")
    # This lands while the server is still connecting to the web host.
    sim.schedule(0.3, session.send, b"part2")
    sim.run(until=10)
    # The web app echoes per segment; both parts must have arrived.
    assert bytes(session.reply).startswith(b"hi")
    data_at_web = [r.segment.payload for r in web.capture.received()
                   if r.segment.is_data]
    assert b"".join(data_at_web) == b"part1 part2"


def test_ipv6_target_fails_gracefully():
    sim, net, server, client, (server_host, client_host, _) = make_world()
    master = aead_master_key("pw", "aes-256-gcm")
    enc = AeadEncryptor("aes-256-gcm", master, rng=random.Random(1))
    spec = encode_target("2001:0db8:0000:0000:0000:0000:0000:0001", 80,
                         atyp=ATYP_IPV6)
    conn = client_host.connect(server_host.ip, 8388)
    fin = []
    conn.on_remote_fin = lambda: fin.append(True)
    conn.on_connected = lambda: conn.send(enc.encrypt(spec))
    sim.run(until=10)
    assert fin  # no IPv6 fabric: connect fails -> FIN/ACK


def test_client_rst_during_connecting_aborts_remote():
    sim, net, server, client, hosts = make_world()
    server_host, client_host, web = hosts
    net.set_latency(server_host.ip, web.ip, 1.0)
    sessions = accepted_sessions(server)
    session = client.open("site.example", 80, b"x")
    sim.schedule(0.5, session.conn.abort)
    sim.run(until=10)
    assert sessions[0].state == sessions[0].DONE


def test_server_stop_unlistens():
    sim, net, server, client, (server_host, client_host, _) = make_world()
    server.stop()
    conn = client_host.connect(server_host.ip, 8388)
    sim.run(until=5)
    assert conn.reset_received  # closed port now refuses


def test_fragmented_genuine_handshake_works():
    """A genuine AEAD handshake split into tiny segments still proxies
    (the reassembly case brdgrd forces)."""
    sim, net, server, client, (server_host, client_host, web) = make_world()
    master = aead_master_key("pw", "aes-256-gcm")
    enc = AeadEncryptor("aes-256-gcm", master, rng=random.Random(2))
    wire = enc.encrypt(encode_target("site.example", 80) + b"GET /")
    conn = client_host.connect(server_host.ip, 8388)
    got = bytearray()
    # Collect the encrypted reply; decrypt path is covered elsewhere.
    conn.on_data = got.extend

    def dribble():
        for i in range(0, len(wire), 7):
            sim.schedule(0.1 * i, conn.send, wire[i : i + 7])

    conn.on_connected = dribble
    sim.run(until=60)
    assert got  # server reassembled, proxied, and answered


def test_stream_partial_iv_then_complete():
    sim, net, server, client, (server_host, client_host, web) = make_world(
        method="aes-256-ctr", profile="ss-libev-3.1.3")
    from repro.shadowsocks.stream_session import StreamEncryptor, master_key

    enc = StreamEncryptor("aes-256-ctr", master_key("pw", "aes-256-ctr"),
                          rng=random.Random(3))
    wire = enc.encrypt(encode_target("site.example", 80) + b"GET /")
    conn = client_host.connect(server_host.ip, 8388)
    got = bytearray()
    conn.on_data = got.extend

    def two_parts():
        conn.send(wire[:10])  # less than the 16-byte IV
        sim.schedule(1.0, conn.send, wire[10:])

    conn.on_connected = two_parts
    sim.run(until=30)
    assert got


def test_timed_filter_rejects_stale_legitimate_client():
    """With a freshness window, even a correctly-keyed connection whose
    embedded timestamp is stale gets refused (the VMess-style defense)."""
    sim, net, server, client, (server_host, client_host, _) = make_world(
        timed_replay_window=60.0)
    # Pretend the recorded timestamp registry says this nonce is old.
    master = aead_master_key("pw", "aes-256-gcm")
    enc = AeadEncryptor("aes-256-gcm", master, rng=random.Random(4))
    server.timestamp_registry = {enc.salt: -1000.0}
    wire = enc.encrypt(encode_target("site.example", 80) + b"GET /")
    conn = client_host.connect(server_host.ip, 8388)
    got = []
    conn.on_data = got.append
    conn.on_connected = lambda: conn.send(wire)
    sim.run(until=30)
    assert not got


def test_stream_server_expands_its_master_key_once(monkeypatch):
    """A stream server's sessions share one AES key schedule: serving 50
    connections expands the master key once, when the server is built."""
    expanded = []
    expand = AES._expand_key

    def counting(key):
        expanded.append(bytes(key))
        return expand(key)

    monkeypatch.setattr(AES, "_expand_key", staticmethod(counting))
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.51", "server")
    client_host = Host(sim, net, "192.0.2.51", "client")
    server = ShadowsocksServer(server_host, 8388, "pw", "aes-256-cfb")
    sessions = accepted_sessions(server)
    for i in range(50):
        conn = client_host.connect(server_host.ip, 8388)
        payload = random.Random(i).randbytes(40)  # IV + 24 bytes
        conn.on_connected = lambda conn=conn, payload=payload: conn.send(payload)
    sim.run(until=5)
    assert len(sessions) == 50
    assert all(session._decryptor.iv_complete for session in sessions)
    assert expanded.count(server.master) == 1
