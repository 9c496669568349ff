"""End-to-end tunnel: client -> Shadowsocks server -> target, and back."""

import random

import pytest

from repro.net import Host, Network, Simulator, TcpConnection
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer


class WebApp:
    """Minimal HTTP-ish responder used as the tunnel target."""

    def __init__(self, conn):
        conn.on_data = lambda data: conn.send(b"HTTP/1.1 200 OK\r\n\r\nhello from target")


def build_world(method, profile, merge_header=True, password="pw123"):
    sim = Simulator()
    net = Network(sim)
    client_host = Host(sim, net, "192.0.2.10", "client")
    server_host = Host(sim, net, "198.51.100.5", "ss-server")
    target_host = Host(sim, net, "203.0.113.80", "web")
    target_host.listen(80, WebApp)
    net.register_name("example.com", "203.0.113.80")
    server = ShadowsocksServer(server_host, 8388, password, method, profile)
    client = ShadowsocksClient(
        client_host, "198.51.100.5", 8388, password, method, merge_header=merge_header
    )
    return sim, net, client, server, (client_host, server_host, target_host)


@pytest.mark.parametrize("method,profile", [
    ("aes-256-cfb", "ss-libev-3.1.3"),
    ("aes-128-ctr", "ss-libev-3.3.1"),
    ("chacha20", "ss-libev-3.2.5"),
    ("chacha20-ietf", "ss-libev-3.3.3"),
    ("rc4-md5", "ss-python"),
    ("aes-128-gcm", "ss-libev-3.0.8"),
    ("aes-256-gcm", "ss-libev-3.3.1"),
    ("chacha20-ietf-poly1305", "outline-1.0.7"),
    ("chacha20-ietf-poly1305", "outline-1.1.0"),
])
def test_roundtrip_by_ip(method, profile):
    sim, net, client, server, _ = build_world(method, profile)
    session = client.open("203.0.113.80", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=30)
    assert bytes(session.reply) == b"HTTP/1.1 200 OK\r\n\r\nhello from target"


@pytest.mark.parametrize("method,profile", [
    ("chacha20-ietf-poly1305", "outline-1.0.7"),
    ("aes-256-ctr", "ss-libev-3.3.1"),
])
def test_burst_reply_to_client_without_observer(method, profile, monkeypatch):
    """A multi-segment reply burst reaches a client that passes no
    ``on_reply``: every payload of the run goes through ``on_data``."""
    body = random.Random(7).randbytes(6000)
    sim, net, client, server, (_, _, target_host) = build_world(method, profile)
    target_host.listen(81, lambda conn: setattr(
        conn, "on_data", lambda data: conn.send(body)))
    session = client.open("203.0.113.80", 81, b"GET /big")
    client_runs = []
    handle_burst = TcpConnection.handle_burst

    def spy(conn, segs):
        consumed = handle_burst(conn, segs)
        if conn is session.conn:
            client_runs.append(sum(1 for seg in segs[:consumed] if seg.payload))
        return consumed

    monkeypatch.setattr(TcpConnection, "handle_burst", spy)
    sim.run(until=30)
    assert bytes(session.reply) == body
    assert max(client_runs, default=0) >= 2


def test_roundtrip_by_hostname():
    sim, net, client, server, _ = build_world("aes-256-gcm", "ss-libev-3.3.1")
    session = client.open("example.com", 80, b"GET /")
    sim.run(until=30)
    assert b"hello from target" in bytes(session.reply)


def test_unresolvable_hostname_gets_finack():
    sim, net, client, server, _ = build_world("aes-256-gcm", "ss-libev-3.3.1")
    session = client.open("no-such-host.invalid", 80, b"GET /")
    sim.run(until=30)
    assert session.closed and not session.reset
    assert session.reply == bytearray()


def test_unreachable_ip_gets_finack():
    sim, net, client, server, _ = build_world("aes-128-gcm", "ss-libev-3.1.3")
    session = client.open("203.0.113.99", 80, b"GET /")  # no such host attached
    sim.run(until=30)
    assert session.closed and not session.reset


def test_multiple_sequential_connections():
    sim, net, client, server, _ = build_world("chacha20-ietf-poly1305", "outline-1.0.8")
    sessions = []

    def open_one(i):
        sessions.append(client.open("203.0.113.80", 80, b"GET /%d" % i))

    for i in range(5):
        sim.schedule(i * 2.0, open_one, i)
    sim.run(until=60)
    assert len(sessions) == 5
    for s in sessions:
        assert b"hello from target" in bytes(s.reply)


def test_bidirectional_streaming():
    sim, net, client, server, hosts = build_world("aes-256-gcm", "ss-libev-3.3.1")
    _, _, target_host = hosts

    # Replace the simple responder with an echo, exercising multiple chunks
    # in both directions.
    target_host.unlisten(80)

    def echo(conn):
        conn.on_data = lambda data: conn.send(data)

    target_host.listen(80, echo)
    session = client.open("203.0.113.80", 80, b"chunk-0 ")
    sim.schedule(1.0, session.send, b"chunk-1 ")
    sim.schedule(2.0, session.send, b"chunk-2")
    sim.run(until=30)
    assert bytes(session.reply) == b"chunk-0 chunk-1 chunk-2"


def test_unmerged_header_first_packet_constant_size():
    """Outline-style clients send a constant-size first packet (§11)."""
    sizes = []
    for payload in (b"a" * 10, b"b" * 400):
        sim, net, client, server, hosts = build_world(
            "chacha20-ietf-poly1305", "outline-1.0.7", merge_header=False
        )
        client_host = hosts[0]
        client.open("203.0.113.80", 80, payload)
        sim.run(until=5)
        first = [
            r.segment for r in client_host.capture.sent() if r.segment.is_data
        ][0]
        sizes.append(len(first.payload))
    assert sizes[0] == sizes[1]  # header-only first packet: constant


def test_merged_header_first_packet_varies():
    sizes = []
    for payload in (b"a" * 10, b"b" * 400):
        sim, net, client, server, hosts = build_world(
            "chacha20-ietf-poly1305", "outline-1.0.7", merge_header=True
        )
        client_host = hosts[0]
        client.open("203.0.113.80", 80, payload)
        sim.run(until=5)
        first = [r.segment for r in client_host.capture.sent() if r.segment.is_data][0]
        sizes.append(len(first.payload))
    assert sizes[1] - sizes[0] == 390


def test_wrong_password_rejected():
    sim, net, client, server, _ = build_world("aes-256-gcm", "ss-libev-3.0.8")
    bad_client = ShadowsocksClient(
        Host(sim, net, "192.0.2.11", "intruder"),
        "198.51.100.5", 8388, "not-the-password", "aes-256-gcm",
    )
    session = bad_client.open("203.0.113.80", 80, b"GET /")
    sim.run(until=30)
    # Old libev resets on authentication failure.
    assert session.reset
    assert session.reply == bytearray()
