"""How a proxy server session dials its target and closes.

Every case runs on the Shadowsocks server and on the obfs Tor bridge:
both relay through :class:`repro.protocols.relay.RelaySession`, so each
close path must draw the same reaction from either.
"""

import pytest

from repro.net import Flags, Host, Network, Simulator
from repro.obfs import ObfsClient, ObfsServer
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer

from .accepted import accepted_sessions

STACKS = ("shadowsocks", "obfs")
METHOD = "chacha20-ietf-poly1305"


def _world(stack, on_target_data):
    """A client, a ``stack`` server and a web target at ``example.com:80``
    whose connections answer data with ``on_target_data(conn, data)``."""
    sim = Simulator()
    net = Network(sim)
    client_host = Host(sim, net, "192.0.2.10", "client")
    server_host = Host(sim, net, "198.51.100.5", "server")
    target_host = Host(sim, net, "203.0.113.80", "web")
    target_host.listen(80, lambda conn: setattr(
        conn, "on_data", lambda data: on_target_data(conn, data)))
    net.register_name("example.com", target_host.ip)
    if stack == "shadowsocks":
        server = ShadowsocksServer(server_host, 443, "pw", METHOD)
        client = ShadowsocksClient(client_host, server_host.ip, 443, "pw",
                                   METHOD)
    else:
        server = ObfsServer(server_host, 443, "bridge", "obfs4")
        client = ObfsClient(client_host, server_host.ip, 443, "bridge",
                            profile="obfs4")
    return sim, net, client, server, target_host


@pytest.mark.parametrize("stack", STACKS)
def test_unresolvable_target_closes_after_dns_delay(stack):
    """The target names a host that does not resolve: the server answers
    with FIN/ACK one resolver delay after the request arrives."""
    sim, _, client, server, _ = _world(stack, lambda conn, data: None)
    sessions = accepted_sessions(server)
    session = client.open("nowhere.example", 80, b"GET /")
    sim.run(until=30)
    assert session.closed and not session.reset and not session.reply
    capture = server.host.capture
    request = next(r for r in capture.received() if r.segment.is_data)
    fin = next(r for r in capture.sent() if r.segment.flags & Flags.FIN)
    assert fin.time - request.time == pytest.approx(server.dns_delay)
    assert sessions[0].state == sessions[0].DONE


@pytest.mark.parametrize("stack", STACKS)
def test_target_reset_resets_client(stack):
    """A target that answers the request with RST: the server resets the
    client connection."""
    sim, _, client, server, _ = _world(stack, lambda conn, data: conn.abort())
    sessions = accepted_sessions(server)
    session = client.open("example.com", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=30)
    assert session.reset and not session.reply
    relayed = sessions[0]
    assert relayed.state == relayed.DONE and relayed.remote.reset_received


@pytest.mark.parametrize("stack", STACKS)
def test_target_fin_while_relaying_closes_client_with_fin(stack):
    """A target that answers and then closes: the client gets the reply,
    then FIN/ACK, not RST."""
    def answer_and_close(conn, data):
        conn.send(b"HTTP/1.1 200 OK\r\n\r\nbye")
        conn.close()

    sim, _, client, server, _ = _world(stack, answer_and_close)
    sessions = accepted_sessions(server)
    session = client.open("example.com", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=30)
    assert bytes(session.reply) == b"HTTP/1.1 200 OK\r\n\r\nbye"
    assert session.closed and not session.reset
    assert sessions[0].state == sessions[0].DONE


@pytest.mark.parametrize("stack", STACKS)
def test_client_rst_while_dialing_aborts_upstream(stack):
    """The client resets while the dial to a slow target is pending: the
    server aborts the dial and the session is done."""
    sim, net, client, server, target_host = _world(
        stack, lambda conn, data: None)
    net.set_latency(server.host.ip, target_host.ip, 1.0)
    sessions = accepted_sessions(server)
    session = client.open("example.com", 80, b"GET /")
    sim.schedule(0.5, session.conn.abort)
    sim.run(until=30)
    assert sessions[0].state == sessions[0].DONE
    assert any(r.segment.flags & Flags.RST and r.segment.dst_ip == target_host.ip
               for r in server.host.capture.sent())
    assert not any(r.segment.is_data for r in target_host.capture.received())


@pytest.mark.parametrize("stack", STACKS)
def test_idle_timeout_closes_with_fin(stack):
    """A client that stalls mid-handshake: the server closes with FIN/ACK
    its own idle timeout after the last bytes arrived."""
    sim, _, client, server, _ = _world(stack, lambda conn, data: None)
    conn = client.host.connect(server.host.ip, 443)
    conn.on_connected = lambda: conn.send(b"\x01\x02\x03")
    sim.run(until=server.idle_timeout + 30)
    assert conn.fin_received and not conn.reset_received
    capture = server.host.capture
    request = next(r for r in capture.received() if r.segment.is_data)
    fin = next(r for r in capture.sent() if r.segment.flags & Flags.FIN)
    assert fin.time - request.time == pytest.approx(server.idle_timeout)
