"""VMess model (§9 future work): protocol, proxying, and probing weaknesses."""

import random

import pytest

from repro.net import Flags, Host, Network, Simulator
from repro.vmess import (
    AUTH_WINDOW,
    VmessClient,
    VmessServer,
    auth_for,
    build_request,
    fnv1a32,
    parse_command,
)

from .accepted import accepted_sessions

USER_ID = bytes(range(16))


def make_world(profile="v2ray-legacy"):
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.30", "vmess-server")
    client_host = Host(sim, net, "192.0.2.30", "vmess-client")
    prober_host = Host(sim, net, "192.0.2.31", "prober")
    web = Host(sim, net, "198.18.0.30", "web")
    web.listen(80, lambda c: setattr(c, "on_data",
                                     lambda d: c.send(b"vmess web reply")))
    net.register_name("site.example", web.ip)
    server = VmessServer(server_host, 10086, USER_ID, profile,
                         rng=random.Random(1))
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(2))
    return sim, net, server, client, (server_host, client_host, prober_host)


# ----------------------------------------------------------------- protocol


def test_fnv1a32_known_values():
    assert fnv1a32(b"") == 0x811C9DC5
    assert fnv1a32(b"a") == 0xE40C292C


def test_auth_depends_on_time_and_user():
    a = auth_for(USER_ID, 1000)
    assert len(a) == 16
    assert a != auth_for(USER_ID, 1001)
    assert a != auth_for(bytes(16), 1000)


def test_build_and_parse_roundtrip():
    head, request = build_request(USER_ID, 5000, "site.example", 80,
                                  rng=random.Random(3))
    status, parsed, total = parse_command(USER_ID, 5000, head[16:])
    assert status == "ok"
    assert parsed.host == "site.example"
    assert parsed.port == 80
    assert parsed.response_key == request.response_key
    assert total == len(head) - 16


def test_parse_roundtrip_ipv4():
    head, _ = build_request(USER_ID, 5000, "10.1.2.3", 443,
                            rng=random.Random(4))
    status, parsed, _ = parse_command(USER_ID, 5000, head[16:])
    assert status == "ok" and parsed.host == "10.1.2.3" and parsed.port == 443


def test_parse_needs_more_then_ok():
    head, _ = build_request(USER_ID, 5000, "site.example", 80,
                            rng=random.Random(5), padding_len=7)
    section = head[16:]
    status, _, needed = parse_command(USER_ID, 5000, section[:20])
    assert status == "need_more"
    status, _, _ = parse_command(USER_ID, 5000, section)
    assert status == "ok"


def test_parse_detects_corruption():
    head, _ = build_request(USER_ID, 5000, "site.example", 80,
                            rng=random.Random(6))
    section = bytearray(head[16:])
    section[-1] ^= 0xFF  # corrupt the FNV hash
    status, _, _ = parse_command(USER_ID, 5000, bytes(section))
    assert status == "bad_hash"


def test_padding_nibble_validated():
    with pytest.raises(ValueError):
        build_request(USER_ID, 0, "a.b", 1, padding_len=16)


# ------------------------------------------------------------------ tunnel


def test_vmess_tunnel_roundtrip():
    sim, net, server, client, _ = make_world()
    session = client.open("site.example", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=20)
    assert bytes(session.reply) == b"vmess web reply"


def test_vmess_tunnel_hardened_profile():
    sim, net, server, client, _ = make_world("v2ray-4.23")
    session = client.open("site.example", 80, b"GET /")
    sim.run(until=20)
    assert bytes(session.reply) == b"vmess web reply"


def test_wrong_user_id_rejected():
    sim, net, server, _, (server_host, client_host, _) = make_world()
    intruder = VmessClient(client_host, server_host.ip, 10086, bytes(16),
                           rng=random.Random(7))
    session = intruder.open("site.example", 80, b"GET /")
    sim.run(until=20)
    assert session.reset  # legacy server aborts on bad auth
    assert not session.reply


def test_late_upstream_syn_ack_is_reset_not_proxied():
    """The target's SYN/ACK arrives after the 6 s connect timer: the
    client gets FIN/ACK, and the late upstream connection is reset."""
    sim, net, server, client, (server_host, _, _) = make_world()
    web_ip = net.resolve("site.example")
    net.set_latency(server_host.ip, web_ip, 4.0)  # SYN/ACK after 8 s
    sessions = accepted_sessions(server)
    session = client.open(web_ip, 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=60)
    assert session.closed and not session.reset and not session.reply
    upstream = sessions[0].remote
    assert upstream.reset_sent and upstream.state == "CLOSED"


def test_client_reset_while_dialing_aborts_upstream():
    sim, net, server, client, (server_host, _, _) = make_world()
    web_ip = net.resolve("site.example")
    net.set_latency(server_host.ip, web_ip, 4.0)
    sessions = accepted_sessions(server)
    session = client.open(web_ip, 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.schedule(1.0, session.conn.abort)
    sim.run(until=60)
    proxied = sessions[0]
    assert proxied.state == "done"
    assert proxied.remote.reset_sent and proxied.remote.state == "CLOSED"


def test_target_reset_while_relaying_closes_the_client_leg():
    """The target aborts right after its reply, and the client writes as
    the reply arrives: the server closes the client leg with FIN, sends
    nothing more on the reset upstream, and drops the late write."""
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.30", "vmess-server")
    client_host = Host(sim, net, "192.0.2.30", "vmess-client")
    web = Host(sim, net, "198.18.0.30", "web")

    def reply_and_abort(conn):
        def on_data(data):
            conn.send(b"bye")
            conn.abort()
        conn.on_data = on_data

    web.listen(80, reply_and_abort)
    server = VmessServer(server_host, 10086, USER_ID, rng=random.Random(1))
    sessions = accepted_sessions(server)
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(2))
    session = client.open(web.ip, 80, b"GET /",
                          on_reply=lambda data: session.send(b"more"))
    sim.run(until=60)
    assert bytes(session.reply) == b"bye"
    assert session.closed and not session.reset
    proxied = sessions[0]
    assert proxied.state == "done"
    assert proxied.remote.reset_received and proxied.remote.fin_sent_first is None


def test_unresolvable_target_closes_after_resolver_delay():
    sim, net, server, client, (server_host, _, _) = make_world()
    session = client.open("nowhere.example", 80, b"GET /")
    sim.run(until=20)
    assert session.closed and not session.reset and not session.reply
    request = next(r for r in server_host.capture.received() if r.segment.is_data)
    fin = next(r for r in server_host.capture.sent() if r.segment.flags & Flags.FIN)
    assert fin.time - request.time == pytest.approx(0.05)


def test_idle_timer_closes_both_legs():
    """The idle timer restarts on traffic either way.  The target ticks
    twice and goes quiet: 300 s after the last tick the timer closes the
    client leg and FINs the upstream, and the target's later data is
    dropped instead of sent on the closed client connection."""
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.30", "vmess-server")
    client_host = Host(sim, net, "192.0.2.30", "vmess-client")
    web = Host(sim, net, "198.18.0.30", "web")
    targets = []

    def ticker(conn):
        def tick(left):
            conn.send(b"tick-tock")
            if left > 1:
                sim.schedule(100.0, tick, left - 1)

        targets.append(conn)
        conn.on_data = lambda data: sim.schedule(100.0, tick, 2)

    web.listen(80, ticker)
    server = VmessServer(server_host, 10086, USER_ID, rng=random.Random(1))
    sessions = accepted_sessions(server)
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(2))
    session = client.open(web.ip, 80, b"GET /")
    sim.run(until=400)
    proxied = sessions[0]
    assert proxied.conn.is_open  # 300 s after accept, but not after the ticks
    sim.run(until=600)
    assert proxied.conn.state == "CLOSED" and not proxied.conn.is_open
    assert proxied.remote.fin_sent_first and not proxied.remote.is_open
    assert session.closed and not session.reset
    assert bytes(session.reply) == b"tick-tock" * 2

    capture = server_host.capture
    last = max(r.time for r in capture.received()
               if r.segment.is_data and r.segment.src_ip == web.ip)
    fins = {r.segment.dst_ip: r.time for r in capture.sent()
            if r.segment.flags & Flags.FIN}
    assert fins[client_host.ip] - last == pytest.approx(300.0)
    assert fins[web.ip] - last == pytest.approx(300.0)

    sim.schedule(100.0, targets[0].send, b"late")
    sim.run(until=800)
    assert any(r.segment.is_data and r.segment.src_ip == web.ip and r.time > 600
               for r in capture.received())
    assert bytes(session.reply) == b"tick-tock" * 2


def test_idle_timer_restarts_on_client_data():
    """Client bytes alone keep a session up: with a silent target, the
    timer closes the session 300 s after the client's last send."""
    sim = Simulator()
    net = Network(sim)
    server_host = Host(sim, net, "198.51.100.30", "vmess-server")
    client_host = Host(sim, net, "192.0.2.30", "vmess-client")
    web = Host(sim, net, "198.18.0.30", "web")
    web.listen(80, lambda conn: None)
    server = VmessServer(server_host, 10086, USER_ID, rng=random.Random(1))
    sessions = accepted_sessions(server)
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(2))
    session = client.open(web.ip, 80, b"GET /")
    sim.schedule(200.0, session.send, b"more")
    sim.run(until=450)
    assert sessions[0].conn.is_open and not session.closed
    sim.run(until=600)
    assert session.closed and not session.reset


# ----------------------------------------------------------- probing holes


def record_handshake(sim, client, client_host):
    session = client.open("site.example", 80, b"GET / HTTP/1.1\r\n\r\n")
    sim.run(until=sim.now + 5)
    first = [r.segment for r in client_host.capture.sent()
             if r.segment.is_data and r.segment.dst_port == 10086]
    return bytes(first[0].payload)


def replay(sim, prober_host, server_ip, payload):
    conn = prober_host.connect(server_ip, 10086)
    got = []
    conn.on_data = got.append
    state = {"reset": False}
    conn.on_reset = lambda: state.__setitem__("reset", True)
    conn.on_connected = lambda: conn.send(payload)
    sim.run(until=sim.now + 15)
    return got, state["reset"]


def test_legacy_vulnerable_to_replay_within_window():
    sim, net, server, client, (server_host, client_host, prober_host) = make_world()
    payload = record_handshake(sim, client, client_host)
    got, _ = replay(sim, prober_host, server_host.ip, payload)
    assert got  # the replayed handshake proxies and returns data


def test_legacy_replay_fails_beyond_auth_window():
    sim, net, server, client, (server_host, client_host, prober_host) = make_world()
    payload = record_handshake(sim, client, client_host)
    sim.run(until=sim.now + AUTH_WINDOW * 3)
    got, reset = replay(sim, prober_host, server_host.ip, payload)
    assert not got
    assert reset  # stale auth -> legacy server aborts


def test_hardened_rejects_replay_within_window():
    sim, net, server, client, (server_host, client_host, prober_host) = (
        make_world("v2ray-4.23"))
    payload = record_handshake(sim, client, client_host)
    got, reset = replay(sim, prober_host, server_host.ip, payload)
    assert not got
    assert not reset  # hardened server drains silently


def test_length_oracle_distinguishes_legacy_from_hardened():
    """The #2523-style oracle: a valid auth + garbage command section makes
    a legacy server abort the moment the implied length arrives; a hardened
    server never reacts."""
    outcomes = {}
    for profile in ("v2ray-legacy", "v2ray-4.23"):
        sim, net, server, client, (server_host, client_host, prober_host) = (
            make_world(profile))
        auth = auth_for(USER_ID, int(sim.now))
        garbage = bytes(random.Random(8).randrange(256) for _ in range(80))
        got, reset = replay(sim, prober_host, server_host.ip, auth + garbage)
        outcomes[profile] = reset
    assert outcomes["v2ray-legacy"] is True
    assert outcomes["v2ray-4.23"] is False


def test_vmess_triggers_gfw_probing_like_shadowsocks():
    """§9: VMess traffic is fully encrypted, so the GFW's first-packet
    trigger catches it too."""
    from repro.experiments import build_world
    from repro.gfw import DetectorConfig

    world = build_world(seed=9, detector_config=DetectorConfig(base_rate=1.0),
                        websites=["site.example"])
    server_host = world.add_server("vmess", region="uk")
    client_host = world.add_client("vmess-user")
    VmessServer(server_host, 10086, USER_ID, "v2ray-legacy",
                rng=random.Random(10))
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(11))
    for i in range(15):
        world.sim.schedule(i * 30.0, client.open, "site.example", 80,
                           b"GET / HTTP/1.1\r\n\r\n" + b"x" * 250)
    world.sim.run(until=2 * 3600)
    assert world.gfw.flagged_connections > 0
    assert len(world.gfw.probe_log) > 0
