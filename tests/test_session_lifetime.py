"""Servers and drivers keep no per-connection history.

A session must be freed once its connection has closed and its timers
have run: a run of months would otherwise hold every connection it ever
saw.  Each test holds sessions through weak references, or not at all.
"""

import gc
import random
import weakref

import pytest

from repro.net import Host, Network, Simulator
from repro.obfs import ObfsClient, ObfsServer
from repro.probesim import ProberSimulator
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.shadowsocks.server import ServerSession
from repro.vmess import VmessClient, VmessServer
from repro.workloads import CurlDriver

from .accepted import accepted_sessions

USER_ID = bytes(range(16))


def _world():
    """A client host, a server host and a web host at ``site.example``
    that answers data and closes on FIN, like the worlds' websites."""
    sim = Simulator()
    net = Network(sim)
    client_host = Host(sim, net, "192.0.2.40", "client")
    server_host = Host(sim, net, "198.51.100.40", "server")
    web = Host(sim, net, "198.18.0.40", "web")

    def web_app(conn):
        conn.on_data = lambda data: conn.send(b"HTTP/1.1 200 OK\r\n\r\nhi")
        conn.on_remote_fin = conn.close

    web.listen(80, web_app)
    net.register_name("site.example", web.ip)
    return sim, client_host, server_host


def _assert_freed(sim, refs):
    sim.run()  # every connection closes and every timer runs
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


@pytest.mark.parametrize("method", ["aes-256-cfb", "chacha20-ietf-poly1305"])
def test_shadowsocks_session_freed_after_close(method):
    sim, client_host, server_host = _world()
    server = ShadowsocksServer(server_host, 8388, "pw", method)
    refs = accepted_sessions(server, keep=weakref.ref)
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw", method)
    session = client.open("site.example", 80, b"GET /")
    sim.run(until=10)
    assert bytes(session.reply).endswith(b"hi")
    session.close()
    _assert_freed(sim, refs)


def test_vmess_session_freed_after_close():
    sim, client_host, server_host = _world()
    server = VmessServer(server_host, 10086, USER_ID, rng=random.Random(1))
    refs = accepted_sessions(server, keep=weakref.ref)
    client = VmessClient(client_host, server_host.ip, 10086, USER_ID,
                         rng=random.Random(2))
    session = client.open("site.example", 80, b"GET /")
    sim.run(until=10)
    assert bytes(session.reply).endswith(b"hi")
    session.close()
    _assert_freed(sim, refs)


def test_obfs_session_freed_after_close():
    sim, client_host, server_host = _world()
    server = ObfsServer(server_host, 443, "bridge", "obfs4")
    refs = accepted_sessions(server, keep=weakref.ref)
    client = ObfsClient(client_host, server_host.ip, 443, "bridge",
                        profile="obfs4")
    session = client.open("site.example", 80, b"GET /")
    sim.run(until=30)
    assert bytes(session.reply).endswith(b"hi")
    session.close()
    _assert_freed(sim, refs)


def test_curl_driver_session_freed_after_idle_close():
    """The driver never closes a fetch: the server's idle timer does."""
    sim, client_host, server_host = _world()
    ShadowsocksServer(server_host, 8388, "pw", "aes-256-gcm")
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw",
                               "aes-256-gcm")
    driver = CurlDriver(client, sites=["site.example"], target_port=80)
    ref = weakref.ref(driver.fetch_once())
    sim.run(until=10)
    assert bytes(ref().reply).endswith(b"hi")
    _assert_freed(sim, [ref])


@pytest.mark.parametrize("profile", ["ss-libev-3.0.8", "ss-libev-3.3.1"])
def test_prober_simulator_keeps_no_session(profile):
    """Random probes draw RST (3.0.8) or drain until the idle timeout
    (3.3.1); once the queue is drained, no probed session is left."""
    prober = ProberSimulator(profile, "aes-256-gcm", seed=4)
    for length in range(1, 221, 6):
        prober.send_random_probe(length)
    prober.sim.run()
    gc.collect()
    live = [obj for obj in gc.get_objects()
            if type(obj) is ServerSession and obj.server is prober.server]
    assert live == []


@pytest.mark.parametrize("profile", ["ss-libev-3.0.8", "ss-libev-3.3.1"])
def test_probed_session_freed_without_the_collector(profile):
    """A closed connection drops its callbacks and a cancelled timer its
    callback, so a probed session is freed by reference counting alone:
    with the collector off, no weak reference survives the drain."""
    prober = ProberSimulator(profile, "aes-256-gcm", seed=4)
    refs = accepted_sessions(prober.server, keep=weakref.ref)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for length in (1, 50, 221):
            prober.send_random_probe(length)
        prober.sim.run()
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
