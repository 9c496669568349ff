"""TCP retransmission machinery: armed only on unreliable networks."""

import random

from repro.net import Flags, Host, Impairment, Network, Simulator, TcpState


def make_pair(impairment=None, seed=5):
    sim = Simulator()
    net = Network(sim, impairment=impairment, rng=random.Random(seed))
    client = Host(sim, net, "10.0.0.1", "client")
    server = Host(sim, net, "10.0.0.2", "server")
    return sim, net, client, server


class Collector:
    def __init__(self, conn):
        self.conn = conn
        self.data = bytearray()
        conn.on_data = self.data.extend
        conn.on_remote_fin = conn.close


def test_reliable_connection_has_no_retx_machinery():
    sim, net, client, server = make_pair()
    server.listen(80, Collector)
    conn = client.connect("10.0.0.2", 80)
    assert conn.reliable
    sim.run(until=2)
    assert conn.state == TcpState.ESTABLISHED
    assert conn._retx_queue == []
    assert conn._retx_event is None
    assert conn.retransmits == 0


def test_syn_retry_survives_initial_blackout():
    # The link is down for the first 1.5 s: the SYN (and the first
    # retry at +1 s) are lost; the +3 s retry lands.
    sim, net, client, server = make_pair(
        impairment=Impairment(flaps=((0.0, 1.5),)))
    server.listen(80, Collector)
    conn = client.connect("10.0.0.2", 80)
    assert not conn.reliable
    sim.run(until=10)
    assert conn.state == TcpState.ESTABLISHED
    assert conn.retransmits >= 1
    assert sim.bus.count("tcp.syn.retry") >= 1
    assert sim.bus.count("net.flap.drop") >= 1


def test_syn_retry_backoff_then_give_up():
    # Permanent blackout: the SYN is retried SYN_RETRIES times with
    # exponential backoff (1, 2, 4, 8, 16 s), then the connection gives
    # up locally.
    sim, net, client, server = make_pair(
        impairment=Impairment(flaps=((0.0, 1e9),)))
    server.listen(80, Collector)
    conn = client.connect("10.0.0.2", 80)
    sim.run(until=120)
    syn_times = [rec.time for rec in client.capture.sent()
                 if rec.segment.is_syn]
    assert len(syn_times) == 1 + conn.SYN_RETRIES
    gaps = [b - a for a, b in zip(syn_times, syn_times[1:])]
    assert gaps == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert conn.timed_out
    assert conn.state == TcpState.CLOSED
    assert sim.bus.count("tcp.timeout") == 1


def test_bulk_transfer_survives_heavy_loss():
    sim, net, client, server = make_pair(
        impairment=Impairment(loss=0.25), seed=3)
    server.listen(80, Collector)
    apps = []
    server.listen(81, lambda c: apps.append(Collector(c)))
    conn = client.connect("10.0.0.2", 81)
    payload = bytes(range(256)) * 40  # several MSS worth
    conn.on_connected = lambda: (conn.send(payload), conn.close())
    sim.run()
    assert apps and bytes(apps[0].data) == payload
    assert conn.retransmits > 0
    assert sim.bus.count("tcp.retransmit") > 0


def test_duplicates_delivered_exactly_once():
    # No close: the connection stays up while the trailing copies land,
    # so the receiver's dedup path (not connection teardown) absorbs them.
    sim, net, client, server = make_pair(
        impairment=Impairment(duplicate=1.0))
    apps = []
    server.listen(80, lambda c: apps.append(Collector(c)))
    conn = client.connect("10.0.0.2", 80)
    payload = b"once and only once" * 100  # two MSS-sized chunks
    conn.on_connected = lambda: conn.send(payload)
    sim.run(until=30)
    assert apps and bytes(apps[0].data) == payload
    assert apps[0].conn.bytes_received == len(payload)
    assert sim.bus.count("tcp.dup.dropped") > 0


def test_reordered_segments_reassembled_in_order():
    # Half the segments are held back long enough for later ones to
    # overtake them; the receiver must still hand data up in order.
    sim, net, client, server = make_pair(
        impairment=Impairment(reorder=0.5, reorder_skew=0.2), seed=9)
    apps = []
    server.listen(80, lambda c: apps.append(Collector(c)))
    conn = client.connect("10.0.0.2", 80)
    payload = bytes(i & 0xFF for i in range(20_000))
    conn.on_connected = lambda: (conn.send(payload), conn.close())
    sim.run()
    assert apps and bytes(apps[0].data) == payload
    assert sim.bus.count("tcp.ooo.buffered") > 0


def test_lost_syn_ack_is_retransmitted():
    # Loss only on the server->client path: the SYN arrives, the
    # SYN/ACK dies, and the server's retransmission timer resends it.
    sim = Simulator()
    net = Network(sim, rng=random.Random(2))
    client = Host(sim, net, "10.0.0.1", "client")
    server = Host(sim, net, "10.0.0.2", "server")
    net.set_impairment("10.0.0.2", "10.0.0.1",
                       Impairment(flaps=((0.0, 1.2),)), symmetric=False)
    apps = []
    server.listen(80, lambda c: apps.append(Collector(c)))
    conn = client.connect("10.0.0.2", 80)
    sim.run(until=30)
    assert conn.state == TcpState.ESTABLISHED
    assert apps[0].conn.state == TcpState.ESTABLISHED
    assert sim.bus.count("tcp.retransmit") >= 1


def test_fin_is_retransmitted_until_acked():
    sim, net, client, server = make_pair(
        impairment=Impairment(loss=0.5), seed=17)
    apps = []
    server.listen(80, lambda c: apps.append(Collector(c)))
    conn = client.connect("10.0.0.2", 80)
    conn.on_connected = lambda: (conn.send(b"bye"), conn.close())
    sim.run()
    assert apps and bytes(apps[0].data) == b"bye"
    assert apps[0].conn.fin_received
    assert conn.state == TcpState.CLOSED


def test_impaired_transfer_is_deterministic():
    def run(seed):
        sim, net, client, server = make_pair(
            impairment=Impairment(loss=0.2, reorder=0.3, duplicate=0.1),
            seed=seed)
        apps = []
        server.listen(80, lambda c: apps.append(Collector(c)))
        conn = client.connect("10.0.0.2", 80)
        payload = bytes(7 * i & 0xFF for i in range(8000))
        conn.on_connected = lambda: (conn.send(payload), conn.close())
        sim.run()
        return (bytes(apps[0].data), conn.retransmits,
                dict(sim.bus.counters))

    assert run(23) == run(23)
