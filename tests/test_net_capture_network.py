"""Capture queries, middlebox chaining, and network policies."""

import pytest

from repro.net import (
    Capture,
    Flags,
    Host,
    Middlebox,
    Network,
    Segment,
    Simulator,
    export_capture,
)


def seg(src="1.1.1.1", dst="2.2.2.2", sport=1000, dport=80, flags=Flags.SYN,
        payload=b""):
    return Segment(src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                   flags=flags, payload=payload)


# ----------------------------------------------------------------- capture


def test_capture_basic_queries():
    cap = Capture()
    cap.record(seg(), 1.0, sent=False)
    cap.record(seg(flags=Flags.PSH | Flags.ACK, payload=b"xy"), 2.0, sent=True)
    assert len(cap) == 2
    assert len(cap.received()) == 1
    assert len(cap.sent()) == 1
    assert len(cap.syns_received()) == 1
    assert len(cap.data_segments()) == 1


def test_capture_disable():
    cap = Capture()
    cap.enabled = False
    cap.record(seg(), 1.0, sent=False)
    assert len(cap) == 0


def test_capture_without_buffering_cannot_be_read(tmp_path):
    cap = Capture()
    cap.buffering = False
    seen = []
    cap.record(seg(), 1.0, sent=False)
    cap.subscribe(seen.append)
    cap.record(seg(), 2.0, sent=False)
    cap.record(seg(flags=Flags.PSH | Flags.ACK, payload=b"xy"), 3.0, sent=True)
    assert len(cap) == 0
    assert [(rec.time, rec.sent) for rec in seen] == [(2.0, False), (3.0, True)]
    path = tmp_path / "x.pcap"
    reads = [lambda: cap.records, cap.sent, cap.received, cap.syns_received,
             lambda: list(cap), lambda: export_capture(path, cap),
             lambda: export_capture(path, cap, received_only=True)]
    for read in reads:
        with pytest.raises(RuntimeError, match="keeps no records"):
            read()
    assert not path.exists()


def test_capture_first_payload_from():
    cap = Capture()
    cap.record(seg(flags=Flags.PSH | Flags.ACK, payload=b"first"), 1.0, False)
    cap.record(seg(flags=Flags.PSH | Flags.ACK, payload=b"second"), 2.0, False)
    assert cap.first_payload_from("1.1.1.1") == b"first"
    assert cap.first_payload_from("9.9.9.9") is None


def test_capture_connections_grouping():
    cap = Capture()
    cap.record(seg(), 1.0, False)
    reply = seg(src="2.2.2.2", dst="1.1.1.1", sport=80, dport=1000,
                flags=Flags.SYN | Flags.ACK)
    cap.record(reply, 1.1, True)
    cap.record(seg(src="3.3.3.3"), 2.0, False)
    groups = cap.connections()
    assert len(groups) == 2


def test_capture_clear():
    cap = Capture()
    cap.record(seg(), 1.0, False)
    cap.clear()
    assert len(cap) == 0


# -------------------------------------------------------------- middleboxes


class Dropper(Middlebox):
    def __init__(self, match_port):
        self.match_port = match_port
        self.dropped = 0

    def process(self, segment, network):
        if segment.dst_port == self.match_port:
            self.dropped += 1
            return []
        return [segment]


class Tagger(Middlebox):
    """Rewrites TTL, to verify ordering of the chain."""

    def process(self, segment, network):
        return [segment.copy(ttl=100)]


def test_middlebox_drop():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    b.listen(80, lambda c: None)
    dropper = Dropper(80)
    net.add_middlebox(dropper)
    conn = a.connect("10.0.0.2", 80)
    sim.run(until=10)
    assert dropper.dropped > 0
    assert conn.state == "SYN_SENT"  # SYN never got through
    assert net.segments_dropped > 0


def test_middlebox_chain_order():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    b.listen(80, lambda c: None)
    net.add_middlebox(Tagger())
    a.connect("10.0.0.2", 80)
    sim.run(until=1)
    received = b.capture.received()
    expected = 100 - net.hops("10.0.0.1", "10.0.0.2")
    assert received and all(r.segment.ttl == expected for r in received)


def test_remove_middlebox():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    b.listen(80, lambda c: None)
    dropper = Dropper(80)
    net.add_middlebox(dropper)
    net.remove_middlebox(dropper)
    conn = a.connect("10.0.0.2", 80)
    ok = []
    conn.on_connected = lambda: ok.append(True)
    sim.run(until=5)
    assert ok


# ------------------------------------------------------------------ network


def test_unreachable_refuse_policy():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    conn = a.connect("10.9.9.9", 80)
    sim.run(until=5)
    assert conn.reset_received


def test_unreachable_drop_policy():
    sim = Simulator()
    net = Network(sim, unreachable_policy="drop")
    a = Host(sim, net, "10.0.0.1")
    conn = a.connect("10.9.9.9", 80)
    sim.run(until=5)
    assert not conn.reset_received
    assert conn.state == "SYN_SENT"


def test_bad_unreachable_policy():
    with pytest.raises(ValueError):
        Network(Simulator(), unreachable_policy="bounce")


def test_dns_registry():
    net = Network(Simulator())
    net.register_name("example.com", "1.2.3.4")
    assert net.resolve("example.com") == "1.2.3.4"
    assert net.resolve("nope.invalid") is None


def test_latency_configuration():
    sim = Simulator()
    net = Network(sim)
    net.set_latency("10.0.0.1", "10.0.0.2", 0.5)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    b.listen(80, lambda c: None)
    a.connect("10.0.0.2", 80)
    sim.run(until=0.4)
    assert len(b.capture.received()) == 0  # still in flight
    sim.run(until=0.6)
    assert len(b.capture.received()) == 1


def test_duplicate_ip_rejected():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "10.0.0.1")
    with pytest.raises(ValueError):
        Host(sim, net, "10.0.0.1")


def test_register_extra_ip_collision_rejected():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    with pytest.raises(ValueError):
        net.register_extra_ip(a, "10.0.0.2")


def test_wildcard_hops():
    sim = Simulator()
    net = Network(sim)
    net.set_hops("10.0.0.1", "*", 20)
    assert net.hops("10.0.0.1", "anything") == 20
    assert net.hops("10.0.0.2", "x") == Network.DEFAULT_HOPS
    net.set_hops("10.0.0.1", "10.0.0.9", 3)
    assert net.hops("10.0.0.1", "10.0.0.9") == 3  # exact beats wildcard
