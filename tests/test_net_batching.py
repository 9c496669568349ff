"""Batched datapath plumbing and drop-accounting regressions."""

import pytest

from repro.net import Flags, Host, Network, Segment, Simulator
from repro.net.datagram import Datagram
from repro.net.network import Middlebox
from repro.net.packet import SegmentBurst

from .net_reference import per_segment_tx


def make_net():
    sim = Simulator()
    net = Network(sim)
    return sim, net


def seg(payload=b"", flags=Flags.RST, src="10.0.0.1", dst="10.0.0.2",
        sport=1, dport=80, **kw):
    return Segment(src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                   flags=flags, payload=payload, **kw)


class FanOut(Middlebox):
    """Duplicates every segment (a degenerate packet copier)."""

    def process(self, s, network):
        return [s, s.copy()]


class DropPayloads(Middlebox):
    """Drops data segments, forwards bare control segments."""

    def __init__(self):
        self.dropped = 0

    def process(self, s, network):
        if s.payload:
            self.dropped += 1
            return []
        return [s]


# --------------------------------------------- regression: drop accounting


def test_partial_drop_during_fanout_is_counted():
    # A middlebox dropping some (not all) of a fanned-out round used to
    # go completely uncounted.
    sim, net = make_net()
    net.add_middlebox(FanOut())
    net.add_middlebox(DropPayloads())
    Host(sim, net, "10.0.0.2", "b")
    net.send_segment(seg(payload=b"x", flags=Flags.PSH | Flags.ACK))
    assert net.segments_dropped == 2      # both fanned-out copies
    net.send_segment(seg())               # control segment passes twice
    assert net.segments_dropped == 2
    sim.run()
    assert net.segments_delivered == 2


def test_full_batch_drop_counts_every_segment():
    # A full drop of a fanned-out round used to count as one segment.
    sim, net = make_net()
    fan = FanOut()
    net.add_middlebox(fan)
    net.add_middlebox(fan)                # 1 -> 2 -> 4 copies
    net.add_middlebox(DropPayloads())
    net.send_segment(seg(payload=b"x", flags=Flags.PSH | Flags.ACK))
    assert net.segments_dropped == 4


def test_burst_drop_counts_every_dropped_segment():
    sim, net = make_net()
    net.add_middlebox(DropPayloads())
    Host(sim, net, "10.0.0.2", "b")
    burst = SegmentBurst([
        seg(payload=b"x", flags=Flags.PSH | Flags.ACK),
        seg(),
        seg(payload=b"y", flags=Flags.PSH | Flags.ACK),
    ])
    net.send_segment_burst(burst)
    assert net.segments_dropped == 2
    sim.run()
    assert net.segments_delivered == 1


def test_udp_drops_have_their_own_counter():
    # Datagram drops used to be folded into segments_dropped.
    sim, net = make_net()

    class DropAllDatagrams(Middlebox):
        def process_datagram(self, dgram, network):
            return []

    net.add_middlebox(DropAllDatagrams())
    host = Host(sim, net, "10.0.0.1", "a")
    endpoint = host.udp_bind(4000)
    endpoint.send("10.0.0.2", 53, b"query")
    assert net.datagrams_dropped == 1
    assert net.segments_dropped == 0


def test_udp_unknown_host_counts_datagram_drop():
    sim, net = make_net()
    host = Host(sim, net, "10.0.0.1", "a")
    host.udp_bind(4000).send("10.9.9.9", 53, b"query")
    sim.run()
    assert net.datagrams_dropped == 1
    assert net.segments_dropped == 0
    assert net.datagrams_delivered == 0


def test_udp_delivery_counts_datagrams_not_segments():
    sim, net = make_net()
    a = Host(sim, net, "10.0.0.1", "a")
    b = Host(sim, net, "10.0.0.2", "b")
    got = []
    b_ep = b.udp_bind(53)
    b_ep.on_datagram = got.append
    a.udp_bind(4000).send("10.0.0.2", 53, b"query")
    sim.run()
    assert [d.payload for d in got] == [b"query"]
    assert net.datagrams_delivered == 1
    assert net.segments_delivered == 0


# ------------------------------------------------------------ Datagram.copy


def test_datagram_copy_is_equal_but_distinct():
    d = Datagram(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1,
                 dst_port=2, payload=b"p", ttl=64)
    clone = d.copy()
    assert clone == d and clone is not d
    changed = d.copy(ttl=10, timestamp=4.5)
    assert changed.ttl == 10 and changed.timestamp == 4.5
    assert d.ttl == 64
    with pytest.raises(TypeError):
        d.copy(nonsense=1)


def test_segment_copy_rejects_unknown_fields():
    s = seg()
    with pytest.raises(TypeError):
        s.copy(not_a_field=1)


def test_segment_copy_matches_dataclasses_replace():
    import dataclasses

    s = seg(payload=b"abc", seq=7, ack=9, ttl=60, ip_id=5, tsval=1, tsecr=2,
            timestamp=3.25)
    assert s.copy() == dataclasses.replace(s)
    assert s.copy(ttl=12) == dataclasses.replace(s, ttl=12)
    assert s.copy().timestamp == s.timestamp


# ------------------------------------------------------------ burst basics


def _arrivals(host):
    """Segments ``host`` receives, in arrival order, via a capture tap."""
    received = []

    def tap(rec):
        if not rec.sent:
            received.append(rec.segment)

    host.capture.subscribe(tap)
    return received


def test_burst_requires_segments_and_exposes_soa_views():
    with pytest.raises(ValueError):
        SegmentBurst([])
    members = [seg(payload=b"aa", flags=Flags.PSH | Flags.ACK, seq=10),
               seg(payload=b"bbb", flags=Flags.PSH | Flags.ACK, seq=12)]
    burst = SegmentBurst(members)
    assert burst.segments is members


def test_burst_delivery_matches_per_segment_counters():
    sim, net = make_net()
    b = Host(sim, net, "10.0.0.2", "b")
    received = _arrivals(b)
    net.send_segment_burst(SegmentBurst(
        [seg(seq=i) for i in range(5)]))
    # One weighted event carried the whole burst.
    assert sim.run() == 1
    assert [s.seq for s in received] == list(range(5))
    assert net.segments_delivered == 5
    assert sim.bus.count("sim.events") == 5


def test_default_middlebox_burst_falls_back_to_per_segment_process():
    sim, net = make_net()
    seen = []

    class Recorder(Middlebox):
        def process(self, s, network):
            seen.append(s.seq)
            return [s]

    net.add_middlebox(Recorder())
    Host(sim, net, "10.0.0.2", "b")
    net.send_segment_burst(SegmentBurst([seg(seq=i) for i in range(3)]))
    assert seen == [0, 1, 2]


def test_host_tx_batch_groups_consecutive_same_flow_runs():
    sim, net = make_net()
    a = Host(sim, net, "10.0.0.1", "a")
    Host(sim, net, "10.0.0.2", "b")
    Host(sim, net, "10.0.0.3", "c")
    a.begin_tx_batch()
    a.transmit(seg(seq=1))
    a.transmit(seg(seq=2))
    a.transmit(seg(seq=3, dst="10.0.0.3"))
    a.transmit(seg(seq=4))
    assert sim.pending == 0            # everything buffered
    a.end_tx_batch()
    # Three delivery events: burst [1,2], single [3], single [4] — the
    # global emission order is never reordered across flows.
    assert sim.pending == 3
    sim.run()
    assert net.segments_delivered == 4
    assert sim.bus.count("sim.events") == 4


def test_tx_batching_can_be_disabled():
    # The per-segment reference datapath the batched one is checked
    # against opens no transmit batch: every segment is its own event.
    sim, net = make_net()
    a = Host(sim, net, "10.0.0.1", "a")
    Host(sim, net, "10.0.0.2", "b")
    with per_segment_tx():
        a.begin_tx_batch()
        a.transmit(seg(seq=1))
        a.transmit(seg(seq=2))
        assert sim.pending == 2        # sent immediately, one event each
        a.end_tx_batch()
    sim.run()
    assert net.segments_delivered == 2

