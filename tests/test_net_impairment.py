"""Impairment model: loss, reorder, duplication, jitter, flaps, TTL."""

import pytest

from repro.net import Flags, Host, Impairment, Network, Segment, Simulator


def make_net(**kwargs):
    sim = Simulator()
    net = Network(sim, **kwargs)
    Host(sim, net, "10.0.0.1", "a")
    Host(sim, net, "10.0.0.2", "b")
    return sim, net


def rst_segment():
    # A stray RST is silently ignored by the receiving host, so these
    # tests count pure deliveries without response chatter.
    return Segment(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1234,
                   dst_port=80, flags=Flags.RST)


# ------------------------------------------------------------- validation


def test_rates_must_be_probabilities():
    for field in ("loss", "reorder", "duplicate"):
        with pytest.raises(ValueError):
            Impairment(**{field: 1.5})
        with pytest.raises(ValueError):
            Impairment(**{field: -0.1})


def test_delays_must_be_nonnegative():
    for field in ("reorder_skew", "duplicate_gap", "jitter"):
        with pytest.raises(ValueError):
            Impairment(**{field: -0.5})


def test_flap_windows_must_be_ordered():
    with pytest.raises(ValueError):
        Impairment(flaps=((5.0, 2.0),))
    with pytest.raises(ValueError):
        Impairment(flaps=((3.0, 3.0),))


def test_active_and_is_down():
    assert not Impairment().active
    assert Impairment(loss=0.1).active
    assert Impairment(jitter=0.1).active
    imp = Impairment(flaps=((10.0, 20.0),))
    assert imp.active
    assert imp.is_down(10.0)
    assert imp.is_down(19.99)
    assert not imp.is_down(20.0)
    assert not imp.is_down(5.0)


# --------------------------------------------------------- network wiring


def test_inactive_impairment_is_equivalent_to_none():
    sim, net = make_net(impairment=Impairment())
    assert net.reliable
    assert net.impairment_for("10.0.0.1", "10.0.0.2") is None
    net.send_segment(rst_segment())
    sim.run(until=1)
    assert net.segments_delivered == 1
    assert net.impairment_drops == 0
    assert sim.bus.counters == {"sim.events": 1}


def test_loss_drops_and_counts():
    sim, net = make_net(impairment=Impairment(loss=1.0))
    assert not net.reliable
    net.send_segment(rst_segment())
    sim.run(until=1)
    assert net.segments_delivered == 0
    assert net.impairment_drops == 1
    assert sim.bus.count("net.loss") == 1


def test_duplicate_delivers_twice():
    sim, net = make_net(impairment=Impairment(duplicate=1.0))
    net.send_segment(rst_segment())
    sim.run(until=1)
    assert net.segments_delivered == 2
    assert sim.bus.count("net.duplicate") == 1


def test_reorder_holds_segment_back():
    sim, net = make_net(
        impairment=Impairment(reorder=1.0, reorder_skew=0.5))
    net.send_segment(rst_segment())
    sim.run(until=0.1)          # past base latency, before the skew
    assert net.segments_delivered == 0
    sim.run(until=1)
    assert net.segments_delivered == 1
    assert sim.bus.count("net.reorder") == 1


def test_jitter_never_drops():
    sim, net = make_net(impairment=Impairment(jitter=0.25))
    for _ in range(20):
        net.send_segment(rst_segment())
    sim.run(until=2)
    assert net.segments_delivered == 20
    assert net.impairment_drops == 0


def test_flap_window_blacks_out_the_link():
    sim, net = make_net(impairment=Impairment(flaps=((10.0, 20.0),)))
    net.send_segment(rst_segment())                       # t=0: up
    sim.schedule(15.0, net.send_segment, rst_segment())   # t=15: down
    sim.schedule(25.0, net.send_segment, rst_segment())   # t=25: up again
    sim.run(until=30)
    assert net.segments_delivered == 2
    assert sim.bus.count("net.flap.drop") == 1


def test_per_pair_impairment_scoped_to_that_path():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "10.0.0.1", "a")
    Host(sim, net, "10.0.0.2", "b")
    Host(sim, net, "10.0.0.3", "c")
    assert net.reliable
    net.set_impairment("10.0.0.1", "10.0.0.2", Impairment(loss=1.0))
    assert not net.reliable
    net.send_segment(rst_segment())  # impaired pair: dropped
    other = Segment(src_ip="10.0.0.1", dst_ip="10.0.0.3", src_port=1,
                    dst_port=80, flags=Flags.RST)
    net.send_segment(other)          # unimpaired pair: delivered
    sim.run(until=1)
    assert net.segments_delivered == 1
    assert net.impairment_drops == 1
    net.set_impairment("10.0.0.1", "10.0.0.2", None)
    assert net.reliable


def test_set_default_impairment_toggles_reliable():
    sim, net = make_net()
    assert net.reliable
    net.set_default_impairment(Impairment(loss=0.5))
    assert not net.reliable
    net.set_default_impairment(Impairment())  # inactive clears
    assert net.reliable


def test_impaired_runs_are_seed_reproducible():
    def run(seed):
        import random
        sim = Simulator()
        net = Network(sim, impairment=Impairment(loss=0.3, reorder=0.2,
                                                 duplicate=0.1, jitter=0.01),
                      rng=random.Random(seed))
        Host(sim, net, "10.0.0.1", "a")
        Host(sim, net, "10.0.0.2", "b")
        for _ in range(200):
            net.send_segment(rst_segment())
        sim.run(until=5)
        return (net.segments_delivered, net.impairment_drops,
                dict(sim.bus.counters))

    assert run(11) == run(11)
    assert run(11) != run(12)  # different draws with a different seed


# --------------------------------------------------------- TTL regression


def test_ttl_expired_segment_dropped_not_delivered():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "10.0.0.1", "a")
    b = Host(sim, net, "10.0.0.2", "b")
    received = []
    b.capture.subscribe(lambda rec: received.append(rec.segment))
    net.set_hops("10.0.0.1", "10.0.0.2", 64)
    seg = Segment(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1,
                  dst_port=80, flags=Flags.RST, ttl=64)
    net.send_segment(seg)
    sim.run(until=1)
    assert received == []
    assert net.segments_delivered == 0
    assert net.segments_dropped == 1
    assert sim.bus.count("net.ttl.expired") == 1


def test_ttl_surviving_segment_still_delivered():
    sim = Simulator()
    net = Network(sim)
    Host(sim, net, "10.0.0.1", "a")
    b = Host(sim, net, "10.0.0.2", "b")
    received = []
    b.capture.subscribe(lambda rec: received.append(rec.segment))
    net.set_hops("10.0.0.1", "10.0.0.2", 63)
    seg = Segment(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1,
                  dst_port=80, flags=Flags.RST, ttl=64)
    net.send_segment(seg)
    sim.run(until=1)
    assert len(received) == 1
    assert received[0].ttl == 1
