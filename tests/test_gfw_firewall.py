"""GreatFirewall middlebox mechanics: borders, flows, self-exclusion."""

import random

import pytest

from repro.runtime.topology import CHINA_CIDRS, build_world
from repro.gfw import DetectorConfig, GreatFirewall
from repro.net import Flags, Host, Network, Segment, Simulator

AGGRESSIVE = DetectorConfig(base_rate=1.0, length_filter=False,
                            entropy_filter=False)


def make_gfw(**kwargs):
    sim = Simulator()
    net = Network(sim)
    gfw = GreatFirewall(sim, net, ["192.0.2.0/24"],
                        detector_config=kwargs.pop("detector_config", AGGRESSIVE),
                        **kwargs)
    return sim, net, gfw


def test_is_inside_cached_lookup():
    sim, net, gfw = make_gfw()
    assert gfw.is_inside("192.0.2.55")
    assert not gfw.is_inside("198.51.100.1")
    # Second call hits the cache (same result).
    assert gfw.is_inside("192.0.2.55")
    assert "192.0.2.55" in gfw._inside_cache


def test_crosses_border():
    sim, net, gfw = make_gfw()
    cross = Segment(src_ip="192.0.2.1", dst_ip="198.51.100.1", src_port=1,
                    dst_port=2, flags=Flags.SYN)
    inside = Segment(src_ip="192.0.2.1", dst_ip="192.0.2.2", src_port=1,
                     dst_port=2, flags=Flags.SYN)
    outside = Segment(src_ip="198.51.100.1", dst_ip="198.51.100.2", src_port=1,
                      dst_port=2, flags=Flags.SYN)
    assert gfw._interesting(cross.src_ip, cross.dst_ip)
    assert not gfw._interesting(inside.src_ip, inside.dst_ip)
    assert not gfw._interesting(outside.src_ip, outside.dst_ip)


def test_domestic_traffic_not_inspected():
    sim, net, gfw = make_gfw()
    a = Host(sim, net, "192.0.2.1")
    b = Host(sim, net, "192.0.2.2")
    b.listen(80, lambda c: None)
    conn = a.connect("192.0.2.2", 80)
    conn.on_connected = lambda: conn.send(bytes(300))
    sim.run(until=5)
    assert gfw.inspected_connections == 0
    assert gfw.flagged_connections == 0


def test_border_traffic_inspected_and_flagged():
    sim, net, gfw = make_gfw()
    a = Host(sim, net, "192.0.2.1")
    b = Host(sim, net, "198.51.100.1")
    b.listen(80, lambda c: None)
    conn = a.connect("198.51.100.1", 80)
    conn.on_connected = lambda: conn.send(bytes(300))
    sim.run(until=5)
    assert gfw.inspected_connections == 1
    assert gfw.flagged_connections == 1


def test_only_first_data_packet_matters():
    sim, net, gfw = make_gfw()
    flags = []
    gfw.on_flag = lambda flow, payload: flags.append(payload)
    a = Host(sim, net, "192.0.2.1")
    b = Host(sim, net, "198.51.100.1")
    b.listen(80, lambda c: None)
    conn = a.connect("198.51.100.1", 80)
    conn.on_connected = lambda: conn.send(b"first")
    sim.schedule(1.0, conn.send, b"second")
    sim.run(until=5)
    assert flags == [b"first"]


def test_flow_state_reclaimed_on_close():
    sim, net, gfw = make_gfw()
    a = Host(sim, net, "192.0.2.1")
    b = Host(sim, net, "198.51.100.1")
    b.listen(80, lambda c: setattr(c, "on_remote_fin", c.close))
    conn = a.connect("198.51.100.1", 80)
    conn.on_connected = lambda: (conn.send(b"data"), conn.close())
    sim.run(until=10)
    assert len(gfw.flows) == 0


def test_fleet_traffic_excluded_from_detection():
    sim, net, gfw = make_gfw()
    server = Host(sim, net, "198.51.100.1")
    server.listen(8388, lambda c: None)
    # A probe connection from the fleet's own address space.
    ip = gfw.fleet.pick_ip()
    conn = gfw.fleet_host.connect("198.51.100.1", 8388, src_ip=ip)
    conn.on_connected = lambda: conn.send(bytes(400))
    sim.run(until=5)
    assert gfw.inspected_connections == 0
    assert gfw.flagged_connections == 0


def test_responder_data_marks_serves_data():
    sim, net, gfw = make_gfw()
    a = Host(sim, net, "192.0.2.1")
    b = Host(sim, net, "198.51.100.1")
    b.listen(80, lambda c: setattr(c, "on_data", lambda d: c.send(b"reply")))
    conn = a.connect("198.51.100.1", 80)
    conn.on_connected = lambda: conn.send(bytes(200))
    sim.run(until=5)
    state = gfw.scheduler.state_for("198.51.100.1", 80)
    assert state.serves_data


def test_china_cidrs_cover_fleet_and_clients():
    from repro.net import in_cidr

    sim = Simulator()
    net = Network(sim)
    gfw = GreatFirewall(sim, net, CHINA_CIDRS)
    assert gfw.is_inside("100.64.0.1")      # fleet anchor
    assert gfw.is_inside("192.0.2.10")      # Beijing clients
    for _ in range(50):
        assert gfw.is_inside(gfw.fleet.pick_ip())


def test_sensitive_periods_2019_constants():
    from repro.gfw.blocking import SENSITIVE_PERIODS_2019

    assert len(SENSITIVE_PERIODS_2019) == 3
    for start, end in SENSITIVE_PERIODS_2019:
        assert 0 < start < end < 366 * 86400


# ------------------------------------------------- flow-table hygiene


def _seg(sport, flags, payload=b"", src="192.0.2.1", dst="198.51.100.1"):
    return Segment(src_ip=src, dst_ip=dst, src_port=sport, dst_port=80,
                   flags=flags, payload=payload)


def test_no_eviction_without_timeout_by_default():
    sim, net, gfw = make_gfw()
    gfw.process(_seg(5000, Flags.SYN), net)
    sim.now = 10 * 86400.0
    gfw.flow_table._track_calls = gfw.flow_table.EVICTION_SWEEP_INTERVAL - 1
    gfw.process(_seg(5001, Flags.SYN, src="192.0.2.2"), net)
    assert len(gfw.flows) == 2
    assert gfw.flow_table.evicted == 0


def test_flow_count_cap_evicts_oldest_quartile():
    sim, net, gfw = make_gfw(max_flows=8)
    for i in range(8):
        sim.now = float(i)
        gfw.process(_seg(5000 + i, Flags.SYN), net)
    assert len(gfw.flows) == 8
    sim.now = 99.0
    gfw.process(_seg(6000, Flags.SYN), net)
    assert len(gfw.flows) == 7  # 8 - 2 evicted + 1 new
    assert gfw.flow_table.evicted == 2
    assert sim.bus.count("gfw.flow.evicted") == 2
    keys = set(gfw.flows)
    assert _seg(5000, Flags.SYN).conn_key() not in keys  # oldest gone
    assert _seg(5001, Flags.SYN).conn_key() not in keys
    assert _seg(6000, Flags.SYN).conn_key() in keys


def test_inside_cache_bounded():
    sim, net, gfw = make_gfw(inside_cache_max=10)
    for i in range(25):
        gfw.is_inside(f"198.51.{i}.1")
    assert len(gfw._inside_cache) <= 10
    assert sim.bus.count("gfw.cache.inside_cleared") >= 1
    # Correctness is unaffected by the reset.
    assert gfw.is_inside("192.0.2.5")
    assert not gfw.is_inside("198.51.0.1")


# -------------------------------------- retransmission hardening


def test_retransmitted_syn_on_live_flow_not_recounted():
    from repro.net import Impairment

    sim, net, gfw = make_gfw()
    net.set_default_impairment(Impairment(loss=0.5))
    gfw.process(_seg(5000, Flags.SYN), net)
    gfw.process(_seg(5000, Flags.SYN), net)  # retransmitted SYN
    assert gfw.inspected_connections == 1
    assert len(gfw.flows) == 1
    assert sim.bus.count("gfw.flow.opened") == 1
    assert sim.bus.count("gfw.flow.syn.retransmit") == 1


def test_replayed_feature_packet_not_double_flagged():
    sim, net, gfw = make_gfw()
    data = bytes(range(256)) + bytes(44)  # 300 bytes
    gfw.process(_seg(5000, Flags.SYN), net)
    gfw.process(_seg(5000, Flags.PSH | Flags.ACK, payload=data), net)
    assert gfw.flagged_connections == 1
    gfw.process(_seg(5000, Flags.FIN | Flags.ACK), net)
    assert len(gfw.flows) == 0
    # A retransmitted SYN re-creates the flow entry after teardown and
    # the feature packet arrives again: one connection, one flag.
    gfw.process(_seg(5000, Flags.SYN), net)
    gfw.process(_seg(5000, Flags.PSH | Flags.ACK, payload=data), net)
    assert gfw.flagged_connections == 1
    assert sim.bus.count("gfw.conn.flagged") == 1
    assert sim.bus.count("gfw.conn.reflag.suppressed") == 1


def test_reflag_allowed_after_dedup_window():
    sim, net, gfw = make_gfw()
    data = bytes(range(256)) + bytes(44)
    gfw.process(_seg(5000, Flags.SYN), net)
    gfw.process(_seg(5000, Flags.PSH | Flags.ACK, payload=data), net)
    gfw.process(_seg(5000, Flags.FIN | Flags.ACK), net)
    # Well past the dedup window this is a genuinely new connection on a
    # recycled ephemeral port.
    sim.now = gfw.flow_table.flag_dedup_window + 1.0
    gfw.process(_seg(5000, Flags.SYN), net)
    gfw.process(_seg(5000, Flags.PSH | Flags.ACK, payload=data), net)
    assert gfw.flagged_connections == 2
