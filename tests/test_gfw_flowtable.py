"""FlowTable eviction invariants: count cap, flag dedup and its sweep."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfw import FlowTable
from repro.net import Flags, Segment, Simulator


def syn(i, src="192.0.2.1", dst="198.51.100.1"):
    return Segment(src_ip=src, dst_ip=dst, src_port=10000 + i, dst_port=80,
                   flags=Flags.SYN)


def data(i, payload=b"x" * 64, src="192.0.2.1", dst="198.51.100.1"):
    return Segment(src_ip=src, dst_ip=dst, src_port=10000 + i, dst_port=80,
                   flags=Flags.ACK, payload=payload)


def fin(i, src="192.0.2.1", dst="198.51.100.1"):
    return Segment(src_ip=src, dst_ip=dst, src_port=10000 + i, dst_port=80,
                   flags=Flags.FIN | Flags.ACK)


def make_table(**kwargs):
    sim = Simulator()
    return sim, FlowTable(sim, **kwargs)


def test_syn_opens_flow_and_counts():
    sim, table = make_table()
    table.track(syn(0))
    assert len(table) == 1
    assert table.opened == 1
    assert sim.bus.count("gfw.flow.opened") == 1
    assert syn(0).conn_key() in table


def test_non_syn_without_flow_is_ignored():
    sim, table = make_table()
    table.track(data(0))
    assert len(table) == 0
    assert table.opened == 0


def test_fin_and_rst_reclaim_the_flow():
    sim, table = make_table()
    table.track(syn(0))
    table.track(fin(0))
    assert len(table) == 0
    rst = syn(1).copy(flags=Flags.RST)
    table.track(syn(1))
    table.track(rst)
    assert len(table) == 0


def test_first_initiator_data_fires_once_with_key_flow_segment():
    sim, table = make_table()
    seen = []
    table.on_first_initiator_data = (
        lambda key, flow, seg: seen.append((key, flow, seg.payload)))
    table.track(syn(0))
    table.track(data(0, b"feature"))
    table.track(data(0, b"second"))
    assert [payload for _k, _f, payload in seen] == [b"feature"]
    key, flow, _payload = seen[0]
    assert key == syn(0).conn_key()
    assert flow.saw_initiator_data


def test_first_responder_data_fires_once():
    sim, table = make_table()
    responders = []
    table.on_first_responder_data = lambda flow: responders.append(
        (flow.responder_ip, flow.responder_port))
    table.track(syn(0))
    # Responder -> initiator data (reversed endpoints of the same flow).
    reply = Segment(src_ip="198.51.100.1", dst_ip="192.0.2.1", src_port=80,
                    dst_port=10000, flags=Flags.ACK, payload=b"srv")
    table.track(reply)
    table.track(reply)
    assert responders == [("198.51.100.1", 80)]


def test_idle_sweep_amortized_over_track_calls():
    sim, table = make_table()
    key = syn(0).conn_key()
    table.note_flagged(key, now=0.0)
    sim.now = 1000.0
    # The (interval-1)-th tracked segment: the stale record survives.
    table._track_calls = FlowTable.EVICTION_SWEEP_INTERVAL - 2
    table.track(syn(1))
    assert key in table._flagged_recently
    # The interval-th tracked segment sweeps it.
    table.track(syn(2))
    assert key not in table._flagged_recently


def test_no_idle_sweep_without_timeout():
    sim, table = make_table()
    table.track(syn(0))
    sim.now = 1e9
    table.sweep(sim.now)
    assert len(table) == 1
    assert table.evicted == 0


def test_count_cap_evicts_least_recently_seen_quartile():
    sim, table = make_table(max_flows=8)
    for i in range(8):
        sim.now = float(i)
        table.track(syn(i))
    assert len(table) == 8
    sim.now = 100.0
    table.track(syn(8))
    # Quartile (2 oldest) evicted before admitting the ninth flow.
    assert len(table) == 7
    assert table.evicted == 2
    assert sim.bus.count("gfw.flow.evicted") == 2
    assert syn(0).conn_key() not in table
    assert syn(1).conn_key() not in table
    assert syn(2).conn_key() in table
    assert syn(8).conn_key() in table


def test_count_cap_independent_of_idle_sweep():
    # The cap fires on admission; the sweep never reclaims flows.
    sim, table = make_table(max_flows=4)
    for i in range(5):
        sim.now = float(i)
        table.track(syn(i))
    assert len(table) == 4
    assert table.evicted == 1


def test_flag_dedup_window_expires():
    sim, table = make_table(flag_dedup_window=60.0)
    key = syn(0).conn_key()
    table.note_flagged(key, now=10.0)
    assert table.recently_flagged(key, now=10.0)
    assert table.recently_flagged(key, now=70.0)      # inclusive boundary
    assert not table.recently_flagged(key, now=70.1)


def test_sweep_drops_stale_flag_records_even_without_idle_timeout():
    sim, table = make_table()
    key = syn(0).conn_key()
    table.note_flagged(key, now=0.0)
    table.sweep(now=1000.0)
    assert not table._flagged_recently


def test_scratchpad_lazy_and_persistent():
    sim, table = make_table()
    table.track(syn(0))
    flow = table.flows[syn(0).conn_key()]
    assert flow.scratch is None        # stateless stages never allocate
    pad = flow.scratchpad()
    pad["hits"] = 3
    assert flow.scratchpad() is pad
    assert flow.scratch == {"hits": 3}


def test_firewall_inside_cache_cap_is_separate_hygiene():
    # The border-predicate cache cap lives on the orchestrator, not the
    # flow table: overflowing it clears the cache (a pure recompute
    # cost) without touching tracked flows.
    from repro.gfw import GreatFirewall
    from repro.net import Network

    sim = Simulator()
    net = Network(sim)
    gfw = GreatFirewall(sim, net, ["192.0.2.0/24"], inside_cache_max=4)
    gfw.flow_table.track(syn(0))
    for i in range(6):
        gfw.is_inside(f"198.51.100.{i}")
    assert sim.bus.count("gfw.cache.inside_cleared") >= 1
    assert len(gfw._inside_cache) <= 4
    assert len(gfw.flow_table) == 1


# Few distinct values, so equal addresses and ports (and a connection
# to itself) come up often.
flow_ips = st.sampled_from(["192.0.2.1", "192.0.2.10", "198.51.100.1", "10.0.0.2"])
flow_ports = st.sampled_from([0, 80, 443, 8388, 10000, 65535])


@given(src=flow_ips, dst=flow_ips, sport=flow_ports, dport=flow_ports)
@settings(max_examples=200, deadline=None)
def test_conn_key_is_the_sorted_flow_pair(src, dst, sport, dport):
    seg = Segment(src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                  flags=Flags.SYN)
    back = Segment(src_ip=dst, dst_ip=src, src_port=dport, dst_port=sport,
                   flags=Flags.ACK)
    assert seg.conn_key() == tuple(sorted((seg.flow(), seg.reverse_flow())))
    assert seg.conn_key() == back.conn_key()
