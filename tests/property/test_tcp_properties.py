"""Property-based tests of the TCP model: integrity under arbitrary traffic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Host, Impairment, Network, Simulator


def build_pair(window, **network):
    """A client host and a listening server that closes on the peer's FIN.

    ``network`` goes to :class:`Network` (``impairment``, ``rng``).
    Returns the simulator, the client host, the server's received bytes
    and the list the server's accepted connections are appended to.
    """
    sim = Simulator()
    net = Network(sim, **network)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    received = bytearray()
    accepted = []

    def app(conn):
        accepted.append(conn)
        conn.rcv_window = window
        conn.on_data = received.extend
        conn.on_remote_fin = conn.close

    b.listen(80, app)
    return sim, a, received, accepted


@given(
    writes=st.lists(st.integers(min_value=1, max_value=4000), min_size=1,
                    max_size=8),
    window=st.integers(min_value=1, max_value=70000),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_all_bytes_delivered_in_order(writes, window, seed):
    """Whatever the write pattern and receive window, every byte arrives
    exactly once and in order."""
    sim, a, received, _ = build_pair(window)
    rng = random.Random(seed)
    blob = bytes(rng.randrange(256) for _ in range(sum(writes)))
    conn = a.connect("10.0.0.2", 80)
    offset = 0
    chunks = []
    for size in writes:
        chunks.append(blob[offset : offset + size])
        offset += size

    def send_all():
        for i, chunk in enumerate(chunks):
            sim.schedule(i * 0.01, conn.send, chunk)
        sim.schedule(len(chunks) * 0.01 + 0.01, conn.close)

    conn.on_connected = send_all
    # No wall-clock bound: a window-1 receiver drains one MSS per RTT, so
    # large blobs legitimately need arbitrarily long.  Run to quiescence.
    sim.run()
    assert bytes(received) == blob


@given(
    writes=st.lists(st.integers(min_value=1, max_value=500), min_size=1,
                    max_size=5),
    window=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=30, deadline=None)
def test_segments_never_exceed_window_or_mss(writes, window):
    sim, a, received, _ = build_pair(window)
    conn = a.connect("10.0.0.2", 80)

    def send_all():
        for i, size in enumerate(writes):
            sim.schedule(i * 0.01, conn.send, bytes(size))

    conn.on_connected = send_all
    sim.run(until=600)
    for rec in a.capture.sent():
        seg = rec.segment
        if seg.is_data:
            assert len(seg.payload) <= min(conn.MSS, window)
    assert len(received) == sum(writes)


@given(close_at=st.floats(min_value=0.0, max_value=2.0),
       size=st.integers(min_value=1, max_value=3000))
@settings(max_examples=30, deadline=None)
def test_abort_any_time_never_crashes(close_at, size):
    sim, a, received, _ = build_pair(65535)
    conn = a.connect("10.0.0.2", 80)
    conn.on_connected = lambda: conn.send(bytes(size))
    sim.schedule(close_at, conn.abort)
    sim.run(until=600)
    assert conn.state == "CLOSED"


# Long enough for the slowest delivery the draws allow to finish: 24 kB
# through a 1-byte window at 20% loss, when it does not time out, takes
# ~31,000 simulated seconds.
IMPAIRED_HORIZON = 86400.0


@given(
    loss=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 0.9]),
    reorder=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    duplicate=st.sampled_from([0.0, 0.1, 1.0]),
    jitter=st.sampled_from([0.0, 0.05]),
    window=st.integers(min_value=1, max_value=70000),
    writes=st.lists(st.integers(min_value=1, max_value=4000), min_size=1,
                    max_size=6),
    client_closes=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_impaired_delivery_is_a_prefix_or_a_modeled_failure(
        loss, reorder, duplicate, jitter, window, writes, client_closes,
        seed):
    """Under random loss, reordering, duplication and jitter nothing
    raises, the server receives a prefix of the sent bytes, and a short
    delivery ends in a modeled failure: a timeout or a RST."""
    impairment = Impairment(loss=loss, reorder=reorder, duplicate=duplicate,
                            jitter=jitter)
    sim, a, received, _ = build_pair(window, impairment=impairment,
                                     rng=random.Random(seed))
    rng = random.Random(seed)
    blob = rng.randbytes(sum(writes))
    conn = a.connect("10.0.0.2", 80)

    def send_all():
        offset = 0
        for i, size in enumerate(writes):
            sim.schedule(i * 0.01, conn.send, blob[offset : offset + size])
            offset += size
        if client_closes:
            sim.schedule(len(writes) * 0.01 + 0.01, conn.close)

    conn.on_connected = send_all
    sim.run(until=IMPAIRED_HORIZON)
    assert blob.startswith(bytes(received))
    if len(received) < len(blob):
        assert conn.timed_out or conn.reset_received


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP: 'A FIN sent from on_remote_fin is never retransmitted'. "
    "close() inside on_remote_fin enters CLOSED at once"))
def test_fin_sent_from_on_remote_fin_is_retransmitted():
    """A server that closes in ``on_remote_fin`` must still deliver its
    FIN under loss, so the client leaves FIN_WAIT."""
    impairment = Impairment(loss=0.2, reorder=1.0, duplicate=0.1)
    sim, a, received, accepted = build_pair(63959, impairment=impairment,
                                            rng=random.Random(42659))
    conn = a.connect("10.0.0.2", 80)

    def send_and_close():
        conn.send(bytes(489))
        sim.schedule(0.01, conn.send, bytes(1767))
        sim.schedule(0.03, conn.close)

    conn.on_connected = send_and_close
    sim.run(until=3600)
    assert len(received) == 489 + 1767
    server = accepted[0]
    assert server._snd_una == server._snd_nxt
    assert conn.state == "CLOSED"
