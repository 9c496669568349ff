"""Event loop semantics: ordering, cancellation, run-until."""

import pytest

from repro.net import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_fifo():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_cancel():
    sim = Simulator()
    order = []
    ev = sim.schedule(1.0, order.append, "x")
    sim.schedule(2.0, order.append, "y")
    ev.cancel()
    sim.run()
    assert order == ["y"]


def test_run_until_advances_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending == 1
    sim.run()
    assert sim.now == 10.0


def test_nested_scheduling():
    sim = Simulator()
    hits = []

    def recur(n):
        hits.append(sim.now)
        if n:
            sim.schedule(1.0, recur, n - 1)

    sim.schedule(0.0, recur, 3)
    sim.run()
    assert hits == [0.0, 1.0, 2.0, 3.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_returns_processed_event_count():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: None)
    assert sim.run(until=2.5) == 2
    assert sim.run() == 1
    assert sim.run() == 0


def test_run_counts_exclude_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.run() == 1


def test_run_until_idle_drains_everything():
    sim = Simulator()
    hits = []

    def recur(n):
        hits.append(sim.now)
        if n:
            sim.schedule(100.0, recur, n - 1)

    sim.schedule(0.0, recur, 5)
    assert sim.run() == 6
    assert hits == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]
    assert sim.run() == 0


def test_run_until_idle_respects_max_events():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    assert sim.run(max_events=10) == 10


def test_simulator_counts_events_on_bus():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.bus.count("sim.events") == 2


def test_pending_tracks_schedule_cancel_and_pop():
    sim = Simulator()
    assert sim.pending == 0
    e1 = sim.schedule(1.0, lambda: None)
    e2 = sim.schedule(2.0, lambda: None)
    e3 = sim.schedule(3.0, lambda: None)
    assert sim.pending == 3
    e2.cancel()
    assert sim.pending == 2
    e2.cancel()  # double-cancel must not double-decrement
    assert sim.pending == 2
    sim.run(until=1.5)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert e1 is not None and e3 is not None


def test_pending_counts_events_scheduled_from_callbacks():
    sim = Simulator()

    def chain(n):
        if n:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 4)
    assert sim.pending == 1
    sim.run(until=2.5)
    assert sim.pending == 1  # the next link of the chain
    sim.run()
    assert sim.pending == 0


# ------------------------------------------------ regression: event-loop bugs


def test_max_events_stop_does_not_jump_clock_past_queued_events():
    # run(until=T, max_events=N) used to advance `now` to T even when it
    # stopped early on max_events with events still queued before T.
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: None)
    assert sim.run(until=10.0, max_events=2) == 2
    assert sim.now == 2.0          # not 10.0: an event is still queued at 3.0
    assert sim.pending == 1
    assert sim.run(until=10.0) == 1
    assert sim.now == 10.0         # queue drained: the horizon is reachable


def test_max_events_stop_ignores_cancelled_events_for_clock_advance():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    later = sim.schedule(3.0, lambda: None)
    later.cancel()
    assert sim.run(until=10.0, max_events=1) == 1
    # The only remaining queue entry is cancelled: the clock may advance.
    assert sim.now == 10.0


def test_cancel_after_execution_is_a_noop():
    # Cancelling an event whose callback already ran used to decrement
    # the live count a second time, driving `pending` negative — the
    # exact shape of TcpConnection._cancel_retx after an RTO fired.
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pending == 0
    ev.cancel()
    ev.cancel()
    assert sim.pending == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending == 1


def test_pending_never_negative_under_cancel_storm():
    sim = Simulator()
    events = [sim.schedule(float(i % 3), lambda: None) for i in range(30)]
    events[5].cancel()
    sim.run()
    for ev in events:
        ev.cancel()
        ev.cancel()
    assert sim.pending == 0


# -------------------------------------------------- weighted (burst) events


def test_weighted_event_counts_on_bus_but_not_in_return():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, weight=5)
    sim.schedule(2.0, lambda: None)
    assert sim.run() == 2                       # callbacks actually run
    assert sim.bus.count("sim.events") == 6     # logical (per-segment) count


def test_weighted_event_respects_max_events_by_callback():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, weight=10)
    sim.schedule(2.0, lambda: None, weight=10)
    assert sim.run(max_events=1) == 1
    assert sim.bus.count("sim.events") == 10
    assert sim.pending == 1


# ------------------------------------------------- calendar-queue internals


def test_same_time_events_scheduled_during_bucket_run_fifo():
    # An executing event scheduling at delay 0 appends to the bucket
    # being drained; it must run in this pass, after everything queued.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "appended")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "appended"]
    assert sim.now == 1.0


def test_interleaved_buckets_preserve_global_order():
    sim = Simulator()
    order = []
    for t, tag in [(2.0, "c"), (1.0, "a"), (2.0, "d"), (1.0, "b"), (3.0, "e")]:
        sim.schedule(t, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]


def test_resuming_a_partially_drained_bucket():
    sim = Simulator()
    order = []
    for tag in "abcd":
        sim.schedule(1.0, order.append, tag)
    assert sim.run(max_events=2) == 2
    assert order == ["a", "b"] and sim.now == 1.0
    # New same-time work lands behind the bucket's unconsumed tail.
    sim.schedule(0.0, order.append, "e")
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]
