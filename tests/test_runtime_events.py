"""The instrumentation bus: counters, scalar series, merging."""

from repro.runtime import EventBus


def test_incr_and_count():
    bus = EventBus()
    bus.incr("probe.sent")
    bus.incr("probe.sent", 3)
    assert bus.count("probe.sent") == 4
    assert bus.count("never.seen") == 0


def test_observe_scalar_stats():
    bus = EventBus()
    for v in (2.0, 8.0, 5.0):
        bus.observe("probe.replay_delay", v)
    snap = bus.snapshot()
    stats = snap["scalars"]["probe.replay_delay"]
    assert stats["count"] == 3
    assert stats["sum"] == 15.0
    assert stats["min"] == 2.0
    assert stats["max"] == 8.0


def test_snapshot_counters_are_sorted_and_detached():
    bus = EventBus()
    bus.incr("zzz")
    bus.incr("aaa")
    snap = bus.snapshot()
    assert list(snap["counters"]) == ["aaa", "zzz"]
    snap["counters"]["aaa"] = 99
    assert bus.count("aaa") == 1


def test_absorb_merges_counters_and_scalars():
    a, b = EventBus(), EventBus()
    a.incr("probe.sent", 2)
    b.incr("probe.sent", 3)
    b.incr("only.b")
    a.observe("delay", 1.0)
    b.observe("delay", 9.0)
    a.absorb(b)
    assert a.count("probe.sent") == 5
    assert a.count("only.b") == 1
    stats = a.snapshot()["scalars"]["delay"]
    assert stats["count"] == 2 and stats["min"] == 1.0 and stats["max"] == 9.0


# ------------------------------------------------- structured records


def test_emit_reaches_record_subscribers():
    bus = EventBus()
    seen = []
    bus.subscribe_records(seen.append)
    bus.emit("probe", {"probe_type": "R1", "length": 221})
    assert seen == [{"probe_type": "R1", "length": 221, "kind": "probe"}]


def test_unsubscribe_records_during_emit_keeps_later_subscribers():
    """Regression: a subscriber detaching itself mid-emit must not make
    emit() skip the subscriber that follows it in the dispatch list."""
    bus = EventBus()
    calls = []

    def first(record):
        calls.append("first")
        bus.unsubscribe_records(first)

    def second(record):
        calls.append("second")

    bus.subscribe_records(first)
    bus.subscribe_records(second)
    bus.emit("verdict", {"action": "block"})
    assert calls == ["first", "second"]
    calls.clear()
    bus.emit("verdict", {"action": "block"})
    assert calls == ["second"]


def test_unsubscribe_records_accepts_recreated_bound_method():
    class Collector:
        def __init__(self):
            self.records = []

        def observe(self, record):
            self.records.append(record)

    bus = EventBus()
    collector = Collector()
    bus.subscribe_records(collector.observe)
    # `collector.observe` below is a *new* bound-method object, equal to
    # but not identical with the one subscribed above.
    bus.unsubscribe_records(collector.observe)
    bus.emit("probe", {"x": 1})
    assert collector.records == []


def test_unsubscribe_unknown_subscriber_is_a_noop():
    bus = EventBus()
    bus.unsubscribe_records(lambda record: None)  # must not raise
    bus.emit("probe", {"x": 1})


def test_record_taps_attach_to_new_buses_only():
    from repro.runtime import install_record_tap, remove_record_tap

    seen = []
    before = EventBus()
    install_record_tap(seen.append)
    try:
        after = EventBus()
        before.emit("probe", {"n": 1})
        after.emit("probe", {"n": 2})
        assert [r["n"] for r in seen] == [2]
    finally:
        remove_record_tap(seen.append)
    assert EventBus()._record_subscribers == []


def test_sanitize_record_makes_bytes_and_objects_json_safe():
    import json

    from repro.runtime import sanitize_record

    class Opaque:
        pass

    doc = sanitize_record({
        "kind": "payload",
        "data": b"\x16\x03\x01\x02\x00abcdef",
        "nested": [1, {"blob": b"xy"}, (2.5, None)],
        "obj": Opaque(),
    })
    assert doc["data"] == {"__bytes__": 11,
                           "prefix": b"\x16\x03\x01\x02\x00abc".hex()}
    assert doc["nested"][1]["blob"]["__bytes__"] == 2
    assert doc["obj"] == {"__type__": "Opaque"}
    json.dumps(doc)  # round-trippable by construction
