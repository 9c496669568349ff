"""Property test: ``Simulator.pending`` against a count the test keeps.

Random sequences of ``schedule``, ``schedule_fire``, ``cancel`` (also on
events that already ran or were cancelled), ``run(until=...)`` and
``run(max_events=...)``.  Every callback removes its own token from the
test's live set when it runs, so after each step ``pending`` must equal
the number of tokens scheduled and neither run nor cancelled.  Delays
come from a small set, so buckets are shared, drained part-way by
``max_events`` and appended to while they are the head bucket.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator

DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(st.just("fire"), DELAYS),
        # An event whose callback schedules a child at delay 0: the
        # child lands in the bucket being drained.
        st.tuples(st.just("chain"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("run_until"), DELAYS),
        st.tuples(st.just("run_max"), st.integers(1, 3)),
    ),
    max_size=40,
)


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_pending_equals_live_count(ops):
    sim = Simulator()
    live = set()
    handles = []
    tokens = iter(range(1 << 30))

    def schedule(delay, fn, *args):
        token = next(tokens)
        live.add(token)
        handles.append((token, sim.schedule(delay, fn, token, *args)))

    def ran(token):
        live.discard(token)

    def ran_and_chain(token):
        live.discard(token)
        schedule(0.0, ran)

    for op, arg in ops:
        if op == "schedule":
            schedule(arg, ran)
        elif op == "fire":
            token = next(tokens)
            live.add(token)
            sim.schedule_fire(arg, ran, token)
        elif op == "chain":
            schedule(arg, ran_and_chain)
        elif op == "cancel":
            if handles:
                token, event = handles[arg % len(handles)]
                live.discard(token)
                event.cancel()
        elif op == "run_until":
            sim.run(until=sim.now + arg)
        else:
            sim.run(max_events=arg)
        assert sim.pending == len(live)
    sim.run()
    assert sim.pending == 0 and not live
