"""Deterministic discrete-event simulator.

All timing in the reproduction — TCP handshakes, server timeouts, the
GFW's probe delays, multi-week experiment timelines — runs on this clock.
Events at the same timestamp fire in scheduling order, so runs are
bit-for-bit reproducible.

Internally the queue is a *calendar queue* specialised for simulation
workloads: a dict of exact-timestamp buckets (each bucket a FIFO list of
events) plus a min-heap of the distinct timestamps.  Scheduling into an
existing bucket — the overwhelmingly common case on the datapath, where
a whole burst of deliveries lands on one ``now + latency`` instant — is
a single dict lookup and list append, O(1) with no heap traffic; the
heap holds plain floats, so events are never compared.  Because the
scheduling counter is monotonic, append order within a bucket *is*
(time, seq) order, so the execution order is identical to the classic
heapq implementation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..runtime.events import EventBus

__all__ = ["Event", "Simulator"]


class Event:
    """Handle for a scheduled callback; supports cancellation.

    ``weight`` is the number of logical events this callback stands for:
    a batched burst delivery carries ``weight=len(burst)`` so the
    ``sim.events`` counter — part of deterministic run snapshots —
    counts delivered segments, however they were grouped into bursts.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "weight")

    def cancel(self) -> None:
        """Skip the callback if it has not run yet (a no-op after).

        The loop never calls a cancelled event, so the callback and its
        arguments are dropped at once: a cancelled timer does not keep
        its owner alive until its time comes.
        """
        self.cancelled = True
        self.fn = self.args = None


class Simulator:
    """Minimal event loop: ``schedule``, ``run``, ``now``."""

    def __init__(self, start_time: float = 0.0, bus: Optional[EventBus] = None):
        self.now = start_time
        # Calendar queue: exact-timestamp buckets + a heap of the
        # distinct bucket times.  ``_cursor`` is the consumed prefix of
        # the earliest bucket (only the head bucket is ever partially
        # consumed, so one cursor suffices).
        self._buckets: dict = {}
        self._times: list = []
        self._cursor = 0
        self._counter = itertools.count()
        # The instrumentation bus: any component holding the simulator can
        # emit typed counters/samples without further plumbing.
        self.bus = bus if bus is not None else EventBus()

    def schedule(self, delay: float, fn: Callable, *args: Any,
                 weight: int = 1) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``weight`` is the logical event count the callback represents
        (see :class:`Event`); it only affects the ``sim.events`` counter.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        # Inline Event construction: ``schedule`` runs once per segment
        # (or burst) on the datapath, and the slot stores beat a
        # delegated ``__init__`` call there.
        event = Event.__new__(Event)
        event.time = time
        event.seq = next(self._counter)
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.weight = weight
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def schedule_fire(self, delay: float, fn: Callable, arg: Any,
                      weight: int = 1) -> None:
        """Fire-and-forget :meth:`schedule` for the datapath.

        No :class:`Event` handle is built (the bucket entry is a plain
        ``(weight, fn, arg)`` tuple), so the call cannot be cancelled —
        exactly the contract of packet deliveries, which are never
        withdrawn once scheduled.  Execution order relative to
        :meth:`schedule` is unchanged: entries run in append order
        within their timestamp bucket either way.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        next(self._counter)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(weight, fn, arg)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((weight, fn, arg))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the number of callbacks processed by this call.  The
        ``sim.events`` bus counter advances by the *weighted* total, so
        a burst counts one event per segment it carries.
        """
        processed = 0
        weighted = 0
        times = self._times
        buckets = self._buckets
        stop = False
        while times and not stop:
            t = times[0]
            if until is not None and t > until:
                break
            bucket = buckets[t]
            i = self._cursor
            if i >= len(bucket):
                # Head bucket exhausted: reclaim it and move on.  (New
                # same-time events appended while it was current were
                # already picked up by the inner loop below.)
                heapq.heappop(times)
                del buckets[t]
                self._cursor = 0
                continue
            self.now = t
            # The bucket may grow while we iterate — an executing event
            # scheduling at delay 0 appends here, which is the O(1)
            # same-time fast path — so re-check the length every pass.
            while i < len(bucket):
                event = bucket[i]
                i += 1
                self._cursor = i
                if type(event) is tuple:
                    # Fire-and-forget entry from ``schedule_fire``.
                    event[1](event[2])
                    weighted += event[0]
                else:
                    if event.cancelled:
                        continue
                    event.fn(*event.args)
                    weighted += event.weight
                processed += 1
                if max_events is not None and processed >= max_events:
                    stop = True
                    break
        if until is not None and self.now < until:
            # Advance the clock to the horizon — but never past events
            # still queued at or before it (we may have stopped early on
            # ``max_events``): time must not jump over pending work.
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                self.now = until
        if weighted:
            self.bus.incr("sim.events", weighted)
        return processed

    def _next_event_time(self) -> Optional[float]:
        """Time of the earliest live (not-run, not-cancelled) event.

        Reclaims dead head buckets (all-consumed / all-cancelled) as a
        side effect; returns ``None`` when nothing live is queued.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            for i in range(self._cursor, len(bucket)):
                e = bucket[i]
                if type(e) is tuple or not e.cancelled:
                    return t
            heapq.heappop(times)
            del buckets[t]
            self._cursor = 0
        return None

    @property
    def pending(self) -> int:
        """Number of queued events not yet run or cancelled.

        A scan of the queue: every bucket from its start, except the
        head bucket, whose consumed prefix ends at ``_cursor``.
        """
        head = self._times[0] if self._times else None
        live = 0
        for t, bucket in self._buckets.items():
            for i in range(self._cursor if t == head else 0, len(bucket)):
                e = bucket[i]
                if type(e) is tuple or not e.cancelled:
                    live += 1
        return live
