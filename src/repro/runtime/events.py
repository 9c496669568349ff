"""The instrumentation bus: typed counters and scalar series.

Every :class:`~repro.net.sim.Simulator` owns an :class:`EventBus`; the
components layered on top of it (the :class:`~repro.gfw.GreatFirewall`,
the prober fleet, Shadowsocks servers, workload drivers) emit named
counters and samples into it instead of keeping ad-hoc stats dicts that
analysis code then scrapes.  A bus snapshot is JSON-serialisable and
deterministic for a given seed, so it travels inside cached
:class:`~repro.runtime.scenario.RunResult`s and run manifests.

Canonical event names (``<layer>.<subject>[.<detail>]``):

==================================  ===============================================
``sim.events``                      events processed by :meth:`Simulator.run`
``net.loss``                        segments dropped by an impairment's loss draw
``net.reorder``                     segments delayed by a reorder draw
``net.duplicate``                   segments duplicated in flight
``net.flap.drop``                   segments lost to a scheduled link blackout
``net.ttl.expired``                 segments discarded when hops exhausted the TTL
``net.udp.*``                       datagram counterparts of the fault counters
``tcp.retransmit``                  segments re-sent by the retransmission timer
``tcp.syn.retry``                   connection-opening SYNs re-sent
``tcp.ooo.buffered``                out-of-order segments held for reassembly
``tcp.dup.dropped``                 wholly-duplicate segments discarded on receive
``tcp.timeout``                     connections that gave up after max retries
``gfw.flow.opened``                 border-crossing flows entered into the flow table
``gfw.flow.evicted``                flow-table entries reclaimed by eviction
``gfw.flow.syn.retransmit``         retransmitted SYNs seen on live flows
``gfw.conn.flagged``                first-data packets the passive detector flagged
``gfw.conn.reflag.suppressed``      repeat flag decisions deduplicated per flow
``gfw.cache.inside_cleared``        border-geometry cache resets at capacity
``gfw.segment.dropped``             segments dropped by the blocking module
``gfw.block.applied``               block rules installed
``probe.sent``                      probes dispatched by the prober runner
``probe.reaction.<R>``              probe outcomes, by reaction (``RST``...)
``probe.type.<T>``                  probes sent, by probe type (``R1``, ``NR2``...)
``probe.replay_delay``              scalar series: seconds from trigger to probe
``scheduler.stage2``                servers escalated to stage-2 probing
``scheduler.tor.confirmed``         Tor bridges a probe confirmed (stage 1 -> 2)
``scheduler.tor.block_scheduled``   block rules queued for confirmed bridges
``ss.session.accepted``             connections accepted by Shadowsocks servers
``ss.session.error``                Shadowsocks handshakes that failed server-side
``ss.session.proxied``              sessions that reached the proxying state
``obfs.session.accepted``           connections accepted by obfs bridges
``obfs.session.handshake``          obfs handshakes that completed server-side
``obfs.session.rejected``           parse failures closed with a FIN
``obfs.session.drained``            sessions that swallow input and never answer
``obfs.session.proxied``            obfs sessions that reached the proxying state
``scale.segments``                  synthetic segments the scale harness tracked
``workload.fetch``                  fetches issued by workload drivers
==================================  ===============================================

New emitters should follow the same naming scheme; consumers must treat
unknown names as forward-compatible.

Besides counters and scalars, the bus carries a *structured record*
channel for the streaming analysis pipeline
(:mod:`repro.analysis.pipeline`): emitters publish dict-shaped events
(``{"kind": ..., **fields}``) with :meth:`EventBus.emit`, and analyzers
subscribe with :meth:`EventBus.subscribe_records`.  Structured events
may carry rich in-memory values (payload bytes, segment objects); they
are consumed live and are never part of the JSON snapshot.  Emitting is
free when nobody listens — hot paths guard on
:attr:`EventBus.wants_records` before even building the event dict.

Canonical record kinds (see the pipeline module for the consumers):

==================  =====================================================
``probe``           a probe left the prober runner (payload, type, ...)
``probe.result``    a probe finished with a classified reaction
``flow.flagged``    the passive detector flagged a feature packet
``block``           the blocking module installed a block rule
``payload``         a workload client sent a ground-truth payload
``capture``         a tapped host capture saw a segment (pipeline-local)
``scale.flow``      the scale harness finished one synthetic flow
==================  =====================================================

For consumers living *outside* the worker process (the
:mod:`repro.service` control plane streams records to HTTP clients
while a job runs), the module adds two pieces:

* **global record taps** (:func:`install_record_tap`) — subscribers
  attached automatically to every :class:`EventBus` constructed after
  installation.  Scenario builders create their buses deep inside
  ``build()``, so an external harness has no object to subscribe to;
  a tap catches every bus the job creates without touching scenario
  code.  Taps only observe: they never alter counters, RNG draws, or
  snapshots, so tapped and untapped runs stay byte-identical.
* :func:`sanitize_record` / :class:`RecordForwarder` — records may
  carry rich in-memory values (payload bytes, segment objects) that
  must not cross a process boundary; the forwarder projects each
  record onto a JSON- and pickle-safe shape (bytes become
  ``{"__bytes__": len, "prefix": hex}``, unknown objects become their
  type name) before handing it to a sink callable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Tuple

__all__ = [
    "EventBus",
    "RecordForwarder",
    "install_record_tap",
    "remove_record_tap",
    "sanitize_record",
]

# Globally-installed record taps, auto-subscribed by every EventBus
# constructed while installed.  Copy-on-write tuple for the same reason
# the per-bus record subscriber list is: installs/removes must never
# mutate a sequence a constructor is reading.
_RECORD_TAPS: Tuple[Callable[[Dict[str, Any]], None], ...] = ()


def install_record_tap(fn: Callable[[Dict[str, Any]], None]) -> None:
    """Subscribe ``fn`` to every :class:`EventBus` created from now on.

    Buses that already exist are unaffected.  The service job worker
    installs its :class:`RecordForwarder` here before building a
    scenario, so whatever buses the build creates stream their records
    out without the scenario knowing.
    """
    global _RECORD_TAPS
    _RECORD_TAPS = _RECORD_TAPS + (fn,)


def remove_record_tap(fn: Callable[[Dict[str, Any]], None]) -> None:
    """Stop subscribing ``fn`` to new buses (existing buses keep it).

    Equality-based, like :meth:`EventBus.unsubscribe_records`, so a
    re-created bound method removes the originally-installed one.
    """
    global _RECORD_TAPS
    taps = list(_RECORD_TAPS)
    try:
        taps.remove(fn)
    except ValueError:
        return
    _RECORD_TAPS = tuple(taps)


class EventBus:
    """A process-local sink for named counters and scalar samples.

    ``incr`` is designed to be cheap enough for per-event hot paths (one
    dict update); ``observe`` additionally tracks count/sum/min/max of a
    scalar series.
    """

    __slots__ = ("counters", "scalars", "_record_subscribers")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        # name -> [count, total, minimum, maximum]
        self.scalars: Dict[str, List[float]] = {}
        # Copy-on-write: emit() iterates whatever list object is bound
        # at dispatch time, and (un)subscribe bind a *new* list, so a
        # subscriber detaching itself mid-emit can never skip or repeat
        # a peer (see unsubscribe_records).
        self._record_subscribers: List[Callable[[Dict[str, Any]], None]] = (
            list(_RECORD_TAPS))

    # ------------------------------------------------------------- emitting

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the scalar series ``name``."""
        agg = self.scalars.get(name)
        if agg is None:
            self.scalars[name] = [1, value, value, value]
        else:
            agg[0] += 1
            agg[1] += value
            if value < agg[2]:
                agg[2] = value
            if value > agg[3]:
                agg[3] = value

    # -------------------------------------------------- structured records

    @property
    def wants_records(self) -> bool:
        """True when at least one structured-record subscriber is attached.

        Emitters on hot paths check this before building the event dict,
        so runs without an analysis pipeline pay a single attribute test.
        """
        return bool(self._record_subscribers)

    def emit(self, kind: str, event: Mapping[str, Any]) -> None:
        """Publish one structured event to the record subscribers.

        ``event`` carries the fields; the bus stamps ``kind`` into the
        dict handed to subscribers.  Events may hold rich in-memory
        values (bytes, segments) — they are consumed live, never stored
        on the bus, and never serialized into a snapshot.
        """
        subscribers = self._record_subscribers
        if not subscribers:
            return
        record = dict(event)
        record["kind"] = kind
        # Iterate the snapshot bound above: a subscriber calling
        # (un)subscribe_records from inside its callback rebinds the
        # attribute without touching this list, so dispatch of the
        # current record always covers exactly the set that was
        # subscribed when emit() started.
        for fn in subscribers:
            fn(record)

    def subscribe_records(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        self._record_subscribers = self._record_subscribers + [fn]

    def unsubscribe_records(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Detach ``fn``; safe to call from inside an active emit().

        Rebinds a fresh list instead of mutating in place — removing an
        element from the list emit() is iterating would shift its
        neighbours under the loop and silently skip the next
        subscriber (the bug that broke clean SSE client disconnects).
        Equality-based (like ``list.remove``) so callers may pass a
        re-created bound method, as the analysis pipeline does.
        """
        subscribers = list(self._record_subscribers)
        try:
            subscribers.remove(fn)
        except ValueError:
            return
        self._record_subscribers = subscribers

    # ------------------------------------------------------------ consuming

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-serialisable view of everything emitted."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "scalars": {
                name: {"count": agg[0], "sum": agg[1],
                       "min": agg[2], "max": agg[3]}
                for name, agg in sorted(self.scalars.items())
            },
        }

    def absorb(self, other: "EventBus") -> None:
        """Fold another bus's tallies into this one (for multi-world runs)."""
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, agg in other.scalars.items():
            mine = self.scalars.get(name)
            if mine is None:
                self.scalars[name] = list(agg)
            else:
                mine[0] += agg[0]
                mine[1] += agg[1]
                mine[2] = min(mine[2], agg[2])
                mine[3] = max(mine[3], agg[3])


# ------------------------------------------------------ record forwarding


_BYTES_PREFIX = 8  # hex-preview length for sanitized byte payloads


def sanitize_record(record: Mapping[str, Any], _depth: int = 0) -> Dict[str, Any]:
    """Project a structured record onto a JSON- and pickle-safe shape.

    Records may carry rich in-memory values (payload bytes, Segment
    objects, nested tuples); anything leaving the worker process — over
    the service's record pipe, into an SSE stream — goes through this
    first.  Scalars pass through, containers recurse (depth-capped),
    ``bytes`` become ``{"__bytes__": length, "prefix": hex-of-first-8}``
    so consumers see sizes without shipping ciphertext, and any other
    object collapses to ``{"__type__": class name}``.  Deterministic:
    the same record always sanitizes to the same document.
    """
    return {str(key): _sanitize_value(value, _depth)
            for key, value in record.items()}


def _sanitize_value(value: Any, depth: int) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        return {"__bytes__": len(raw), "prefix": raw[:_BYTES_PREFIX].hex()}
    if depth >= 4:
        return {"__type__": type(value).__name__}
    if isinstance(value, (list, tuple)):
        return [_sanitize_value(v, depth + 1) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _sanitize_value(v, depth + 1)
                for k, v in value.items()}
    return {"__type__": type(value).__name__}


class RecordForwarder:
    """A record subscriber that sanitizes and hands records to a sink.

    Install one as a global tap (:func:`install_record_tap`) to stream
    every record a job emits out of the process::

        forwarder = RecordForwarder(sink.send)
        install_record_tap(forwarder)
        try:
            ...  # build/run scenarios
        finally:
            remove_record_tap(forwarder)

    The sink receives plain dicts (see :func:`sanitize_record`).  A sink
    raising ``OSError`` (consumer went away mid-run) permanently
    disables the forwarder instead of failing the job; ``forwarded`` and
    ``dropped`` keep the accounting either way.
    """

    __slots__ = ("sink", "forwarded", "dropped", "dead")

    def __init__(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        self.sink = sink
        self.forwarded = 0
        self.dropped = 0
        self.dead = False

    def __call__(self, record: Dict[str, Any]) -> None:
        if self.dead:
            self.dropped += 1
            return
        try:
            self.sink(sanitize_record(record))
            self.forwarded += 1
        except OSError:
            self.dead = True
            self.dropped += 1
