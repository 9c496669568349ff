"""Pcap-style packet capture with the query helpers the analysis needs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from .packet import Segment

__all__ = ["CaptureRecord", "Capture"]


@dataclass(slots=True)
class CaptureRecord:
    time: float
    sent: bool  # True if this host transmitted the segment
    segment: Segment


class Capture:
    """An append-only log of segments seen at one observation point.

    Two independent switches control what happens per segment:

    * ``enabled`` — master switch; off means the capture sees nothing
      (no buffering, no taps);
    * ``buffering`` — whether records are retained in ``records``.

    *Taps* registered with :meth:`subscribe` are invoked with every
    :class:`CaptureRecord` as it happens, independent of buffering —
    this is how the streaming analysis pipeline observes a host's
    traffic at constant memory: ``buffering = False`` keeps the taps
    firing while nothing accumulates.

    A bare capture buffers, but a world's hosts do not unless the world
    was built with ``stream_captures=False`` (see
    :func:`repro.runtime.topology.build_world`).  Reading a log that was
    not kept — ``records``, iteration, every query helper — raises
    :class:`RuntimeError` rather than answering with an empty list;
    ``len()`` of such a capture is 0.
    """

    def __init__(self):
        # Raw ``(time, sent, segment)`` tuples; ``records`` materializes
        # them into :class:`CaptureRecord` objects on first access.  The
        # datapath only ever pays a tuple build + list append per segment;
        # object construction is deferred to analysis time (outside any
        # timed region).  ``_materialized`` is always a prefix cache of
        # ``_raw`` — never mutated from outside this class.
        self._raw: list = []
        self._materialized: List[CaptureRecord] = []
        self.enabled = True
        self.buffering = True
        self.taps: List[Callable[[CaptureRecord], None]] = []

    @property
    def records(self) -> List[CaptureRecord]:
        if not self.buffering:
            raise RuntimeError(
                "this capture keeps no records: buffering is off, so turn "
                "it on before the run to read the log (a world's hosts "
                "keep one only when built with stream_captures=False)")
        return self._materialize()

    def _materialize(self) -> List[CaptureRecord]:
        raw = self._raw
        mat = self._materialized
        if len(mat) != len(raw):
            for i in range(len(mat), len(raw)):
                time, sent, seg = raw[i]
                rec = CaptureRecord.__new__(CaptureRecord)
                rec.time = time
                rec.sent = sent
                rec.segment = seg
                mat.append(rec)
        return mat

    def record(self, seg: Segment, time: float, sent: bool) -> None:
        if not self.enabled:
            return
        if self.buffering:
            self._raw.append((time, sent, seg))
        if not self.taps:
            return
        # Taps observe the stream live and need real record objects;
        # the log keeps only the raw tuple and materializes its own.
        rec = CaptureRecord.__new__(CaptureRecord)
        rec.time = time
        rec.sent = sent
        rec.segment = seg
        for tap in self.taps:
            tap(rec)

    def subscribe(self, tap: Callable[[CaptureRecord], None]) -> None:
        """Register a live tap called with every record as it is captured."""
        self.taps.append(tap)

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return iter(self.records)

    def clear(self) -> None:
        self._raw.clear()
        self._materialized.clear()

    # ------------------------------------------------------------- queries

    def filter(self, predicate: Callable[[CaptureRecord], bool]) -> List[CaptureRecord]:
        return [rec for rec in self.records if predicate(rec)]

    def received(self) -> List[CaptureRecord]:
        return self.filter(lambda rec: not rec.sent)

    def sent(self) -> List[CaptureRecord]:
        return self.filter(lambda rec: rec.sent)

    def syns_received(self) -> List[CaptureRecord]:
        return self.filter(lambda rec: not rec.sent and rec.segment.is_syn)

    def data_segments(self, received_only: bool = False) -> List[CaptureRecord]:
        return self.filter(
            lambda rec: rec.segment.is_data and (not received_only or not rec.sent)
        )

    def connections(self) -> dict:
        """Group records by direction-insensitive connection key."""
        groups: dict = {}
        for rec in self.records:
            groups.setdefault(rec.segment.conn_key(), []).append(rec)
        return groups

    def first_payload_from(self, src_ip: str, src_port: Optional[int] = None) -> Optional[bytes]:
        """First data payload received from a given remote endpoint."""
        for rec in self.records:
            seg = rec.segment
            if rec.sent or not seg.is_data:
                continue
            if seg.src_ip == src_ip and (src_port is None or seg.src_port == src_port):
                return seg.payload
        return None
