"""TCP/IP segment model.

A :class:`Segment` carries exactly the header fields the paper fingerprints:
IP TTL and ID, TCP ports, flags, sequence/ack numbers, receive window, and
the TCP timestamp option (TSval/TSecr).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Flags", "Segment", "SegmentBurst", "flag_words", "lengths"]


class Flags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


@dataclass(slots=True)
class Segment:
    """One TCP segment with the IP fields the analysis cares about.

    ``slots=True``: segments are the most-allocated objects in a run
    (one per delivery, plus copies at every TTL/impairment mutation), so
    dropping the per-instance ``__dict__`` measurably cuts allocation
    and attribute-access cost on the datapath.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    flags: int
    seq: int = 0
    ack: int = 0
    payload: bytes = b""
    window: int = 65535
    ttl: int = 64
    ip_id: int = 0
    tsval: Optional[int] = None
    tsecr: Optional[int] = None
    # Capture timestamp, stamped by the network at delivery points.
    timestamp: float = field(default=0.0, compare=False)

    def has(self, flag_bits: int) -> bool:
        return bool(self.flags & flag_bits)

    @property
    def is_syn(self) -> bool:
        return self.has(Flags.SYN) and not self.has(Flags.ACK)

    @property
    def is_data(self) -> bool:
        return len(self.payload) > 0

    def copy(self, **changes) -> "Segment":
        # Hand-rolled clone: ``dataclasses.replace`` re-enters the
        # generated ``__init__`` through keyword plumbing and is one of
        # the hottest calls on the datapath (one copy per delivery).
        new = object.__new__(Segment)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.src_port = self.src_port
        new.dst_port = self.dst_port
        new.flags = self.flags
        new.seq = self.seq
        new.ack = self.ack
        new.payload = self.payload
        new.window = self.window
        new.ttl = self.ttl
        new.ip_id = self.ip_id
        new.tsval = self.tsval
        new.tsecr = self.tsecr
        new.timestamp = self.timestamp
        for name, value in changes.items():
            if name not in _SEGMENT_FIELDS:
                raise TypeError(f"copy() got an unexpected field {name!r}")
            setattr(new, name, value)
        return new

    def arrived(self, ttl: int, timestamp: float) -> "Segment":
        """Arrival clone: :meth:`copy` specialized for the delivery leg.

        Every delivered segment is cloned exactly once with a new TTL and
        timestamp; skipping ``copy``'s keyword-validation loop keeps that
        per-delivery cost to plain slot stores.
        """
        new = object.__new__(Segment)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.src_port = self.src_port
        new.dst_port = self.dst_port
        new.flags = self.flags
        new.seq = self.seq
        new.ack = self.ack
        new.payload = self.payload
        new.window = self.window
        new.ttl = ttl
        new.ip_id = self.ip_id
        new.tsval = self.tsval
        new.tsecr = self.tsecr
        new.timestamp = timestamp
        return new

    def flow(self):
        """4-tuple identifying the direction-sensitive flow."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    def reverse_flow(self):
        return (self.dst_ip, self.dst_port, self.src_ip, self.src_port)

    def conn_key(self):
        """Direction-insensitive connection key: the smaller of the two
        directional 4-tuples first."""
        f = (self.src_ip, self.src_port, self.dst_ip, self.dst_port)
        r = (self.dst_ip, self.dst_port, self.src_ip, self.src_port)
        return (f, r) if f <= r else (r, f)


_SEGMENT_FIELDS = frozenset(Segment.__dataclass_fields__)


# Column views over a segment run: the receive-side classifier
# (TcpConnection.handle_burst) scans these flat lists instead of
# re-touching each Segment object per predicate.

def flag_words(segs) -> List[int]:
    """Flag words of a segment run, in order."""
    return [seg.flags for seg in segs]


def lengths(segs) -> List[int]:
    """Payload lengths of a segment run, in order."""
    return [len(seg.payload) for seg in segs]


class SegmentBurst:
    """A burst of same-flow segments moved through the datapath as one unit.

    Endpoints emit one burst per flow per event (e.g. every MSS chunk a
    TCP pump produces in one callback); the network routes the burst
    through the middlebox chain and schedules a single delivery event for
    it.  Segments are stored in emission order, which the whole datapath
    preserves — burst processing is byte-identical to per-segment
    processing.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: List[Segment]):
        if not segments:
            raise ValueError("a SegmentBurst needs at least one segment")
        self.segments = segments
