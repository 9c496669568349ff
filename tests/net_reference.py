"""Reference (per-segment) datapath of :mod:`repro.net`.

The simulator moves segments in bursts: a host buffers what it sends
while it handles an arrival or an application write and hands each
same-flow run to the network as one burst (one middlebox pass, one
delivery event), and the receiving connection consumes an in-order run
with one ``handle_burst`` call.  Both are performance transforms of the
datapath they replaced, in which every segment was its own transmission,
its own delivery event and its own ``handle_segment`` call.

That datapath is kept here as the test oracle: inside ``with
per_segment_tx():`` or ``with per_segment_rx():`` every
:class:`repro.net.host.Host` runs it, and the batched-datapath property
suites assert that runs are byte-identical either way.

The pcap reader (:func:`read_pcap`, :func:`packet_to_segment`) is the
oracle of :mod:`repro.net.pcapfile`'s writer: it parses what
``write_pcap`` and ``segment_to_packet`` produce back into segments.
"""

from __future__ import annotations

import contextlib
import struct
from typing import Callable, Iterator, List, Tuple

from repro.net.host import Host
from repro.net.ipaddr import int_to_ip
from repro.net.packet import Segment

__all__ = ["packet_to_segment", "per_segment_rx", "per_segment_tx",
           "read_pcap"]

_PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_RAW = 101  # raw IPv4/IPv6
_TCP_PROTO = 6


def _no_tx_batch(self: Host) -> None:
    """A transmit batch that never opens: with ``_tx_depth`` held at 0,
    every segment a host emits goes straight to ``Network.send_segment``,
    so no burst is ever formed."""


def _deliver_segment(self: Host, seg) -> None:
    """``Host.deliver`` through the (possibly patched) batch bracket."""
    self.begin_tx_batch()
    try:
        self._deliver_fast(seg)
    finally:
        self.end_tx_batch()


def _deliver_burst_per_segment(self: Host, segs) -> None:
    """``Host.deliver_burst`` without ``handle_burst``: every member of
    the burst is dispatched on its own, as ``handle_segment`` sees it."""
    self.begin_tx_batch()
    try:
        for seg in segs:
            self._deliver_fast(seg)
    finally:
        self.end_tx_batch()


@contextlib.contextmanager
def _patched(**methods: Callable) -> Iterator[None]:
    saved = {name: Host.__dict__[name] for name in methods}
    for name, method in methods.items():
        setattr(Host, name, method)
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(Host, name, method)


def per_segment_tx():
    """Send every segment as its own network event: no transmit batches,
    no bursts, no burst delivery."""
    return _patched(begin_tx_batch=_no_tx_batch, end_tx_batch=_no_tx_batch,
                    deliver=_deliver_segment,
                    deliver_burst=_deliver_burst_per_segment)


def per_segment_rx():
    """Receive every segment of a burst with its own ``handle_segment``
    call; what a host sends in reply still leaves in transmit batches."""
    return _patched(deliver_burst=_deliver_burst_per_segment)


def packet_to_segment(packet: bytes, timestamp: float = 0.0) -> Segment:
    """Parse an IPv4+TCP packet back into a Segment."""
    if len(packet) < 40:
        raise ValueError("packet too short for IPv4+TCP")
    version_ihl = packet[0]
    if version_ihl >> 4 != 4:
        raise ValueError("not an IPv4 packet")
    ihl = (version_ihl & 0x0F) * 4
    total_len, ip_id = struct.unpack(">HH", packet[2:6])
    ttl, proto = packet[8], packet[9]
    if proto != _TCP_PROTO:
        raise ValueError(f"not TCP (protocol {proto})")
    src_ip = int_to_ip(struct.unpack(">I", packet[12:16])[0])
    dst_ip = int_to_ip(struct.unpack(">I", packet[16:20])[0])

    tcp = packet[ihl:total_len]
    src_port, dst_port, seq, ack = struct.unpack(">HHII", tcp[:12])
    data_offset = (tcp[12] >> 4) * 4
    flags = tcp[13] & 0x3F
    window = struct.unpack(">H", tcp[14:16])[0]
    tsval = tsecr = None
    options = tcp[20:data_offset]
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:
            break
        if kind == 1:
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if kind == 8 and length == 10:
            tsval, tsecr = struct.unpack(">II", options[i + 2 : i + 10])
        i += max(length, 2)
    return Segment(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
        flags=flags, seq=seq, ack=ack, payload=tcp[data_offset:],
        window=window, ttl=ttl, ip_id=ip_id, tsval=tsval,
        tsecr=tsecr if tsval is not None else None, timestamp=timestamp,
    )


def read_pcap(path) -> List[Tuple[float, Segment]]:
    """Read a pcap file written by ``repro.net.pcapfile.write_pcap``."""
    out: List[Tuple[float, Segment]] = []
    with open(path, "rb") as f:
        header = f.read(24)
        if len(header) < 24:
            raise ValueError("truncated pcap header")
        magic = struct.unpack(">I", header[:4])[0]
        if magic != _PCAP_MAGIC:
            raise ValueError(f"bad pcap magic {magic:#x}")
        linktype = struct.unpack(">I", header[20:24])[0]
        if linktype != _LINKTYPE_RAW:
            raise ValueError(f"unsupported linktype {linktype}")
        while True:
            rec_header = f.read(16)
            if len(rec_header) < 16:
                break
            seconds, micros, caplen, _ = struct.unpack(">IIII", rec_header)
            packet = f.read(caplen)
            time = seconds + micros / 1_000_000
            out.append((time, packet_to_segment(packet, time)))
    return out
