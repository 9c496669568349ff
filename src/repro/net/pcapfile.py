"""Export captures to real libpcap files.

Segments are serialized as IPv4+TCP packets (LINKTYPE_RAW), with correct
header checksums and the TCP timestamp option when present, so a capture
from the simulator opens cleanly in Wireshark/tcpdump — handy for
inspecting what the GFW's probes actually look like on the wire.
"""

from __future__ import annotations

import struct
from typing import Iterable

from .capture import Capture, CaptureRecord
from .ipaddr import ip_to_int
from .packet import Segment

__all__ = ["segment_to_packet", "write_pcap", "export_capture"]

_PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_RAW = 101  # raw IPv4/IPv6
_TCP_PROTO = 6


def _checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def segment_to_packet(seg: Segment) -> bytes:
    """Serialize one segment as an IPv4+TCP packet."""
    # TCP options: timestamps (kind 8) padded to a 4-byte boundary.
    options = b""
    if seg.tsval is not None:
        options = b"\x01\x01" + struct.pack(
            ">BBII", 8, 10, seg.tsval & 0xFFFFFFFF, (seg.tsecr or 0) & 0xFFFFFFFF
        )
    data_offset = (20 + len(options)) // 4
    tcp_header = struct.pack(
        ">HHIIBBHHH",
        seg.src_port, seg.dst_port,
        seg.seq & 0xFFFFFFFF, seg.ack & 0xFFFFFFFF,
        data_offset << 4, seg.flags & 0x3F,
        min(seg.window, 0xFFFF), 0, 0,
    ) + options
    pseudo = struct.pack(
        ">IIBBH", ip_to_int(seg.src_ip), ip_to_int(seg.dst_ip), 0, _TCP_PROTO,
        len(tcp_header) + len(seg.payload),
    )
    tcp_checksum = _checksum(pseudo + tcp_header + seg.payload)
    tcp_header = tcp_header[:16] + struct.pack(">H", tcp_checksum) + tcp_header[18:]

    total_len = 20 + len(tcp_header) + len(seg.payload)
    ip_header = struct.pack(
        ">BBHHHBBHII",
        0x45, 0, total_len,
        seg.ip_id & 0xFFFF, 0,
        seg.ttl & 0xFF, _TCP_PROTO, 0,
        ip_to_int(seg.src_ip), ip_to_int(seg.dst_ip),
    )
    ip_checksum = _checksum(ip_header)
    ip_header = ip_header[:10] + struct.pack(">H", ip_checksum) + ip_header[12:]
    return ip_header + tcp_header + seg.payload


def write_pcap(path, records: Iterable[CaptureRecord]) -> int:
    """Write capture records to a pcap file; returns the packet count."""
    count = 0
    with open(path, "wb") as f:
        f.write(struct.pack(">IHHiIII", _PCAP_MAGIC, 2, 4, 0, 0, 65535,
                            _LINKTYPE_RAW))
        for rec in records:
            packet = segment_to_packet(rec.segment)
            seconds = int(rec.time)
            micros = int(round((rec.time - seconds) * 1_000_000))
            f.write(struct.pack(">IIII", seconds, micros, len(packet),
                                len(packet)))
            f.write(packet)
            count += 1
    return count


def export_capture(path, capture: Capture, received_only: bool = False) -> int:
    """Convenience wrapper: dump a host's capture to disk."""
    records = capture.received() if received_only else capture.records
    return write_pcap(path, records)
