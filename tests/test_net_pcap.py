"""pcap export/import: wire-accurate serialization of captures."""

import struct

import pytest

from repro.net import Flags, Host, Network, Segment, Simulator
from repro.net.capture import CaptureRecord
from repro.net.pcapfile import (
    _checksum,
    export_capture,
    segment_to_packet,
    write_pcap,
)
from .net_reference import packet_to_segment, read_pcap


def sample_segment(**over):
    base = dict(
        src_ip="192.0.2.1", dst_ip="198.51.100.2", src_port=43210,
        dst_port=8388, flags=Flags.PSH | Flags.ACK, seq=1000, ack=2000,
        payload=b"hello wire", window=29200, ttl=48, ip_id=777,
        tsval=123456, tsecr=654321,
    )
    base.update(over)
    return Segment(**base)


def test_roundtrip_all_fields():
    seg = sample_segment()
    back = packet_to_segment(segment_to_packet(seg), timestamp=1.5)
    for field in ("src_ip", "dst_ip", "src_port", "dst_port", "flags", "seq",
                  "ack", "payload", "window", "ttl", "ip_id", "tsval", "tsecr"):
        assert getattr(back, field) == getattr(seg, field), field
    assert back.timestamp == 1.5


def test_roundtrip_without_timestamps():
    seg = sample_segment(tsval=None, tsecr=None, flags=Flags.RST)
    back = packet_to_segment(segment_to_packet(seg))
    assert back.tsval is None and back.tsecr is None
    assert back.flags == Flags.RST


def test_ip_checksum_valid():
    packet = segment_to_packet(sample_segment())
    assert _checksum(packet[:20]) == 0  # checksum over header incl. field = 0


def test_tcp_checksum_valid():
    seg = sample_segment()
    packet = segment_to_packet(seg)
    pseudo = packet[12:20] + bytes([0, 6]) + struct.pack(">H", len(packet) - 20)
    assert _checksum(pseudo + packet[20:]) == 0


def test_packet_parsing_validates():
    with pytest.raises(ValueError):
        packet_to_segment(b"short")
    bad_version = bytearray(segment_to_packet(sample_segment()))
    bad_version[0] = 0x65
    with pytest.raises(ValueError):
        packet_to_segment(bytes(bad_version))


def test_write_and_read_pcap(tmp_path):
    path = tmp_path / "probes.pcap"
    records = [
        CaptureRecord(time=1.25, sent=False, segment=sample_segment()),
        CaptureRecord(time=2.5, sent=True,
                      segment=sample_segment(flags=Flags.SYN, payload=b"")),
    ]
    assert write_pcap(path, records) == 2
    loaded = read_pcap(path)
    assert len(loaded) == 2
    assert loaded[0][0] == pytest.approx(1.25)
    assert loaded[0][1].payload == b"hello wire"
    assert loaded[1][1].is_syn


def test_read_pcap_validates_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(ValueError):
        read_pcap(path)


def test_export_live_capture(tmp_path):
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, net, "10.0.0.1")
    b = Host(sim, net, "10.0.0.2")
    b.listen(80, lambda c: setattr(c, "on_data", lambda d: c.send(d)))
    conn = a.connect("10.0.0.2", 80)
    conn.on_connected = lambda: conn.send(b"ping")
    sim.run(until=5)
    path = tmp_path / "session.pcap"
    count = export_capture(path, b.capture, received_only=True)
    assert count == len(b.capture.received())
    loaded = read_pcap(path)
    payloads = [seg.payload for _, seg in loaded if seg.payload]
    assert payloads == [b"ping"]
