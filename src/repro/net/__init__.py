"""Discrete-event network substrate: hosts, TCP, middleboxes, capture."""

from .asdb import AS_TABLE, ASDatabase, ASInfo, PAPER_AS_COUNTS, lookup_asn
from .capture import Capture, CaptureRecord
from .datagram import Datagram, UdpEndpoint
from .host import LINUX_EPHEMERAL_RANGE, Host
from .impairment import Impairment
from .ipaddr import in_cidr, int_to_ip, ip_to_int, parse_cidr, random_ip_in
from .network import Middlebox, Network
from .packet import Flags, Segment
from .pcapfile import export_capture, segment_to_packet, write_pcap
from .sim import Event, Simulator
from .tcp import TcpConnection, TcpState

__all__ = [
    "AS_TABLE",
    "ASDatabase",
    "ASInfo",
    "Capture",
    "CaptureRecord",
    "Datagram",
    "Event",
    "Flags",
    "Host",
    "Impairment",
    "LINUX_EPHEMERAL_RANGE",
    "Middlebox",
    "Network",
    "PAPER_AS_COUNTS",
    "Segment",
    "Simulator",
    "TcpConnection",
    "TcpState",
    "UdpEndpoint",
    "export_capture",
    "in_cidr",
    "int_to_ip",
    "ip_to_int",
    "lookup_asn",
    "parse_cidr",
    "random_ip_in",
    "segment_to_packet",
    "write_pcap",
]
