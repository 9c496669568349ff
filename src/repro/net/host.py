"""Simulated hosts: endpoints that own TCP connections.

A host can hold many IP addresses (``extra_ips``), which is how the GFW's
prober fleet — thousands of source addresses driven by a handful of
centralized processes — is modeled without thousands of host objects.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, Optional, Tuple

from .capture import Capture
from .packet import Flags, Segment, SegmentBurst
from .tcp import TcpConnection, TcpState

__all__ = ["Host"]

# Default Linux ephemeral port range (net.ipv4.ip_local_port_range); the
# paper observes ~90% of probes within it (Figure 5).
LINUX_EPHEMERAL_RANGE = (32768, 60999)

# Inlined pure-SYN test for the delivery dispatch.
_SYN_ACK_MASK = Flags.SYN | Flags.ACK


class Host:
    """A network endpoint with its own clock, ports, and capture.

    To observe arrivals, subscribe to ``capture``: the delivery methods
    are dispatch, not hooks, and ``deliver_burst`` hands in-order runs to
    the connection without a per-segment call.
    """

    def __init__(
        self,
        sim,
        network,
        ip: str,
        name: Optional[str] = None,
        *,
        default_ttl: int = 64,
        tsval_rate: float = 1000.0,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.network = network
        self.ip = ip
        self.name = name or ip
        self.default_ttl = default_ttl
        # Seeded from a stable function of the address: ``hash(str)``
        # changes with PYTHONHASHSEED, and with it every ISN, IP ID,
        # TSval offset and ephemeral port this host draws.
        self.rng = rng or random.Random(zlib.crc32(ip.encode()))
        self.capture = Capture()

        # TCP timestamp clock: value = (boot_offset + rate * now) mod 2^32.
        self.tsval_rate = tsval_rate
        self._tsval_offset = self.rng.randrange(1 << 32)

        self._connections: Dict[Tuple, TcpConnection] = {}
        self._listeners: Dict[int, Callable[[TcpConnection], object]] = {}
        self._next_ephemeral = self.rng.randint(*LINUX_EPHEMERAL_RANGE)
        self.extra_ips: set = set()

        # Transmit batching: while a batch is open (depth-counted, so
        # contexts nest), outbound segments are buffered and flushed as
        # per-flow bursts when the outermost context closes.  Captures
        # are still recorded at the ``transmit`` call site, so trace
        # order is unchanged.
        self._tx_depth = 0
        self._tx_buffer: list = []

        # UDP: bound ports and a (time, sent, datagram) log.
        self._udp_ports: Dict[int, object] = {}
        self.udp_log: list = []

        network.attach(self)

    # ------------------------------------------------------------------- ids

    def next_ip_id(self) -> int:
        # The paper finds "no clear pattern" in prober IP IDs; model as
        # random.  ``_randbelow`` is ``randrange(stop)`` minus the
        # argument-normalization wrapper: the identical draw stream (see
        # repro.randutil) at a fraction of the cost, and this runs once
        # per emitted segment.
        return self.rng._randbelow(1 << 16)

    def alloc_port(self) -> int:
        lo, hi = LINUX_EPHEMERAL_RANGE
        port = self._next_ephemeral
        self._next_ephemeral = port + 1 if port < hi else lo
        return port

    # ------------------------------------------------------------------- API

    def listen(self, port: int, app_factory: Callable[[TcpConnection], object]) -> None:
        """Accept connections on ``port``; ``app_factory(conn)`` wires an app."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening on {self.name}")
        self._listeners[port] = app_factory

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        dst_ip: str,
        dst_port: int,
        *,
        src_ip: Optional[str] = None,
        src_port: Optional[int] = None,
        ttl: Optional[int] = None,
        tsval_source: Optional[Callable[[float], int]] = None,
    ) -> TcpConnection:
        """Create and open a client connection; returns immediately."""
        source = src_ip or self.ip
        if source != self.ip and source not in self.extra_ips:
            raise ValueError(f"{self.name} does not own source IP {source}")
        port = src_port if src_port is not None else self.alloc_port()
        conn = TcpConnection(
            self, source, port, dst_ip, dst_port, ttl=ttl, tsval_source=tsval_source
        )
        key = (source, port, dst_ip, dst_port)
        if key in self._connections:
            raise ValueError(f"connection collision on {key}")
        self._connections[key] = conn
        conn.open()
        return conn

    # ------------------------------------------------------------- transport

    def transmit(self, seg: Segment) -> None:
        """Hand a segment to the network (stamped by the sending capture)."""
        # Inlined Capture.record fast path (tap-free buffering capture
        # appends one raw tuple); taps or disabled captures take the
        # full method.
        cap = self.capture
        if cap.enabled:
            if cap.taps:
                cap.record(seg, self.sim.now, sent=True)
            elif cap.buffering:
                cap._raw.append((self.sim.now, True, seg))
        if self._tx_depth:
            self._tx_buffer.append(seg)
        else:
            self.network.send_segment(seg)

    def begin_tx_batch(self) -> None:
        """Open a transmit batch; segments buffer until the outermost
        :meth:`end_tx_batch` flushes them as per-flow bursts."""
        self._tx_depth += 1

    def end_tx_batch(self) -> None:
        self._tx_depth -= 1
        if self._tx_depth == 0 and self._tx_buffer:
            self._flush_tx()

    def _flush_tx(self) -> None:
        """Hand buffered segments to the network, grouped into bursts.

        Consecutive runs sharing one directional flow 4-tuple become one
        burst — this preserves the *global* emission order exactly (no
        cross-flow reordering), so on-path observers see segments in the
        order they were transmitted.
        """
        buffer = self._tx_buffer
        self._tx_buffer = []
        send = self.network.send_segment
        if len(buffer) == 1:
            send(buffer[0])
            return
        send_burst = self.network.send_segment_burst
        head = buffer[0]
        run: list = [head]
        for seg in buffer[1:]:
            # Inline 4-tuple flow comparison (ports first: the cheapest
            # fields and the likeliest to differ between flows).
            if (seg.src_port == head.src_port
                    and seg.dst_port == head.dst_port
                    and seg.dst_ip == head.dst_ip
                    and seg.src_ip == head.src_ip):
                run.append(seg)
                continue
            if len(run) == 1:
                send(run[0])
            else:
                send_burst(SegmentBurst(run))
            head = seg
            run = [seg]
        if len(run) == 1:
            send(run[0])
        else:
            send_burst(SegmentBurst(run))

    def deliver(self, seg: Segment) -> None:
        """Receive one segment from the network.

        Whatever the arrival makes this host send leaves as per-flow
        bursts: the begin/end transmit-batch bracket is inlined here,
        because delivery is its hottest caller.
        """
        self._tx_depth += 1
        try:
            self._deliver_fast(seg)
        finally:
            self._tx_depth -= 1
            if self._tx_depth == 0 and self._tx_buffer:
                self._flush_tx()

    def deliver_burst(self, segs) -> None:
        """Receive a same-flow burst (one delivery event) from the network.

        The owning connection consumes a qualifying in-order prefix in
        one :meth:`TcpConnection.handle_burst` call — classification,
        ``rcv_nxt`` advance, and cumulative-ACK emission amortized across
        the run, with the ACKs leaving as one coalesced return burst when
        the transmit batch flushes.  The rest — no matching connection,
        or the unconsumed remainder of a burst (OOO data, FIN/RST tails,
        handshake segments) — is dispatched one segment at a time.
        """
        self._tx_depth += 1
        try:
            start = 0
            count = len(segs)
            if count > 1:
                first = segs[0]
                conn = self._connections.get(
                    (first.dst_ip, first.dst_port, first.src_ip, first.src_port))
                if conn is not None:
                    start = conn.handle_burst(segs)
            for k in range(start, count):
                self._deliver_fast(segs[k])
        finally:
            self._tx_depth -= 1
            if self._tx_depth == 0 and self._tx_buffer:
                self._flush_tx()

    def _deliver_fast(self, seg: Segment) -> None:
        """Capture one arrival and dispatch it: to its connection, to a
        listener if it opens one, else answer with RST.

        Runs inside the transmit batch of :meth:`deliver` or
        :meth:`deliver_burst`.
        """
        cap = self.capture
        if cap.enabled:
            if cap.taps:
                cap.record(seg, self.sim.now, sent=False)
            elif cap.buffering:
                cap._raw.append((self.sim.now, False, seg))
        conn = self._connections.get(
            (seg.dst_ip, seg.dst_port, seg.src_ip, seg.src_port))
        if conn is not None:
            conn.handle_segment(seg)
        elif (seg.flags & _SYN_ACK_MASK == Flags.SYN
              and seg.dst_port in self._listeners):
            self._accept(seg)
        elif not seg.flags & Flags.RST:
            # Closed port: a real stack answers a stray SYN (or data)
            # with RST.
            self._refuse(seg)

    def _accept(self, syn: Segment) -> None:
        conn = TcpConnection(
            self, syn.dst_ip, syn.dst_port, syn.src_ip, syn.src_port
        )
        conn.state = TcpState.SYN_RCVD
        conn._rcv_nxt = (syn.seq + 1) & 0xFFFFFFFF
        conn._peer_window = syn.window
        if syn.tsval is not None:
            conn._last_tsval_seen = syn.tsval
        key = (syn.dst_ip, syn.dst_port, syn.src_ip, syn.src_port)
        self._connections[key] = conn
        # Wire the application before the handshake completes so callbacks
        # set by the factory see every event.
        self._listeners[syn.dst_port](conn)
        syn_ack_seq = conn._snd_nxt
        conn._emit(Flags.SYN | Flags.ACK, seq=syn_ack_seq)
        conn._queue_retx(Flags.SYN | Flags.ACK, b"", syn_ack_seq, 1)
        conn._snd_nxt += 1

    def _refuse(self, seg: Segment) -> None:
        rst = Segment(
            src_ip=seg.dst_ip,
            dst_ip=seg.src_ip,
            src_port=seg.dst_port,
            dst_port=seg.src_port,
            flags=Flags.RST | Flags.ACK,
            seq=0,
            ack=(seg.seq + len(seg.payload) + (1 if seg.is_syn else 0)) & 0xFFFFFFFF,
            ttl=self.default_ttl,
            ip_id=self.next_ip_id(),
        )
        self.transmit(rst)

    # ------------------------------------------------------------------ UDP

    def udp_bind(self, port: Optional[int] = None):
        """Bind a UDP port; returns a :class:`UdpEndpoint`."""
        from .datagram import UdpEndpoint

        if port is None:
            port = self.alloc_port()
            while port in self._udp_ports:
                port = self.alloc_port()
        if port in self._udp_ports:
            raise ValueError(f"UDP port {port} already bound on {self.name}")
        endpoint = UdpEndpoint(self, port)
        self._udp_ports[port] = endpoint
        return endpoint

    def udp_unbind(self, port: int) -> None:
        self._udp_ports.pop(port, None)

    def deliver_datagram(self, dgram) -> None:
        endpoint = self._udp_ports.get(dgram.dst_port)
        if endpoint is not None:
            endpoint.deliver(dgram)
        # Unbound port: silently dropped (no ICMP model).

    def forget(self, conn: TcpConnection) -> None:
        key = (conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        self._connections.pop(key, None)
