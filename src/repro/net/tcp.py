"""Simplified TCP connection state machine.

On a pristine network (no :class:`~repro.net.impairment.Impairment`
attached) there is no retransmission machinery — delivery is in-order
and lossless, and the connection reproduces the historical traces
byte-for-byte.  What *is* always modeled faithfully is everything the
paper's measurements observe:

* the 3-way handshake and who closes first with which flags
  (FIN/ACK vs RST vs neither — the reaction classes of Figure 10);
* byte-accurate sequence/ack numbers;
* sender-side sliding window honouring the peer's advertised receive
  window (the mechanism brdgrd exploits to fragment the first payload);
* TCP timestamps (TSval/TSecr) with pluggable timestamp sources
  (the prober fleet shares a handful of TSval processes — Figure 6);
* IP TTL and ID on every segment.

When the network reports itself unreliable (``network.reliable`` is
False at connection setup), the endpoint additionally arms the minimum
machinery needed to survive loss, reordering, and duplication:

* a retransmission timer with exponential backoff over a queue of
  unacknowledged segments (SYN, data, FIN alike — so SYN retry and
  SYN/ACK retry fall out of the same mechanism);
* sequence-checked receive with an out-of-order buffer: duplicates are
  re-ACKed and dropped, future segments are held until the gap fills;
* connection give-up after ``SYN_RETRIES``/``DATA_RETRIES`` consecutive
  timeouts (``timed_out`` is set and the connection closes locally).

Retransmission events are counted on the simulator's bus
(``tcp.retransmit``, ``tcp.syn.retry``, ``tcp.ooo.buffered``,
``tcp.dup.dropped``, ``tcp.timeout``).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .packet import Flags, Segment, flag_words, lengths

__all__ = ["TcpConnection", "TcpState"]

_SEQ_MASK = 0xFFFFFFFF
# Both handshake bits set: the SYN/ACK test on the per-segment hot path.
_SYN_ACK_BOTH = Flags.SYN | Flags.ACK


def _seq_delta(a: int, b: int) -> int:
    """Signed serial-number difference ``a - b`` (RFC 1982 style)."""
    return ((a - b + 0x80000000) & _SEQ_MASK) - 0x80000000


def _noop(*_args) -> None:
    """Shared default for application callbacks (any arity)."""


class TcpState:
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT = "FIN_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"


class TcpConnection:
    """One endpoint of a TCP connection.

    ``__slots__`` covers every attribute ``__init__`` assigns: thousands
    of connections churn through a blocking-fleet run, and the datapath
    touches these attributes on every segment.
    """

    __slots__ = (
        "host", "local_ip", "local_port", "remote_ip", "remote_port",
        "state", "ttl", "_tsval_source", "reliable", "rcv_window",
        "_isn", "_snd_nxt", "_snd_una", "_peer_window", "_send_buffer",
        "_fin_pending", "_fin_sent",
        "_retx_queue", "_retx_event", "_rto", "_retries",
        "_rcv_nxt", "_ooo", "_last_tsval_seen",
        "fin_received", "fin_sent_first", "reset_received", "reset_sent",
        "timed_out", "bytes_received", "bytes_sent", "retransmits",
        "on_connected", "on_data", "on_remote_fin", "on_reset", "on_closed",
        "_grb",
    )

    MSS = 1400

    # Retransmission parameters (only used on unreliable networks).
    RTO_INITIAL = 1.0     # seconds; doubled on every consecutive timeout
    RTO_MAX = 60.0
    SYN_RETRIES = 5       # Linux tcp_syn_retries default
    DATA_RETRIES = 8      # give-up threshold for data/FIN segments

    def __init__(
        self,
        host,
        local_ip: str,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        *,
        ttl: Optional[int] = None,
        tsval_source: Optional[Callable[[float], int]] = None,
        rcv_window: int = 65535,
    ):
        self.host = host
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = TcpState.CLOSED
        self.ttl = ttl if ttl is not None else host.default_ttl
        self._tsval_source = tsval_source

        # Sampled once at setup: a reliable fabric keeps the historical
        # no-retransmission machinery and its exact traces.
        self.reliable = host.network.reliable

        # Receive window we advertise.  brdgrd manipulates the *other*
        # side's view of this by rewriting segments in flight.
        self.rcv_window = rcv_window

        # Send-side state.  The ISN draw inlines CPython's
        # ``randrange(1 << 32)`` reduction (``_randbelow`` via 33-bit
        # getrandbits with redraw) for stock RNGs — the identical seeded
        # stream without two wrapper frames per connection.
        rng = host.rng
        if type(rng) is random.Random:
            isn = rng.getrandbits(33)
            while isn >= 4294967296:
                isn = rng.getrandbits(33)
            self._isn = isn
        else:
            self._isn = rng.randrange(1 << 32)
        self._snd_nxt = self._isn
        self._snd_una = self._isn
        self._peer_window = self.MSS  # updated from every ACK
        self._send_buffer = bytearray()
        self._fin_pending = False
        self._fin_sent = False

        # Retransmission state (idle on reliable networks).
        # Queue entries: (seq, flags, payload, sequence-space consumed).
        self._retx_queue: List[Tuple[int, int, bytes, int]] = []
        self._retx_event = None
        self._rto = self.RTO_INITIAL
        self._retries = 0

        # Receive-side state.
        self._rcv_nxt = 0
        self._ooo: Dict[int, Segment] = {}  # seq -> buffered future segment
        self._last_tsval_seen: Optional[int] = None

        # Observable outcomes.
        self.fin_received = False
        self.fin_sent_first: Optional[bool] = None  # True if we FIN'd before peer
        self.reset_received = False
        self.reset_sent = False
        self.timed_out = False
        self.bytes_received = 0
        self.bytes_sent = 0
        self.retransmits = 0

        # Application callbacks (shared no-ops: one closure per *class*,
        # not five per connection — accepts on the probe-heavy paths
        # construct thousands of connections per scenario).
        self.on_connected: Callable[[], None] = _noop
        self.on_data: Callable[[bytes], None] = _noop
        self.on_remote_fin: Callable[[], None] = _noop
        self.on_reset: Callable[[], None] = _noop
        self.on_closed: Callable[[], None] = _noop
        # IP-ID fast path: for a stock ``random.Random``,
        # ``_randbelow(65536)`` is exactly ``getrandbits(17)`` redrawn
        # while >= 65536 (CPython's ``_randbelow_with_getrandbits``), so
        # the emit path can inline that loop against the bound C method —
        # the identical draw stream without the Python-level call.
        # Subclassed RNGs (which may override the reduction) keep the
        # ``_randbelow`` delegation.
        self._grb = (host.rng.getrandbits
                     if type(host.rng) is random.Random else None)

    # ------------------------------------------------------------------ util

    def _emit(self, flags: int, payload: bytes = b"", seq: Optional[int] = None) -> None:
        # Slot-store construction: one segment is emitted per ACK/data
        # chunk/handshake step, and skipping the generated dataclass
        # ``__init__`` (14 keyword slots) and reading the TSval clock and
        # IP ID inline rather than through the host measurably trims the
        # hot path.
        # Field values are identical to the historical keyword form.
        host = self.host
        if flags & Flags.RST:
            tsval = None
        else:
            source = self._tsval_source
            tsval = (int(host._tsval_offset
                         + host.tsval_rate * host.sim.now) & 0xFFFFFFFF
                     if source is None
                     else source(host.sim.now) & 0xFFFFFFFF)
        grb = self._grb
        if grb is not None:
            ip_id = grb(17)
            while ip_id >= 65536:
                ip_id = grb(17)
        else:
            ip_id = host.rng._randbelow(65536)
        acked = flags & Flags.ACK
        seg = object.__new__(Segment)
        seg.src_ip = self.local_ip
        seg.dst_ip = self.remote_ip
        seg.src_port = self.local_port
        seg.dst_port = self.remote_port
        seg.flags = flags
        seg.seq = seq if seq is not None else self._snd_nxt
        seg.ack = self._rcv_nxt if acked else 0
        seg.payload = payload
        seg.window = self.rcv_window
        seg.ttl = self.ttl
        seg.ip_id = ip_id
        seg.tsval = tsval
        seg.tsecr = self._last_tsval_seen if acked else None
        seg.timestamp = 0.0
        # Inlined Host.transmit: capture stamp, then buffer under an
        # open tx batch or send immediately.
        cap = host.capture
        if cap.enabled:
            if cap.taps:
                cap.record(seg, host.sim.now, sent=True)
            elif cap.buffering:
                cap._raw.append((host.sim.now, True, seg))
        if host._tx_depth:
            host._tx_buffer.append(seg)
        else:
            host.network.send_segment(seg)

    @property
    def is_open(self) -> bool:
        return self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)

    # ------------------------------------------------------------ public API

    def open(self) -> None:
        """Actively initiate the connection (client side)."""
        if self.state != TcpState.CLOSED:
            raise RuntimeError(f"cannot open connection in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._emit(Flags.SYN)
        self._queue_retx(Flags.SYN, b"", self._snd_nxt, 1)
        self._snd_nxt += 1  # SYN consumes one sequence number

    def send(self, data: bytes) -> None:
        """Queue application data; transmitted as the peer window allows.

        The pump runs inside a host transmit batch: every MSS chunk it
        emits in this call leaves as one per-flow burst (a single
        delivery event) instead of one network event per segment.
        """
        if not data:
            return
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.SYN_SENT, TcpState.SYN_RCVD):
            raise RuntimeError(f"cannot send in state {self.state}")
        self._send_buffer.extend(data)
        host = self.host
        host.begin_tx_batch()
        try:
            self._pump()
        finally:
            host.end_tx_batch()

    def close(self) -> None:
        """Graceful close: FIN once the send buffer drains."""
        if self.state in (TcpState.CLOSED, TcpState.FIN_WAIT, TcpState.LAST_ACK):
            return
        self._fin_pending = True
        host = self.host
        host.begin_tx_batch()
        try:
            self._pump()
        finally:
            host.end_tx_batch()

    def abort(self) -> None:
        """Send RST and drop the connection."""
        if self.state == TcpState.CLOSED:
            return
        self.reset_sent = True
        self._emit(Flags.RST)
        self._enter_closed()

    # ------------------------------------------------- retransmission timer

    def _queue_retx(self, flags: int, payload: bytes, seq: int, consumed: int) -> None:
        """Track an in-flight segment for retransmission (unreliable only)."""
        if self.reliable:
            return
        self._retx_queue.append((seq, flags, payload, consumed))
        self._arm_retx()

    def _arm_retx(self) -> None:
        if self._retx_event is None:
            self._retx_event = self.host.sim.schedule(self._rto, self._on_rto)

    def _cancel_retx(self) -> None:
        if self._retx_event is not None:
            self._retx_event.cancel()
            self._retx_event = None

    def _on_rto(self) -> None:
        self._retx_event = None
        if self.state == TcpState.CLOSED or not self._retx_queue:
            return
        seq, flags, payload, consumed = self._retx_queue[0]
        limit = self.SYN_RETRIES if flags & Flags.SYN else self.DATA_RETRIES
        if self._retries >= limit:
            # The path is gone (blackout, persistent loss, silent drop):
            # give up locally rather than retrying forever.
            self.timed_out = True
            self.host.sim.bus.incr("tcp.timeout")
            self._enter_closed()
            return
        self._retries += 1
        self.retransmits += 1
        pure_syn = bool(flags & Flags.SYN) and not flags & Flags.ACK
        self.host.sim.bus.incr("tcp.syn.retry" if pure_syn else "tcp.retransmit")
        self._emit(flags, payload=payload, seq=seq)
        self._rto = min(self._rto * 2.0, self.RTO_MAX)
        self._arm_retx()

    def _ack_advance(self, ack: int) -> None:
        """Fold one cumulative ACK into the send state."""
        if self.reliable:
            if ack > self._snd_una:
                self._snd_una = ack
            return
        if _seq_delta(ack, self._snd_una) <= 0:
            return
        self._snd_una = ack
        while self._retx_queue:
            seq, _flags, _payload, consumed = self._retx_queue[0]
            if _seq_delta(ack, seq + consumed) >= 0:
                self._retx_queue.pop(0)
            else:
                break
        # Forward progress: restart the timer at the base RTO for
        # whatever is still outstanding.
        self._retries = 0
        self._rto = self.RTO_INITIAL
        self._cancel_retx()
        if self._retx_queue:
            self._arm_retx()

    # ------------------------------------------------------------- internals

    def _enter_closed(self) -> None:
        if self.state != TcpState.CLOSED:
            self.state = TcpState.CLOSED
            self._cancel_retx()
            self.host.forget(self)
            self.on_closed()
            # A closed connection delivers nothing more; dropping the app's
            # callbacks breaks the connection <-> session cycle, so the
            # session is freed by reference counting.
            self.on_connected = self.on_data = self.on_remote_fin = _noop
            self.on_reset = self.on_closed = _noop

    def _pump(self) -> None:
        """Send as much buffered data as the peer's window allows."""
        # Common case on the receive path: an ACK arrives with nothing
        # buffered and no FIN to send — bail before the state tests.
        if not self._send_buffer and (self._fin_sent or not self._fin_pending):
            return
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            return
        while self._send_buffer:
            in_flight = (
                self._snd_nxt - self._snd_una if self.reliable
                else _seq_delta(self._snd_nxt, self._snd_una)
            )
            room = self._peer_window - in_flight
            if room <= 0:
                break
            chunk = bytes(self._send_buffer[: min(self.MSS, room)])
            del self._send_buffer[: len(chunk)]
            self._emit(Flags.PSH | Flags.ACK, payload=chunk)
            self._queue_retx(Flags.PSH | Flags.ACK, chunk, self._snd_nxt, len(chunk))
            self._snd_nxt += len(chunk)
            self.bytes_sent += len(chunk)
        if self._fin_pending and not self._send_buffer and not self._fin_sent:
            self._fin_sent = True
            if self.fin_sent_first is None:
                self.fin_sent_first = not self.fin_received
            self._emit(Flags.FIN | Flags.ACK)
            self._queue_retx(Flags.FIN | Flags.ACK, b"", self._snd_nxt, 1)
            self._snd_nxt += 1  # FIN consumes one sequence number
            self.state = (
                TcpState.LAST_ACK if self.state == TcpState.CLOSE_WAIT else TcpState.FIN_WAIT
            )

    def handle_segment(self, seg: Segment) -> None:
        """Process one incoming segment (called by the host)."""
        # Flag tests are inlined as bit ops on a local — this method runs
        # for every delivered segment that misses the batched fast path.
        flags = seg.flags
        if seg.tsval is not None:
            self._last_tsval_seen = seg.tsval

        if flags & Flags.RST:
            self.reset_received = True
            self.on_reset()
            self._enter_closed()
            return

        if self.state == TcpState.SYN_SENT:
            if flags & _SYN_ACK_BOTH == _SYN_ACK_BOTH:
                self._rcv_nxt = (seg.seq + 1) & 0xFFFFFFFF
                self._ack_advance(seg.ack)
                self._peer_window = seg.window
                self.state = TcpState.ESTABLISHED
                self._emit(Flags.ACK)
                self.on_connected()
                self._pump()
            return

        if self.state == TcpState.SYN_RCVD:
            if not self.reliable and seg.is_syn:
                # The peer retried its SYN: our SYN/ACK was lost.
                self.retransmits += 1
                self.host.sim.bus.incr("tcp.retransmit")
                self._emit(Flags.SYN | Flags.ACK, seq=self._isn)
                return
            if flags & Flags.ACK:
                self._ack_advance(seg.ack)
                self._peer_window = seg.window
                self.state = TcpState.ESTABLISHED
                self.on_connected()
                self._pump()
            # Fall through: the handshake ACK may carry data (it does not
            # in this model, but be permissive).
            if not seg.payload:
                return

        if not self.reliable and flags & _SYN_ACK_BOTH == _SYN_ACK_BOTH:
            # Duplicate SYN/ACK (our handshake ACK was lost): re-ACK so
            # the peer leaves SYN_RCVD.
            self._emit(Flags.ACK)
            return

        if flags & Flags.ACK:
            # Reliable-fabric ACK fold and the _pump early-out are inlined
            # (identical semantics) — this is the hottest branch of the
            # per-segment receive path.
            if self.reliable:
                if seg.ack > self._snd_una:
                    self._snd_una = seg.ack
            else:
                self._ack_advance(seg.ack)
            self._peer_window = seg.window
            if self.state == TcpState.LAST_ACK and self._snd_una >= self._snd_nxt:
                self._enter_closed()
                return
            if self._send_buffer or (self._fin_pending and not self._fin_sent):
                self._pump()

        if seg.payload or flags & Flags.FIN:
            if self.reliable:
                self._deliver_in_order(seg)
            else:
                self._receive_sequenced(seg)

    # ----------------------------------------------- batched receive path

    # States in which the batched receive path may run: the handshake is
    # done, and the only state transition an incoming non-flag segment
    # can cause (LAST_ACK close) is excluded.
    _BURST_STATES = (TcpState.ESTABLISHED, TcpState.FIN_WAIT,
                     TcpState.CLOSE_WAIT)

    def _burst_quiescent(self) -> bool:
        """True while per-segment processing is provably branch-free.

        With nothing buffered to send and no FIN waiting to go out,
        ``_pump`` is a no-op for every segment of a run, so ACK handling
        reduces to the cumulative fold ``handle_burst`` performs.
        """
        return (self.state in self._BURST_STATES
                and not self._send_buffer
                and not (self._fin_pending and not self._fin_sent))

    def handle_burst(self, segs: List[Segment]) -> int:
        """Consume a qualifying prefix of a same-flow burst in one call.

        Byte-identical to calling :meth:`handle_segment` per segment —
        the fast path only engages while that equivalence is provable:

        * reliable fabric (impaired networks keep the sequence-checked
          per-segment receive and its fault handling);
        * stock timestamp source (a stateful ``tsval_source`` could
          observe the per-emission call pattern);
        * handshake complete, send buffer empty, no un-sent FIN pending
          (so the per-ACK ``_pump`` is a no-op) — re-checked after every
          app callback, since ``on_data`` may send, close, or abort;
        * data runs must be exactly in-order (``seq == rcv_nxt``,
          contiguous) with plain ACK/PSH flags; anything else — OOO,
          retransmits, SYN/FIN/RST, unexpected flag combos — ends the
          prefix and falls back to ``handle_segment``.

        Per data segment the loop still records the arrival capture,
        advances ``rcv_nxt``, and emits the cumulative ACK (same fields,
        same ``ip_id`` RNG draw), so captures, analyzer taps, and every
        downstream byte are unchanged.  Returns the number of segments
        consumed; the host routes the remainder per segment.
        """
        if not self.reliable or self._tsval_source is not None:
            return 0
        n = len(segs)
        fw = flag_words(segs)
        ln = lengths(segs)
        ack_bit = Flags.ACK
        bad_bits = Flags.SYN | Flags.FIN | Flags.RST
        i = 0
        while i < n:
            if not self._burst_quiescent():
                break
            f = fw[i]
            if f == ack_bit and not ln[i]:
                i = self._rx_ack_run(segs, fw, ln, i, n)
            elif ln[i] and f & ack_bit and not f & bad_bits:
                j = self._rx_data_run(segs, fw, ln, i, n)
                if j == i:
                    break
                i = j
            else:
                break
        return i

    def _rx_ack_run(self, segs, fw, ln, i: int, n: int) -> int:
        """Fold a run of pure ACKs (no payload, no other flags) at once.

        Sequential per-segment handling would do: update the tsval echo,
        fold the cumulative ACK (a running max on a reliable fabric),
        take the peer window, and run a no-op ``_pump``.  Folding keeps
        the last tsval/window and the max ACK — identical final state —
        while each arrival is still captured in order.
        """
        ack_bit = Flags.ACK
        j = i
        while j < n and fw[j] == ack_bit and not ln[j]:
            j += 1
        host = self.host
        cap = host.capture
        # Inlined Capture.record fast path (see Host.transmit).
        raw = (cap._raw if cap.enabled and not cap.taps and cap.buffering
               else None)
        record = cap.record if raw is None and cap.enabled else None
        now = host.sim.now
        best = self._snd_una
        for k in range(i, j):
            seg = segs[k]
            if raw is not None:
                raw.append((now, False, seg))
            elif record is not None:
                record(seg, now, False)
            tsv = seg.tsval
            if tsv is not None:
                self._last_tsval_seen = tsv
            a = seg.ack
            if a > best:
                best = a
        self._snd_una = best
        self._peer_window = segs[j - 1].window
        return j

    def _rx_data_run(self, segs, fw, ln, i: int, n: int) -> int:
        """Process an exactly-in-order data run; returns the new index.

        Emits one cumulative ACK per segment with the identical field
        values and RNG draws the per-segment path produces (they leave
        as one coalesced return burst when the host's transmit batch
        flushes), then hands each payload to the app's ``on_data``.
        """
        seq_mask = _SEQ_MASK
        ack_bit = Flags.ACK
        bad_bits = Flags.SYN | Flags.FIN | Flags.RST
        # Classify: longest contiguous in-sequence data prefix.
        expect = self._rcv_nxt
        j = i
        while j < n:
            f = fw[j]
            if not ln[j] or not f & ack_bit or f & bad_bits:
                break
            if segs[j].seq != expect:
                break
            expect = (expect + ln[j]) & seq_mask
            j += 1
        if j == i:
            return i
        host = self.host
        cap = host.capture
        # Inlined Capture.record fast path (see Host.transmit).
        raw = (cap._raw if cap.enabled and not cap.taps and cap.buffering
               else None)
        record = cap.record if raw is None and cap.enabled else None
        txbuf = host._tx_buffer
        grb = self._grb
        randbelow = host.rng._randbelow if grb is None else None
        now = host.sim.now
        tsval_now = int(host._tsval_offset
                        + host.tsval_rate * now) & 0xFFFFFFFF
        k = i
        while k < j:
            seg = segs[k]
            if raw is not None:
                raw.append((now, False, seg))
            elif record is not None:
                record(seg, now, False)
            tsv = seg.tsval
            if tsv is not None:
                self._last_tsval_seen = tsv
            a = seg.ack
            if a > self._snd_una:
                self._snd_una = a
            self._peer_window = seg.window
            nxt = (seg.seq + ln[k]) & seq_mask
            self._rcv_nxt = nxt
            self.bytes_received += ln[k]
            ack = object.__new__(Segment)
            ack.src_ip = self.local_ip
            ack.dst_ip = self.remote_ip
            ack.src_port = self.local_port
            ack.dst_port = self.remote_port
            ack.flags = ack_bit
            ack.seq = self._snd_nxt
            ack.ack = nxt
            ack.payload = b""
            ack.window = self.rcv_window
            ack.ttl = self.ttl
            if grb is not None:
                ip_id = grb(17)
                while ip_id >= 65536:
                    ip_id = grb(17)
            else:
                ip_id = randbelow(65536)
            ack.ip_id = ip_id
            ack.tsval = tsval_now
            ack.tsecr = self._last_tsval_seen
            ack.timestamp = 0.0
            # Inlined Host.transmit (same dispatch as ``_emit``): the TX
            # capture stamp shares this capture's fast-path locals.
            if raw is not None:
                raw.append((now, True, ack))
            elif record is not None:
                record(ack, now, True)
            if host._tx_depth:
                txbuf.append(ack)
            else:
                host.network.send_segment(ack)
            k += 1
            self.on_data(seg.payload)
            if not self._burst_quiescent():
                break
        return k

    # ------------------------------------------ sequence-checked receive

    def _receive_sequenced(self, seg: Segment) -> None:
        """Receive path on unreliable networks: dedup, reorder, reassemble."""
        end = seg.seq + len(seg.payload) + (1 if seg.has(Flags.FIN) else 0)
        bus = self.host.sim.bus
        if _seq_delta(end, self._rcv_nxt) <= 0:
            # Wholly duplicate (a retransmission or a network-level copy):
            # re-ACK so the sender can clear its queue.
            bus.incr("tcp.dup.dropped")
            self._emit(Flags.ACK)
            return
        if _seq_delta(seg.seq, self._rcv_nxt) > 0:
            # Future segment: hold it until the gap fills, and dup-ACK to
            # advertise where the hole is.
            if seg.seq not in self._ooo:
                self._ooo[seg.seq] = seg
                bus.incr("tcp.ooo.buffered")
            self._emit(Flags.ACK)
            return
        self._deliver_in_order(seg)
        if self.state != TcpState.CLOSED:
            self._drain_ooo()

    def _deliver_in_order(self, seg: Segment) -> None:
        """Deliver a segment's data, then its FIN, and ACK each.

        A segment that starts before ``rcv_nxt`` has its overlap trimmed.
        A reliable fabric sends every data or FIN segment here straight
        from :meth:`handle_segment`: it neither duplicates nor
        retransmits, so nothing is trimmed, and a segment past a gap a
        middlebox left (a blocked segment) is taken as it comes.
        """
        payload = seg.payload
        offset = _seq_delta(self._rcv_nxt, seg.seq)
        if offset > 0:
            payload = payload[offset:]
        if payload:
            self._rcv_nxt = (seg.seq + len(seg.payload)) & 0xFFFFFFFF
            self.bytes_received += len(payload)
            self._emit(Flags.ACK)
            self.on_data(payload)
            # on_data may have closed/aborted us; nothing further to do then.
            if self.state == TcpState.CLOSED:
                return
        if seg.flags & Flags.FIN:
            self.fin_received = True
            if self.fin_sent_first is None:
                self.fin_sent_first = False
            self._rcv_nxt = (seg.seq + len(seg.payload) + 1) & 0xFFFFFFFF
            self._emit(Flags.ACK)
            self.on_remote_fin()
            if self.state == TcpState.FIN_WAIT:
                self._enter_closed()
            elif self.state == TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT

    def _drain_ooo(self) -> None:
        """Deliver buffered future segments made contiguous by new data."""
        progressed = True
        while progressed and self._ooo and self.state != TcpState.CLOSED:
            progressed = False
            for seq in sorted(self._ooo, key=lambda s: _seq_delta(s, self._rcv_nxt)):
                seg = self._ooo[seq]
                end = seq + len(seg.payload) + (1 if seg.has(Flags.FIN) else 0)
                if _seq_delta(end, self._rcv_nxt) <= 0:
                    del self._ooo[seq]      # overtaken: wholly duplicate now
                    progressed = True
                elif _seq_delta(seq, self._rcv_nxt) <= 0:
                    del self._ooo[seq]
                    self._deliver_in_order(seg)
                    progressed = True
                    break                   # rcv_nxt moved; rescan
