"""The §4.1 measurement servers and the random-data client.

* :class:`SinkServer` — accepts TCP connections, never sends data, and
  closes them after 30 seconds (Table 4, "sink" mode).
* :class:`RespondingServer` — same, but answers *probers* (any peer not
  on the experimenter's own client list) with 1–1000 random bytes
  ("responding" mode, Exp 1.b).
* :class:`RandomDataClient` — performs a handshake and sends exactly one
  data packet with a sampled (length, entropy).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Set, Tuple

from .payloads import payload_with_entropy, random_payload

__all__ = ["SinkServer", "RespondingServer", "RandomDataClient"]


class SinkServer:
    """Sink-mode server: accept, read, say nothing, close after 30 s."""

    CLOSE_AFTER = 30.0

    def __init__(self, host, port: int):
        self.host = host
        self.port = port
        self.connections_accepted = 0
        self.bytes_received = 0
        host.listen(port, self._accept)

    def _accept(self, conn) -> None:
        self.connections_accepted += 1

        def on_data(data: bytes) -> None:
            self.bytes_received += len(data)
            self._received(conn, data)

        conn.on_data = on_data
        conn.on_remote_fin = conn.close
        self.host.sim.schedule(self.CLOSE_AFTER, self._reap, conn)

    def _received(self, conn, data: bytes) -> None:
        """Answer ``data`` that arrived on ``conn``: a sink says nothing."""

    def _reap(self, conn) -> None:
        if conn.state != "CLOSED":
            conn.close()


class RespondingServer(SinkServer):
    """Responding-mode server: answer probers with random data."""

    def __init__(self, host, port: int, own_client_ips: Iterable[str],
                 rng: Optional[random.Random] = None):
        self.own_clients: Set[str] = set(own_client_ips)
        self.rng = rng or random.Random(0x51AC)
        self.prober_responses = 0
        super().__init__(host, port)

    def _received(self, conn, data: bytes) -> None:
        if conn.remote_ip not in self.own_clients:
            self.prober_responses += 1
            conn.send(random_payload(self.rng.randint(1, 1000), self.rng))


class RandomDataClient:
    """§4.1 client: one data packet of specified length and entropy."""

    def __init__(
        self,
        host,
        server_ip: str,
        server_port: int,
        *,
        length_range: Tuple[int, int] = (1, 1000),
        entropy_range: Tuple[float, float] = (7.0, 8.0),
        rng: Optional[random.Random] = None,
        hold_open: float = 5.0,
    ):
        self.host = host
        self.server_ip = server_ip
        self.server_port = server_port
        self.length_range = length_range
        self.entropy_range = entropy_range
        self.rng = rng or random.Random(0xDA7A)
        self.hold_open = hold_open
        self.sent_payloads = []  # (time, payload) for ground truth
        # Optional observer invoked with each payload as it is sent.
        self.on_send: Callable[[bytes], None] = lambda payload: None

    def connect_once(self) -> bytes:
        """Open one connection, send one sampled data packet, later close."""
        length = self.rng.randint(*self.length_range)
        lo, hi = self.entropy_range
        entropy = lo if lo == hi else self.rng.uniform(lo, hi)
        if entropy >= 7.99:
            payload = random_payload(length, self.rng)
        else:
            payload = payload_with_entropy(length, entropy, self.rng)
        conn = self.host.connect(self.server_ip, self.server_port)

        def on_connected() -> None:
            conn.send(payload)
            bus = self.host.sim.bus
            bus.incr("workload.fetch")
            self.sent_payloads.append((self.host.sim.now, payload))
            if bus.wants_records:
                bus.emit("payload", {
                    "time": self.host.sim.now,
                    "payload": payload,
                })
            self.on_send(payload)
            self.host.sim.schedule(self.hold_open, conn.close)

        conn.on_connected = on_connected
        conn.on_remote_fin = conn.close
        return payload

    def run_schedule(self, count: int, interval: float, start: float = 0.0) -> None:
        """Schedule ``count`` connections spaced ``interval`` seconds apart."""
        for i in range(count):
            self.host.sim.schedule(start + i * interval, self.connect_once)
