"""VMess client: opens tunnelled connections to a VMess server."""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..crypto.modes import CFBMode
from .protocol import build_request

__all__ = ["VmessClient", "VmessSession"]


class VmessClient:
    """Factory for VMess connections to one server."""

    def __init__(self, host, server_ip: str, server_port: int, user_id: bytes,
                 *, rng: Optional[random.Random] = None):
        if len(user_id) != 16:
            raise ValueError("user_id must be a 16-byte UUID")
        self.host = host
        self.server_ip = server_ip
        self.server_port = server_port
        self.user_id = user_id
        self.rng = rng or random.Random(0x3E55C)

    def open(self, target_host: str, target_port: int, payload: bytes = b"",
             on_reply: Optional[Callable[[bytes], None]] = None) -> "VmessSession":
        return VmessSession(self, target_host, target_port, payload, on_reply)


class VmessSession:
    def __init__(self, client: VmessClient, target_host: str, target_port: int,
                 payload: bytes, on_reply: Optional[Callable[[bytes], None]]):
        self.client = client
        self.reply = bytearray()
        self.on_reply = on_reply or (lambda data: None)
        self.closed = False
        self.reset = False
        self.request_head: bytes = b""

        self.conn = client.host.connect(client.server_ip, client.server_port)

        def on_connected():
            timestamp = int(client.host.sim.now)
            head, request = build_request(
                client.user_id, timestamp, target_host, target_port,
                rng=client.rng)
            self.request_head = head
            self._response_cipher = CFBMode(request.response_key,
                                            request.response_iv, encrypt=False)
            self._body_cipher = CFBMode(request.response_key,
                                        request.response_iv, encrypt=True)
            self.conn.send(head + self._body_cipher.encrypt(payload))

        def on_data(data: bytes):
            plain = self._response_cipher.decrypt(data)
            self.reply.extend(plain)
            self.on_reply(plain)

        def on_fin():
            self.closed = True
            self.conn.close()

        def on_reset():
            self.closed = True
            self.reset = True

        self.conn.on_connected = on_connected
        self.conn.on_data = on_data
        self.conn.on_remote_fin = on_fin
        self.conn.on_reset = on_reset

    def send(self, data: bytes) -> None:
        self.conn.send(self._body_cipher.encrypt(data))

    def close(self) -> None:
        self.conn.close()
