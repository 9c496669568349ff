"""Shadowsocks client: opens tunnelled connections through a server.

The client controls one detail the paper shows matters a great deal: how
the first TCP payload is composed.  ``merge_header=True`` (the common
client behaviour) sends ``[IV/salt][target spec][initial data]`` in one
write, so the first packet's length varies with the underlying request —
the length distribution the GFW's passive classifier keys on.  With
``merge_header=False`` (OutlineVPN before July 2020) the target spec
travels alone in the first packet, giving it a near-constant size.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..crypto import AuthenticationError, evp_bytes_to_key, get_spec, stream_key
from ..crypto.registry import CipherKind
from .aead_session import AeadDecryptor, AeadEncryptor
from .spec import encode_target
from .stream_session import StreamDecryptor, StreamEncryptor

__all__ = ["ShadowsocksClient", "ClientSession"]


class ShadowsocksClient:
    """Factory for tunnelled connections to one Shadowsocks server."""

    def __init__(
        self,
        host,
        server_ip: str,
        server_port: int,
        password: str,
        method: str,
        *,
        rng: Optional[random.Random] = None,
        merge_header: bool = True,
    ):
        self.host = host
        self.server_ip = server_ip
        self.server_port = server_port
        self.method = method
        self.cipher_spec = get_spec(method)
        self.master = evp_bytes_to_key(password.encode("utf-8"), self.cipher_spec.key_len)
        # Shared by every stream session, like the server's.
        self.stream_key = (stream_key(method, self.master)
                           if self.cipher_spec.kind == CipherKind.STREAM else None)
        self.rng = rng or random.Random(0xC11E)
        self.merge_header = merge_header

    def open(
        self,
        target_host: str,
        target_port: int,
        payload: bytes = b"",
        on_reply: Optional[Callable[[bytes], None]] = None,
    ) -> "ClientSession":
        """Connect through the tunnel and send ``payload`` to the target."""
        return ClientSession(self, target_host, target_port, payload, on_reply)


class ClientSession:
    """One tunnelled connection (client side)."""

    def __init__(self, client: ShadowsocksClient, target_host: str, target_port: int,
                 payload: bytes, on_reply: Optional[Callable[[bytes], None]]):
        self.client = client
        self.target = (target_host, target_port)
        self.on_reply = on_reply or (lambda data: None)
        self.reply = bytearray()
        self.closed = False
        self.reset = False

        kind = client.cipher_spec.kind
        if kind == CipherKind.STREAM:
            self._encryptor = StreamEncryptor(client.method, client.stream_key, rng=client.rng)
            self._decryptor = StreamDecryptor(client.method, client.stream_key)
        else:
            self._encryptor = AeadEncryptor(client.method, client.master, rng=client.rng)
            self._decryptor = AeadDecryptor(client.method, client.master)

        self.conn = client.host.connect(client.server_ip, client.server_port)
        self.conn.on_connected = lambda: self._send_handshake(payload)
        self.conn.on_data = self._on_data
        self.conn.on_remote_fin = self._on_fin
        self.conn.on_reset = self._on_reset

    def _send_handshake(self, payload: bytes) -> None:
        spec = encode_target(*self.target)
        if self.client.merge_header and payload:
            self.conn.send(self._encryptor.encrypt(spec + payload))
        else:
            self.conn.send(self._encryptor.encrypt(spec))
            if payload:
                self.conn.send(self._encryptor.encrypt(payload))

    def send(self, data: bytes) -> None:
        """Send more application data through the tunnel."""
        if data:
            self.conn.send(self._encryptor.encrypt(data))

    def close(self) -> None:
        self.conn.close()

    def _on_data(self, data: bytes) -> None:
        try:
            plaintext = self._decryptor.decrypt(data)
        except AuthenticationError:
            # A tampered reply; real clients drop the connection.
            self.conn.abort()
            return
        if plaintext:
            self.reply.extend(plaintext)
            self.on_reply(plaintext)

    def _on_fin(self) -> None:
        self.closed = True
        self.conn.close()

    def _on_reset(self) -> None:
        self.closed = True
        self.reset = True
