"""Shadowsocks "stream cipher" construction (deprecated, unauthenticated).

Wire format, each direction::

    [variable-length IV][encrypted payload...]

Client and server share the EVP_BytesToKey-derived master key but use
independent random IVs.  There is no integrity protection — the property
every replay/byte-change probe in the paper exploits.

Both directions take ``key`` as the master key or its
:func:`~repro.crypto.stream_key`, which a server or client builds once
and hands to all of its sessions.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from ..crypto import AES, evp_bytes_to_key, get_spec, new_stream_cipher
from ..crypto.registry import CipherKind
from ..randutil import byte_draws

__all__ = ["StreamEncryptor", "StreamDecryptor", "master_key"]


def master_key(password: str, method: str) -> bytes:
    spec = get_spec(method)
    return evp_bytes_to_key(password.encode("utf-8"), spec.key_len)


class StreamEncryptor:
    """One direction of a stream-construction session (sending side)."""

    def __init__(self, method: str, key: Union[bytes, AES],
                 rng: Optional[random.Random] = None,
                 iv: Optional[bytes] = None):
        spec = get_spec(method)
        if spec.kind != CipherKind.STREAM:
            raise ValueError(f"{method} is not a stream method")
        self.spec = spec
        if iv is not None:
            if len(iv) != spec.iv_len:
                raise ValueError(f"IV must be {spec.iv_len} bytes for {method}")
            self.iv = iv
        else:
            rng = rng or random.Random()
            self.iv = byte_draws(rng, spec.iv_len)
        self._cipher = new_stream_cipher(method, key, self.iv, encrypt=True)
        self._iv_sent = False

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt; the first call is prefixed with the IV."""
        out = self._cipher.encrypt(plaintext)
        if not self._iv_sent:
            self._iv_sent = True
            return self.iv + out
        return out


class StreamDecryptor:
    """One direction of a stream-construction session (receiving side).

    Incremental: feed raw wire bytes, get back all plaintext decryptable
    so far.  The IV is consumed from the head of the stream.
    """

    def __init__(self, method: str, key: Union[bytes, AES]):
        spec = get_spec(method)
        if spec.kind != CipherKind.STREAM:
            raise ValueError(f"{method} is not a stream method")
        self.spec = spec
        self._method = method
        self._key = key
        self._buffer = bytearray()
        self._cipher = None
        self.iv: Optional[bytes] = None

    @property
    def iv_complete(self) -> bool:
        return self.iv is not None

    def decrypt(self, data: bytes) -> bytes:
        """Feed ciphertext; returns newly available plaintext (may be b'')."""
        self._buffer.extend(data)
        if self._cipher is None:
            if len(self._buffer) < self.spec.iv_len:
                return b""
            self.iv = bytes(self._buffer[: self.spec.iv_len])
            del self._buffer[: self.spec.iv_len]
            self._cipher = new_stream_cipher(self._method, self._key, self.iv, encrypt=False)
        if not self._buffer:
            return b""
        chunk = bytes(self._buffer)
        self._buffer.clear()
        return self._cipher.decrypt(chunk)
