"""Shadowsocks AEAD construction (the current protocol).

Wire format, each direction::

    [variable-length salt]
    [2-byte encrypted length][16-byte length tag]
    [encrypted payload][16-byte payload tag]
    ...

A per-direction session subkey is HKDF-SHA1(master key, salt, "ss-subkey");
the nonce is a little-endian counter incremented after every seal/open.
The length prefix is capped at 0x3FFF as in the spec.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..crypto import AuthenticationError, derive_subkey, evp_bytes_to_key, get_spec, new_aead
from ..crypto.registry import CipherKind
from ..randutil import byte_draws

__all__ = ["AeadEncryptor", "AeadDecryptor", "MAX_CHUNK", "aead_master_key"]

MAX_CHUNK = 0x3FFF
TAG = 16
NONCE = 12


def aead_master_key(password: str, method: str) -> bytes:
    spec = get_spec(method)
    return evp_bytes_to_key(password.encode("utf-8"), spec.key_len)


class _NonceCounter:
    def __init__(self):
        self._value = 0

    def next(self) -> bytes:
        nonce = self._value.to_bytes(NONCE, "little")
        self._value += 1
        return nonce


class AeadEncryptor:
    """Sending side of one direction of an AEAD session."""

    def __init__(self, method: str, master: bytes, rng: Optional[random.Random] = None,
                 salt: Optional[bytes] = None):
        spec = get_spec(method)
        if spec.kind != CipherKind.AEAD:
            raise ValueError(f"{method} is not an AEAD method")
        self.spec = spec
        if salt is not None:
            if len(salt) != spec.salt_len:
                raise ValueError(f"salt must be {spec.salt_len} bytes for {method}")
            self.salt = salt
        else:
            rng = rng or random.Random()
            self.salt = byte_draws(rng, spec.salt_len)
        self._aead = new_aead(method, derive_subkey(master, self.salt))
        self._nonce = _NonceCounter()
        self._salt_sent = False

    def encrypt(self, plaintext: bytes) -> bytes:
        """Seal plaintext into one or more length-prefixed chunks.

        Every record of the call (each chunk's length, then its payload,
        under consecutive nonces) goes to one ``seal_records`` call.
        """
        records = []
        for i in range(0, len(plaintext), MAX_CHUNK):
            chunk = plaintext[i : i + MAX_CHUNK]
            records.append((self._nonce.next(), len(chunk).to_bytes(2, "big")))
            records.append((self._nonce.next(), chunk))
        sealed = b"".join(self._aead.seal_records(records))
        if self._salt_sent:
            return sealed
        self._salt_sent = True
        return self.salt + sealed


class AeadDecryptor:
    """Receiving side of one direction of an AEAD session.

    Incremental with explicit observability, because server *reactions to
    partial garbage* are what the GFW fingerprints: callers can see how
    many bytes are buffered, whether the salt is complete, and get an
    :class:`AuthenticationError` the moment a tag fails.
    """

    def __init__(self, method: str, master: bytes):
        spec = get_spec(method)
        if spec.kind != CipherKind.AEAD:
            raise ValueError(f"{method} is not an AEAD method")
        self.spec = spec
        self._method = method
        self._master = master
        self._buffer = bytearray()
        self._aead = None
        self._nonce = _NonceCounter()
        self._pending_len: Optional[int] = None
        self.salt: Optional[bytes] = None

    @property
    def salt_complete(self) -> bool:
        return self.salt is not None

    @property
    def buffered(self) -> int:
        """Bytes received but not yet decrypted (excluding a consumed salt)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)
        if self._aead is None and len(self._buffer) >= self.spec.salt_len:
            self.salt = bytes(self._buffer[: self.spec.salt_len])
            del self._buffer[: self.spec.salt_len]
            self._aead = new_aead(self._method, derive_subkey(self._master, self.salt))

    def decrypt_available(self) -> List[bytes]:
        """Open every complete chunk buffered so far.

        Raises :class:`AuthenticationError` on the first bad tag (after
        which the session is unusable, as in real implementations).
        """
        out: List[bytes] = []
        if self._aead is None:
            return out
        while True:
            if self._pending_len is None:
                if len(self._buffer) < 2 + TAG:
                    break
                sealed = bytes(self._buffer[: 2 + TAG])
                length = self._aead.open(self._nonce.next(), sealed)
                del self._buffer[: 2 + TAG]
                self._pending_len = int.from_bytes(length, "big") & MAX_CHUNK
            need = self._pending_len + TAG
            if len(self._buffer) < need:
                break
            sealed = bytes(self._buffer[:need])
            plaintext = self._aead.open(self._nonce.next(), sealed)
            del self._buffer[:need]
            self._pending_len = None
            out.append(plaintext)
        return out

    def decrypt(self, data: bytes) -> bytes:
        """Convenience: feed + join all chunks decryptable so far."""
        self.feed(data)
        return b"".join(self.decrypt_available())
