"""Unified AEAD interface: AES-GCM and ChaCha20-Poly1305 (RFC 8439 §2.8).

Both expose ``seal(nonce, plaintext, aad)`` / ``open(nonce, sealed, aad)``
with a trailing 16-byte tag, which is exactly the shape the Shadowsocks
AEAD construction consumes.
"""

from __future__ import annotations

import struct

from . import _numpy as _nx
from . import recordcache
from .chacha20 import _ietf_state, _keystream
from .gcm import AESGCM, AuthenticationError, _eq
from .poly1305 import _Poly1305

__all__ = ["AESGCM", "ChaCha20Poly1305", "AuthenticationError", "new_aead"]


class ChaCha20Poly1305:
    """ChaCha20-Poly1305 AEAD per RFC 8439."""

    TAG_SIZE = 16
    NONCE_SIZE = 12
    KEY_SIZE = 32

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ValueError(f"key must be {self.KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def _record_keystream(self, nonce: bytes, nbytes: int):
        """The Poly1305 key (block 0) and ``nbytes`` of keystream (blocks 1..n).

        One ``_keystream`` call computes both, for about the cost of a block.
        """
        nblocks = (nbytes + 63) // 64
        ks = _keystream(_ietf_state(self._key, nonce), 0, nblocks + 1)
        return ks[:32], ks[64 : 64 + nbytes]

    @staticmethod
    def _tag(poly_key: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        # Stream the MAC input in pieces (aad, pad, ciphertext, pad,
        # lengths) instead of materializing the padded concatenation.
        mac = _Poly1305(poly_key)
        mac.update(aad)
        mac.update(bytes(-len(aad) % 16))
        mac.update(ciphertext)
        mac.update(bytes(-len(ciphertext) % 16))
        mac.update(struct.pack("<QQ", len(aad), len(ciphertext)))
        return mac.tag()

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return recordcache.cached_seal(self._seal, "c20p", self._key, nonce,
                                       plaintext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return recordcache.cached_open(self._open, "c20p", self._key, nonce,
                                       sealed, aad)

    def _seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        poly_key, ks = self._record_keystream(nonce, len(plaintext))
        ciphertext = _nx.xor_bytes(plaintext, ks)
        return ciphertext + self._tag(poly_key, aad, ciphertext)

    def _open(self, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        poly_key, ks = self._record_keystream(nonce, len(ciphertext))
        if not _eq(tag, self._tag(poly_key, aad, ciphertext)):
            raise AuthenticationError("Poly1305 tag mismatch")
        return _nx.xor_bytes(ciphertext, ks)


_AEADS = {
    "aes-128-gcm": AESGCM,
    "aes-192-gcm": AESGCM,
    "aes-256-gcm": AESGCM,
    "chacha20-ietf-poly1305": ChaCha20Poly1305,
}

# (name, key) -> instance.  Both AEAD classes are stateless per call —
# seal/open are pure functions of (nonce, message, aad); the only
# instance attributes beyond the key are lazily built lookup tables — so
# sessions deriving the same subkey (HKDF is memoized, and seeded
# repeats re-derive the same salts) can share one object and its tables.
_INSTANCE_CACHE: dict = {}
_INSTANCE_CACHE_MAX = 1 << 12


def new_aead(name: str, key: bytes):
    """Construct (or reuse) an AEAD object by OpenSSL-style method name."""
    cache_key = (name, key)
    box = _INSTANCE_CACHE.get(cache_key)
    if box is None:
        impl = _AEADS.get(name)
        if impl is None:
            raise ValueError(f"unknown AEAD method: {name!r}")
        box = impl(key)
        if len(_INSTANCE_CACHE) >= _INSTANCE_CACHE_MAX:
            _INSTANCE_CACHE.clear()
        _INSTANCE_CACHE[cache_key] = box
    return box
