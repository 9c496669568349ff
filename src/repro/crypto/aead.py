"""Unified AEAD interface: AES-GCM and ChaCha20-Poly1305 (RFC 8439 §2.8).

Both expose ``seal(nonce, plaintext, aad)`` / ``open(nonce, sealed, aad)``
with a trailing 16-byte tag, which is exactly the shape the Shadowsocks
AEAD construction consumes, and ``seal_records(records, aad)``, which
seals a list of ``(nonce, plaintext)`` records: the records of one
Shadowsocks chunk.
"""

from __future__ import annotations

import hmac
import struct

from .. import memos
from . import recordcache
from ._xor import xor_bytes
from .chacha20 import _ietf_tails, _key_words, _keystream, _nonce_words
from .gcm import AESGCM, AuthenticationError
from .poly1305 import _Poly1305

__all__ = ["AESGCM", "ChaCha20Poly1305", "AuthenticationError", "new_aead"]


def _record_tails(nonce_words: tuple, nbytes: int) -> list:
    """Words 12-15 of one record's blocks: block 0 gives the Poly1305 key,
    blocks 1.. the ``nbytes`` of keystream."""
    return _ietf_tails(nonce_words, 0, (nbytes + 63) // 64 + 1)


class ChaCha20Poly1305:
    """ChaCha20-Poly1305 AEAD per RFC 8439.

    Every seal goes through ``_seal_records``, which lays the blocks of
    all its records out as the lanes of one ``_keystream`` call, each
    lane with its own record's nonce.
    """

    TAG_SIZE = 16
    NONCE_SIZE = 12
    KEY_SIZE = 32

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ValueError(f"key must be {self.KEY_SIZE} bytes, got {len(key)}")
        self._key = key

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

    def seal_records(self, records: list[tuple[bytes, bytes]],
                     aad: bytes = b"") -> list[bytes]:
        """Seal each ``(nonce, plaintext)`` of ``records``, in order, with
        one keystream call."""
        return recordcache.cached_seal_records(self._seal_records, "c20p",
                                               self._key, records, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return recordcache.cached_open(self._open, "c20p", self._key, nonce,
                                       sealed, aad)

    def _seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return self._seal_records([(nonce, plaintext)], aad)[0]

    def _seal_records(self, records: list[tuple[bytes, bytes]],
                      aad: bytes) -> list[bytes]:
        starts = []
        tails = []
        for nonce, plaintext in records:
            starts.append(64 * len(tails))
            tails += _record_tails(_nonce_words(nonce), len(plaintext))
        ks = _keystream(_key_words(self._key), tails)
        sealed = []
        for start, (_, plaintext) in zip(starts, records):
            ciphertext = xor_bytes(plaintext, ks[start + 64 : start + 64 + len(plaintext)])
            sealed.append(ciphertext + self._tag(ks[start : start + 32], aad, ciphertext))
        return sealed

    def _open(self, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        nonce_words = _nonce_words(nonce)
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        n = len(ciphertext)
        ks = _keystream(_key_words(self._key), _record_tails(nonce_words, n))
        if not hmac.compare_digest(tag, self._tag(ks[:32], aad, ciphertext)):
            raise AuthenticationError("Poly1305 tag mismatch")
        return xor_bytes(ciphertext, ks[64 : 64 + n])


_AEADS = {
    "aes-128-gcm": AESGCM,
    "aes-192-gcm": AESGCM,
    "aes-256-gcm": AESGCM,
    "chacha20-ietf-poly1305": ChaCha20Poly1305,
}

# (name, key) -> instance.  Seal and open are pure functions of (key,
# nonce, message, aad), so sessions deriving the same subkey can share
# one object: every probe-battery grid row reseeds its probes from the
# run's seed, so a run builds each AEAD subkey three times.  A
# ChaCha20Poly1305 holds only its key, an AESGCM its key, its expanded
# AES and the hash subkey H, and nothing in either changes after
# construction, so a shared instance carries nothing from one session
# to the next.  Registered with repro.memos: the memo lives for one
# unit of work and is emptied before the next.
_INSTANCE_CACHE: dict = {}
_INSTANCE_CACHE_MAX = 1 << 12
memos.register(f"{__name__}._INSTANCE_CACHE", _INSTANCE_CACHE.clear,
               _INSTANCE_CACHE.__len__)


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
