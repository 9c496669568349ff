"""Stream ciphers for the (deprecated) Shadowsocks stream construction.

Implements enough cipher variety to cover every IV length the protocol
allows (8, 12, or 16 bytes), which is what the GFW's length-targeted
probes key on:

* ``chacha20``      — original DJB variant, 8-byte nonce
* ``chacha20-ietf`` — RFC 8439 variant, 12-byte nonce
* ``aes-{128,192,256}-{ctr,cfb}`` — 16-byte IV
* ``rc4-md5``       — 16-byte IV, RC4 keyed by MD5(key || IV)

A session's cipher comes from ``new_stream_cipher``.  Its key is the raw
master key, or the :func:`stream_key` built from it once per key owner:
for the AES methods that is the expanded key schedule, which every
session of the owner then shares.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Union

from ._xor import xor_bytes
from .aes import AES
from .chacha20 import _M, ChaCha20, _KeystreamCipher, _key_words
from .modes import CFBMode, CTRMode

__all__ = ["RC4", "ChaCha20DJB", "new_stream_cipher", "stream_key"]


class RC4:
    """RC4 keystream XOR (for the ``rc4-md5`` method)."""

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("RC4 key must be non-empty")
        s = list(range(256))
        j = 0
        for i in range(256):
            j = (j + s[i] + key[i % len(key)]) % 256
            s[i], s[j] = s[j], s[i]
        self._s = s
        self._i = 0
        self._j = 0

    def process(self, data: bytes) -> bytes:
        # RC4's state swap makes every output byte depend on the last, so
        # this stays a byte loop; precomputing the keystream separately
        # and XORing whole buffers still beats xor-as-you-go.
        s, i, j = self._s, self._i, self._j
        n = len(data)
        ks = bytearray(n)
        for pos in range(n):
            i = (i + 1) & 0xFF
            sj = s[i]
            j = (j + sj) & 0xFF
            si = s[j]
            s[i] = si
            s[j] = sj
            ks[pos] = s[(si + sj) & 0xFF]
        self._i, self._j = i, j
        return xor_bytes(data, ks)

    encrypt = process
    decrypt = process


class ChaCha20DJB(_KeystreamCipher):
    """Incremental original-variant ChaCha20 (8-byte nonce).

    The block counter is 64 bits wide and fills words 12-13; the nonce
    fills words 14-15.
    """

    def __init__(self, key: bytes, nonce: bytes):
        super().__init__(_key_words(key), 0)
        if len(nonce) != 8:
            raise ValueError(f"DJB ChaCha20 nonce must be 8 bytes, got {len(nonce)}")
        self._nonce = struct.unpack("<2L", nonce)

    def _tails(self, counter: int, nblocks: int) -> list:
        n0, n1 = self._nonce
        return [(c & _M, (c >> 32) & _M, n0, n1)
                for c in range(counter, counter + nblocks)]


def stream_key(name: str, key: bytes) -> Union[bytes, AES]:
    """What every stream session of one key owner passes to
    ``new_stream_cipher``: the expanded key schedule for the AES methods,
    ``key`` itself for the others."""
    return AES(key) if name.startswith("aes-") else key


def new_stream_cipher(name: str, key: Union[bytes, AES], iv: bytes, encrypt: bool):
    """Build an incremental stream cipher object for one direction.

    ``key`` is the raw key or its :func:`stream_key`.  ``encrypt`` only
    matters for CFB, whose feedback register differs by direction;
    CTR/ChaCha/RC4 are symmetric.
    """
    if name == "chacha20":
        return ChaCha20DJB(key, iv)
    if name == "chacha20-ietf":
        return ChaCha20(key, iv)
    if name == "rc4-md5":
        return RC4(hashlib.md5(key + iv).digest())
    if name.startswith("aes-") and name.endswith("-ctr"):
        return CTRMode(key, iv)
    if name.startswith("aes-") and name.endswith("-cfb"):
        return CFBMode(key, iv, encrypt=encrypt)
    raise ValueError(f"unknown stream cipher method: {name!r}")
