"""AES-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte nonce.

Used for the Shadowsocks AEAD methods ``aes-128-gcm``, ``aes-192-gcm`` and
``aes-256-gcm``.  The CTR keystream comes from :meth:`AES.keystream` one
whole message at a time (with GCM's 32-bit counter wrap).  GHASH is one
function, ``_ghash``: Shoup's method a byte per step, with two 16-entry
tables of H's multiples built per tag in a few microseconds and never
stored, so 16 table steps per block.  An ``AESGCM`` holds its key, its
``AES`` and H, and sealing or opening changes none of them.  GHASH is
property-tested against the per-bit multiply of
``tests/crypto_reference.py``.
"""

from __future__ import annotations

import hmac
import struct

from . import recordcache
from ._xor import xor_bytes
from .aes import AES

__all__ = ["AESGCM", "AuthenticationError"]

_R = 0xE1 << 120


class AuthenticationError(Exception):
    """Raised when an AEAD tag fails to verify."""


def _reduction_table(bits: int) -> list:
    """Reduction table for multiplying a field element by x^bits.

    Over ``bits`` multiply-by-x steps only the low ``bits`` bits of the
    element ever reach bit 0 (the reduction trigger), so
    v*x^bits == (v >> bits) ^ table[v & (2^bits - 1)].
    """
    table = []
    for v in range(1 << bits):
        for _ in range(bits):
            v = (v >> 1) ^ _R if v & 1 else v >> 1
        table.append(v)
    return table


_X8R = _reduction_table(8)


def _ghash(h: int, data: bytes) -> int:
    """GHASH of ``data`` (whole blocks) under the hash subkey ``h``.

    Horner's rule from the highest-degree byte: each step multiplies the
    running product by x^8 (a shift and one ``_X8R`` lookup) and adds
    the byte's multiple of H.  In GCM's bit order the highest-degree
    byte is the block's last byte, so the steps walk the bytes
    little-endian, and a byte's high nibble is its lower-degree half.
    Its multiple of H comes from two 16-entry tables built here from
    eight halvings of H: ``m[n]`` is the product ``(n << 124) * H``
    (bit 3 of a nibble is its x^0 term, so ``m[8]`` is H and ``m[1]``
    H*x^3; the rest are XORs of those) and ``m4[n]`` is ``m[n] * x^4``,
    built the same way from H*x^4..H*x^7.
    """
    m, m4 = tables = ([0] * 16, [0] * 16)
    for table in tables:
        for bit in (8, 4, 2, 1):
            table[bit] = h
            h = (h >> 1) ^ _R if h & 1 else h >> 1
        for n in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15):
            lsb = n & -n
            table[n] = table[lsb] ^ table[n ^ lsb]
    x8r = _X8R
    y = 0
    for i in range(0, len(data), 16):
        z = 0
        for b in (y ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "little"):
            z = (z >> 8) ^ x8r[z & 0xFF] ^ m4[b & 15] ^ m[b >> 4]
        y = z
    return y


class AESGCM:
    """AES-GCM with 12-byte nonces and 16-byte tags."""

    TAG_SIZE = 16
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        self._key = key
        self._aes = AES(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        nblocks = (len(data) + 15) // 16
        base = (int.from_bytes(nonce, "big") << 32) | 2
        ks = self._aes.keystream(base, nblocks, step_mask=0xFFFFFFFF)
        if len(data) % 16:
            del ks[len(data) :]
        return xor_bytes(data, ks)

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        # GHASH input: aad and ciphertext, each zero-padded to a block
        # boundary, then their bit lengths.
        data = b"".join((aad, bytes(-len(aad) % 16), ciphertext,
                         bytes(-len(ciphertext) % 16),
                         struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)))
        y = _ghash(self._h, data)
        ek_y0 = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return (y ^ int.from_bytes(ek_y0, "big")).to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and append the 16-byte tag."""
        return recordcache.cached_seal(self._seal, "gcm", self._key, nonce,
                                       plaintext, aad)

    def seal_records(self, records: list[tuple[bytes, bytes]],
                     aad: bytes = b"") -> list[bytes]:
        """Seal each ``(nonce, plaintext)`` of ``records``, in order."""
        return [self.seal(nonce, plaintext, aad) for nonce, plaintext in records]

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the trailing tag and decrypt; raise AuthenticationError."""
        return recordcache.cached_open(self._open, "gcm", self._key, nonce,
                                       sealed, aad)

    def _seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"GCM nonce must be {self.NONCE_SIZE} bytes")
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def _open(self, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"GCM nonce must be {self.NONCE_SIZE} bytes")
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("GCM tag mismatch")
        return self._crypt(nonce, ciphertext)

