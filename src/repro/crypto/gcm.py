"""AES-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte nonce.

Used for the Shadowsocks AEAD methods ``aes-128-gcm``, ``aes-192-gcm`` and
``aes-256-gcm``.  The CTR keystream comes from :meth:`AES.keystream` one
whole message at a time (with GCM's 32-bit counter wrap).  GHASH
multiplies by H through product tables.  A session's first
``_TABLE_THRESHOLD`` hashed bytes (every active probe, every short
record) use Shoup's 4-bit method: 16 multiples of H, built per tag in a
few microseconds, and 32 table steps per block.  From there the session
builds sixteen 256-entry tables, one per byte position of the block, so
a block costs 16 lookups and XORs.  Both are property-tested against the
per-bit multiply of ``tests/crypto_reference.py``.
"""

from __future__ import annotations

import hmac
import struct

from . import recordcache
from ._xor import xor_bytes
from .aes import AES

__all__ = ["AESGCM", "AuthenticationError"]

_R = 0xE1 << 120

# Cumulative GHASH bytes after which a session builds its 16x256 tables:
# the break-even with the 4-bit method.  On a 2-core x86 host the build
# took 470-710 us and a block 6.4-7.7 us by 4 bits against 1.3-2.1 us by
# the tables; the build paid for itself after a median of 125 blocks
# (quartiles 101-138, 9 runs).
_TABLE_THRESHOLD = 2048


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


_X4R = _reduction_table(4)
_X8R = _reduction_table(8)


def _build_h_nibbles(h: int) -> list:
    """Shoup's 4-bit table: ``m[n]`` is the product ``(n << 124) * H``.

    Bit 3 of a nibble is its x^0 term, so ``m[8]`` is H, ``m[4]`` H*x,
    ``m[2]`` H*x^2 and ``m[1]`` H*x^3; the rest are XORs of those.
    """
    m = [0] * 16
    for bit in (8, 4, 2, 1):
        m[bit] = h
        h = (h >> 1) ^ _R if h & 1 else h >> 1
    for n in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15):
        lsb = n & -n
        m[n] = m[lsb] ^ m[n ^ lsb]
    return m


def _build_h_tables(h: int) -> list:
    """16 per-byte-position product tables for GHASH by H.

    ``tables[k][b]`` is the field product ``(b << (8*(15-k))) * H``, so a
    block multiply is ``XOR(tables[k][block[k]] for k in 0..15)`` with the
    block in big-endian byte order.  Table 0 covers the most significant
    byte (lowest-degree polynomial terms); each following table is the
    previous one times x^8.
    """
    first = [0] * 256
    v = h
    bit = 0x80
    while bit:
        first[bit] = v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
        bit >>= 1
    for b in range(1, 256):
        lsb = b & -b
        if b != lsb:
            first[b] = first[lsb] ^ first[b ^ lsb]
    tables = [first]
    x8r = _X8R
    for _ in range(15):
        prev = tables[-1]
        tables.append([(v >> 8) ^ x8r[v & 0xFF] for v in prev])
    return tables


def _ghash_nibbles(m: list, data: bytes) -> int:
    """GHASH of ``data`` (whole blocks) with the 4-bit table ``m``.

    Horner's rule from the highest-degree nibble: each step multiplies the
    running product by x^4 and adds the next nibble's multiple of H.  In
    GCM's bit order the highest-degree nibble is the low nibble of the
    block's last byte, so the steps walk the block's bytes little-endian,
    low nibble first.
    """
    x4r = _X4R
    y = 0
    for i in range(0, len(data), 16):
        z = 0
        for b in (y ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "little"):
            z = (z >> 4) ^ x4r[z & 15] ^ m[b & 15]
            z = (z >> 4) ^ x4r[z & 15] ^ m[b >> 4]
        y = z
    return y


def _ghash_tables(tables: list, data: bytes) -> int:
    """GHASH of ``data`` (whole blocks) with the 16 per-byte-position
    tables."""
    (t0, t1, t2, t3, t4, t5, t6, t7,
     t8, t9, t10, t11, t12, t13, t14, t15) = tables
    y = 0
    for i in range(0, len(data), 16):
        b = (y ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "big")
        y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
             ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
             ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
             ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
    return y


class AESGCM:
    """AES-GCM with 12-byte nonces and 16-byte tags."""

    TAG_SIZE = 16
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        self._key = key
        self._aes = AES(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")
        self._tables = None
        self._hashed = 0

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
        # boundary, then their bit lengths.  The 4-bit table is built
        # per tag, not kept: the instance memo keeps thousands of
        # short-lived sessions' instances alive.
        data = b"".join((aad, bytes(-len(aad) % 16), ciphertext,
                         bytes(-len(ciphertext) % 16),
                         struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)))
        self._hashed += len(data)
        if self._tables is None and self._hashed >= _TABLE_THRESHOLD:
            self._tables = _build_h_tables(self._h)
        if self._tables is None:
            y = _ghash_nibbles(_build_h_nibbles(self._h), data)
        else:
            y = _ghash_tables(self._tables, data)
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

