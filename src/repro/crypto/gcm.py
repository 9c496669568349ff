"""AES-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte nonce.

Used for the Shadowsocks AEAD methods ``aes-128-gcm``, ``aes-192-gcm`` and
``aes-256-gcm``.  Two hot loops are batched: the CTR keystream comes from
:meth:`AES.keystream` one whole message at a time (with GCM's 32-bit
counter wrap), and GHASH uses sixteen per-byte-position product tables of
H — one 256-entry table per byte of the block, so a block multiply is 16
lookups + XORs instead of 128 shift-and-add steps.  The tables are built
lazily once a session has hashed enough data to amortize the build cost;
short-lived sessions (active-probe sized) stay on the per-bit
:func:`_gf_mult`, which is retained and byte-identical.
"""

from __future__ import annotations

import struct

from . import recordcache
from ._xor import xor_bytes
from .aes import AES

__all__ = ["AESGCM", "AuthenticationError"]

_R = 0xE1 << 120

# Cumulative GHASH bytes after which a session builds its H tables.  The
# build costs roughly 20 per-bit block multiplies, so this is the
# break-even neighbourhood.
_TABLE_THRESHOLD = 512


class AuthenticationError(Exception):
    """Raised when an AEAD tag fails to verify."""


def _gf_mult(x: int, y: int) -> int:
    """Multiplication in GF(2^128) with the GCM polynomial (big-endian bits)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _build_x8r() -> list:
    """Reduction table for multiplying a field element by x^8.

    Over eight multiply-by-x steps only the low byte of the element ever
    reaches bit 0 (the reduction trigger), so v*x^8 == (v >> 8) ^ X8R[v & 0xFF].
    """
    table = []
    for lb in range(256):
        v = lb
        for _ in range(8):
            v = (v >> 1) ^ _R if v & 1 else v >> 1
        table.append(v)
    return table


_X8R = _build_x8r()


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

    def _ghash_update(self, y: int, data: bytes) -> int:
        """Fold ``data`` (zero-padded to a block boundary) into GHASH state."""
        n = len(data)
        if not n:
            return y
        self._hashed += n
        if self._tables is None and self._hashed >= _TABLE_THRESHOLD:
            self._tables = _build_h_tables(self._h)
        tail = n % 16
        full = n - tail
        if self._tables is None:
            h = self._h
            for i in range(0, full, 16):
                y = _gf_mult(y ^ int.from_bytes(data[i : i + 16], "big"), h)
            if tail:
                block = data[full:].ljust(16, b"\x00")
                y = _gf_mult(y ^ int.from_bytes(block, "big"), h)
            return y
        (t0, t1, t2, t3, t4, t5, t6, t7,
         t8, t9, t10, t11, t12, t13, t14, t15) = self._tables
        for i in range(0, full, 16):
            b = (y ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "big")
            y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
                 ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
                 ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
                 ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
        if tail:
            block = data[full:].ljust(16, b"\x00")
            b = (y ^ int.from_bytes(block, "big")).to_bytes(16, "big")
            y = (t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
                 ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
                 ^ t8[b[8]] ^ t9[b[9]] ^ t10[b[10]] ^ t11[b[11]]
                 ^ t12[b[12]] ^ t13[b[13]] ^ t14[b[14]] ^ t15[b[15]])
        return y

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
        # aad and ciphertext are zero-padded to block boundaries
        # independently, so GHASH can fold them in piecewise without
        # materializing the padded concatenation.
        y = self._ghash_update(0, aad)
        y = self._ghash_update(y, ciphertext)
        y = self._ghash_update(
            y, struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8))
        ek_y0 = self._aes.encrypt_block(nonce + struct.pack(">I", 1))
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
        if not _eq(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("GCM tag mismatch")
        return self._crypt(nonce, ciphertext)


def _eq(a: bytes, b: bytes) -> bool:
    """Constant-time-style byte comparison, as real implementations use."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
