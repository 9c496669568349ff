"""Pure-Python AES block cipher (forward direction only).

Every cipher mode used by Shadowsocks (CTR, CFB, GCM) needs only the
*encryption* direction of the block cipher, so the inverse cipher is not
implemented.  One block at a time, SubBytes + ShiftRows + MixColumns are
fused into four precomputed 32-bit T-tables and the round loop works on
four column words, several times faster than the byte-oriented FIPS 197
walk.  ``encrypt_blocks`` is the one batch function (CTR and GCM
keystreams, CFB decryption).  A single block runs the T-table loop;
every batch of 2 blocks or more runs row-lane rounds: the whole batch is
one int and each round a few dozen whole-int operations.  One batch
loop is enough because the simulated traffic is short: the benchmark
workloads' batches (§5.1 probes) are 2-13 blocks, and no scenario,
figure benchmark or example makes one above 32.  Only the bulk entries
of ``repro bench --suite crypto`` run larger batches.  Both loops are
property-tested byte-identical to the textbook cipher in
``tests/crypto_reference.py``.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

__all__ = ["AES", "BLOCK_SIZE"]

BLOCK_SIZE = 16

_MASK128 = (1 << 128) - 1

# Rijndael S-box, generated once at import time from the multiplicative
# inverse in GF(2^8) followed by the affine transform.


def _build_sbox() -> List[int]:
    # Multiplicative inverses via log/antilog tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for i in range(256):
        inv = 0 if i == 0 else exp[255 - log[i]]
        # affine transform
        s = inv
        for _ in range(4):
            inv = ((inv << 1) | (inv >> 7)) & 0xFF
            s ^= inv
        sbox[i] = s ^ 0x63
    return sbox


_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _build_ttables() -> Tuple[List[int], List[int], List[int], List[int]]:
    """Fuse SubBytes+MixColumns into one 32-bit word table per input row.

    With column words packed big-endian (row 0 in the top byte), the
    MixColumns matrix [2 3 1 1 / 1 2 3 1 / 1 1 2 3 / 3 1 1 2] gives, for
    s = S[x] and d = xtime(s):

        T0[x] = d<<24 | s<<16 | s<<8 | (d^s)
        T1..T3 are byte rotations of T0.
    """
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        d = ((s << 1) ^ 0x1B) & 0xFF if s & 0x80 else s << 1
        w = (d << 24) | (s << 16) | (s << 8) | (d ^ s)
        t0.append(w)
        t1.append(((w >> 8) | (w << 24)) & 0xFFFFFFFF)
        t2.append(((w >> 16) | (w << 16)) & 0xFFFFFFFF)
        t3.append(((w >> 24) | (w << 8)) & 0xFFFFFFFF)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_ttables()

# The row-lane loop's SubBytes is one ``translate`` through S.
_SBOX_BYTES = bytes(_SBOX)


def _lane_pattern(keep) -> bytes:
    """One block of a row-lane mask: 0xFF at byte p = 4·column + row
    where ``keep(column, row)``."""
    return bytes(0xFF if keep(p // 4, p % 4) else 0 for p in range(16))


# Row-lane masks, one 16-byte block each; ``_encrypt_lanes`` repeats them
# over the batch.  ShiftRows moves row r down 4r bytes, and the bytes of
# its last r columns wrap to the top of the block: each row's mask pair
# selects where the two parts land.  ``_ROW0`` is row 0 (which stays),
# ``_NOT_ROW3`` rows 0-2 of every column (rows 1-3 move down one byte in
# MixColumns' column rotation, row 0 wraps to row 3).
_ROW0 = _lane_pattern(lambda c, r: r == 0)
_NOT_ROW3 = _lane_pattern(lambda c, r: r != 3)
_SHIFT_DOWN = [_lane_pattern(lambda c, r, k=k: r == k and c < 4 - k) for k in (1, 2, 3)]
_SHIFT_UP = [_lane_pattern(lambda c, r, k=k: r == k and c >= 4 - k) for k in (1, 2, 3)]


class AES:
    """AES-128/192/256 forward block cipher.

    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        self._round_key_bytes = None  # built by the first batch

    @staticmethod
    def _expand_key(key: bytes) -> List[Tuple[int, int, int, int]]:
        """FIPS 197 key schedule, packed as one big-endian word per column."""
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        sbox = _SBOX
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (sbox[temp >> 24] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (sbox[temp >> 24] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return [tuple(words[4 * r : 4 * r + 4]) for r in range(rounds + 1)]

    def _encrypt_words(self, w0: int, w1: int, w2: int, w3: int) -> Tuple[int, int, int, int]:
        """Encrypt one block given as four big-endian column words."""
        t0, t1, t2, t3, sbox = _T0, _T1, _T2, _T3, _SBOX
        rk = self._round_keys
        k0, k1, k2, k3 = rk[0]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for rnd in range(1, self.rounds):
            k0, k1, k2, k3 = rk[rnd]
            e0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF] ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k0
            e1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF] ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k1
            e2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF] ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k2
            e3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF] ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k3
            w0, w1, w2, w3 = e0, e1, e2, e3
        # Final round: SubBytes + ShiftRows only.
        k0, k1, k2, k3 = rk[self.rounds]
        return (
            ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16)
             | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ k0,
            ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16)
             | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ k1,
            ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16)
             | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ k2,
            ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16)
             | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ k3,
        )

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        n = int.from_bytes(block, "big")
        e0, e1, e2, e3 = self._encrypt_words(
            n >> 96, (n >> 64) & 0xFFFFFFFF, (n >> 32) & 0xFFFFFFFF, n & 0xFFFFFFFF
        )
        return ((e0 << 96) | (e1 << 64) | (e2 << 32) | e3).to_bytes(16, "big")

    def keystream(self, counter: int, nblocks: int, step_mask: int = _MASK128) -> bytearray:
        """Counter-mode keystream: ``nblocks`` blocks from ``counter`` upward.

        The counter is a 128-bit big-endian block value, incremented by 1
        per block modulo 2^128.  ``step_mask`` narrows the incrementing
        portion (GCM increments only the low 32 bits); the high bits stay
        fixed.  The counter blocks are one ``encrypt_blocks`` batch.
        """
        fixed = counter & ~step_mask
        return self.encrypt_blocks(b"".join(
            (fixed | ((counter + i) & step_mask)).to_bytes(16, "big")
            for i in range(nblocks)))

    def encrypt_blocks(self, blocks) -> bytearray:
        """ECB-encrypt a buffer of concatenated 16-byte blocks.

        The blocks are independent, so they are one batch: a single block
        runs the T-table loop, any larger batch the row-lane rounds.
        """
        if len(blocks) % BLOCK_SIZE:
            raise ValueError("buffer must be a multiple of 16 bytes")
        nb = len(blocks) // BLOCK_SIZE
        if nb == 1:
            return bytearray(self.encrypt_block(blocks))
        return self._encrypt_lanes(blocks, nb)

    def _keys(self) -> List[bytes]:
        """The round keys as 16-byte strings, in block byte order."""
        keys = self._round_key_bytes
        if keys is None:
            keys = self._round_key_bytes = [struct.pack(">4I", *rk)
                                            for rk in self._round_keys]
        return keys

    def _encrypt_lanes(self, blocks, nb: int) -> bytearray:
        """Row-lane rounds: the batch is one little-endian int, byte p of
        block i at byte 16i + p, and each round is a few dozen whole-int
        operations, nearly flat in the batch size.

        SubBytes is one ``translate`` of the whole batch.  ShiftRows keeps
        row 0 and moves each row r down 4r bytes, wrapping its last r
        columns to the top of the block.  With rot(s) the state whose row
        r is s's row r + 1 of the same column, and t the XOR of a column's
        four bytes, MixColumns is s ^ t ^ xtime(s ^ rot(s)).  AddRoundKey
        XORs the round key repeated once per block.
        """
        size = 16 * nb
        from_bytes, sbox = int.from_bytes, _SBOX_BYTES
        keys = [from_bytes(k * nb, "little") for k in self._keys()]
        row0, not_row3 = from_bytes(_ROW0 * nb, "little"), from_bytes(_NOT_ROW3 * nb, "little")
        d1, d2, d3 = (from_bytes(m * nb, "little") for m in _SHIFT_DOWN)
        u1, u2, u3 = (from_bytes(m * nb, "little") for m in _SHIFT_UP)
        low7 = from_bytes(b"\x7f" * size, "little")
        bit0 = from_bytes(b"\x01" * size, "little")
        x = from_bytes(blocks, "little") ^ keys[0]
        for rnd in range(1, self.rounds + 1):
            x = ((x & row0)
                 | ((x >> 32) & d1) | ((x << 96) & u1)
                 | ((x >> 64) & d2) | ((x << 64) & u2)
                 | ((x >> 96) & d3) | ((x << 32) & u3))
            x = from_bytes(x.to_bytes(size, "little").translate(sbox), "little")
            if rnd < self.rounds:  # the final round has no MixColumns
                a = x ^ ((x >> 8) & not_row3) ^ ((x & row0) << 24)
                t = x ^ (x >> 16)
                t = ((t ^ (t >> 8)) & row0) * 0x01010101
                x ^= t ^ ((a & low7) << 1) ^ ((a >> 7) & bit0) * 0x1B
            x ^= keys[rnd]
        return bytearray(x.to_bytes(size, "little"))
