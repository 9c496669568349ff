"""Pure-Python AES block cipher (forward direction only), T-table fast path.

Every cipher mode used by Shadowsocks (CTR, CFB, GCM) needs only the
*encryption* direction of the block cipher, so the inverse cipher is not
implemented.  SubBytes + ShiftRows + MixColumns are fused into four
precomputed 32-bit T-tables and the round loop works on four column
words, which is several times faster than the byte-oriented FIPS 197
walk (property-tested byte-identical to it).  ``keystream`` generates many counter-mode blocks
per call so CTR/GCM pay Python's call overhead once per buffer, not once
per 16 bytes.  Batches of ``NUMPY_MIN_BLOCKS`` and more run through the
numpy kernel in ``_numpy`` when numpy is importable.
"""

from __future__ import annotations

from typing import List, Tuple

from . import _numpy as _nx

__all__ = ["AES", "BLOCK_SIZE"]

BLOCK_SIZE = 16

# Numpy pays a fixed 0.6-1 ms of array dispatch per batch, so it only
# wins on large batches.  Numpy time over pure-Python time on a 2-core
# x86 host (keystream, AES-128 and AES-256, three runs): 2.1-2.9 at 16
# blocks, 1.1-1.3 at 32, 0.9-1.1 at 40, 0.5-0.7 at 64.
NUMPY_MIN_BLOCKS = 40

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
        fixed.  One call amortizes attribute lookups and the round-key
        fetch over the whole buffer — this is the CTR/GCM hot loop.
        """
        if nblocks >= NUMPY_MIN_BLOCKS and _nx.HAVE_NUMPY:
            return bytearray(_nx.aes_keystream(
                self._round_keys, self.rounds, counter, nblocks, step_mask))
        encrypt_words = self._encrypt_words
        out = bytearray(16 * nblocks)
        fixed = counter & ~step_mask
        ctr = counter & step_mask
        pos = 0
        for _ in range(nblocks):
            n = fixed | ctr
            e0, e1, e2, e3 = encrypt_words(
                n >> 96, (n >> 64) & 0xFFFFFFFF, (n >> 32) & 0xFFFFFFFF, n & 0xFFFFFFFF
            )
            out[pos : pos + 16] = (
                (e0 << 96) | (e1 << 64) | (e2 << 32) | e3
            ).to_bytes(16, "big")
            pos += 16
            ctr = (ctr + 1) & step_mask
        return out

    def encrypt_blocks(self, blocks) -> bytes:
        """ECB-encrypt a buffer of concatenated 16-byte blocks.

        The blocks are independent, so this path vectorizes across them
        (unlike a chained mode's sequential per-block loop).  Used by CFB
        decryption, where every keystream input is a known ciphertext
        block.
        """
        if len(blocks) % BLOCK_SIZE:
            raise ValueError("buffer must be a multiple of 16 bytes")
        if len(blocks) >= BLOCK_SIZE * NUMPY_MIN_BLOCKS and _nx.HAVE_NUMPY:
            return _nx.aes_batch_encrypt(self._round_keys, self.rounds, blocks)
        encrypt_words = self._encrypt_words
        out = bytearray(len(blocks))
        for pos in range(0, len(blocks), 16):
            n = int.from_bytes(blocks[pos : pos + 16], "big")
            e0, e1, e2, e3 = encrypt_words(
                n >> 96, (n >> 64) & 0xFFFFFFFF, (n >> 32) & 0xFFFFFFFF, n & 0xFFFFFFFF
            )
            out[pos : pos + 16] = (
                (e0 << 96) | (e1 << 64) | (e2 << 32) | e3
            ).to_bytes(16, "big")
        return bytes(out)
