"""Optional numpy acceleration for the batched crypto hot loops.

The crypto package implements every primitive from the spec in pure
Python; this module vectorizes the *batched* inner loops (counter-mode
keystream generation, batch block encryption, ChaCha20 block batches,
whole-buffer XOR) across blocks when numpy is importable.  The math is
identical 32-bit word arithmetic, so results are byte-identical to the
scalar paths — the property suite asserts this — and every caller falls
back to the pure-Python loop when numpy is missing or the batch is too
small to amortize per-call overhead.

Set ``REPRO_CRYPTO_NUMPY=0`` to force the pure-Python paths (useful for
benchmarking the scalar code or debugging a suspected vectorization
difference).
"""

from __future__ import annotations

import os

__all__ = [
    "HAVE_NUMPY",
    "aes_batch_encrypt",
    "aes_keystream",
    "chacha_blocks",
    "xor_bytes",
]

if os.environ.get("REPRO_CRYPTO_NUMPY", "1") == "0":  # pragma: no cover
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is in the dev toolchain
        np = None

HAVE_NUMPY = np is not None

# Batch sizes below these thresholds are faster in the scalar loops
# (numpy pays ~1-2us of dispatch overhead per array op).
AES_MIN_BLOCKS = 16
XOR_MIN_BYTES = 2048

# ChaCha20's pure-Python path runs every block of a batch through one
# lane-packed round loop (``chacha20._keystream``), so numpy's ~1k array
# ops per batch only pay off from about 512 blocks.  Packed time over
# numpy time on a 2-core x86 host: 0.6 at 256 blocks, 0.9 at 384, 1.0
# at 512, 1.5 at 768.
CHACHA_MIN_BLOCKS = 512

_M32 = 0xFFFFFFFF

# Lazily-built numpy copies of the AES tables (they live in aes.py as
# plain lists for the scalar path).
_aes_tables = None


def _get_aes_tables():
    global _aes_tables
    if _aes_tables is None:
        from .aes import _SBOX, _T0, _T1, _T2, _T3

        _aes_tables = (
            np.array(_T0, dtype=np.uint32),
            np.array(_T1, dtype=np.uint32),
            np.array(_T2, dtype=np.uint32),
            np.array(_T3, dtype=np.uint32),
            np.array(_SBOX, dtype=np.uint32),
        )
    return _aes_tables


def _aes_rounds(w0, w1, w2, w3, rounds, round_keys):
    """Run the AES round loop over four 1-D uint32 column arrays.

    Keeping each column in its own contiguous array wires ShiftRows
    directly into the operand pattern (mirroring the scalar
    ``AES._encrypt_words``) instead of paying a fancy-indexed
    ``[:, roll]`` gather — a fresh (n, 4) copy per table per round —
    as the earlier state-matrix formulation did.
    """
    t0, t1, t2, t3, sbox = _get_aes_tables()
    ff = np.uint32(0xFF)
    rk = [tuple(np.uint32(w) for w in k) for k in round_keys]
    k0, k1, k2, k3 = rk[0]
    w0 = w0 ^ k0
    w1 = w1 ^ k1
    w2 = w2 ^ k2
    w3 = w3 ^ k3
    for r in range(1, rounds):
        k0, k1, k2, k3 = rk[r]
        e0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & ff] ^ t2[(w2 >> 8) & ff] ^ t3[w3 & ff] ^ k0
        e1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & ff] ^ t2[(w3 >> 8) & ff] ^ t3[w0 & ff] ^ k1
        e2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & ff] ^ t2[(w0 >> 8) & ff] ^ t3[w1 & ff] ^ k2
        e3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & ff] ^ t2[(w1 >> 8) & ff] ^ t3[w2 & ff] ^ k3
        w0, w1, w2, w3 = e0, e1, e2, e3
    # Final round: SubBytes + ShiftRows only.
    k0, k1, k2, k3 = rk[rounds]
    e0 = ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & ff] << 16)
          | (sbox[(w2 >> 8) & ff] << 8) | sbox[w3 & ff]) ^ k0
    e1 = ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & ff] << 16)
          | (sbox[(w3 >> 8) & ff] << 8) | sbox[w0 & ff]) ^ k1
    e2 = ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & ff] << 16)
          | (sbox[(w0 >> 8) & ff] << 8) | sbox[w1 & ff]) ^ k2
    e3 = ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & ff] << 16)
          | (sbox[(w1 >> 8) & ff] << 8) | sbox[w2 & ff]) ^ k3
    return e0, e1, e2, e3


def _interleave_columns(e0, e1, e2, e3, nblocks: int) -> bytes:
    """Pack four column arrays back into big-endian block bytes."""
    out = np.empty((nblocks, 4), dtype=np.uint32)
    out[:, 0] = e0
    out[:, 1] = e1
    out[:, 2] = e2
    out[:, 3] = e3
    return out.astype(">u4").tobytes()


def aes_keystream(round_keys, rounds: int, counter: int, nblocks: int,
                  step_mask: int) -> bytes:
    """Counter-mode keystream for ``nblocks`` consecutive counter blocks.

    ``counter`` is the first 128-bit big-endian block value; successive
    blocks increment the ``step_mask`` portion (low 32 bits for GCM, the
    whole block for CTR) with the bits above the mask held fixed.
    """
    fixed = counter & ~step_mask
    start = counter & step_mask
    idx = np.arange(nblocks, dtype=np.uint64)
    m32 = np.uint64(_M32)
    cols = {}
    carry = idx
    for col in (3, 2, 1, 0):
        shift = 32 * (3 - col)
        s = np.uint64((start >> shift) & _M32) + carry
        word = s & m32
        carry = s >> np.uint64(32)
        mask_word = (step_mask >> shift) & _M32
        fixed_word = (fixed >> shift) & _M32
        cols[col] = ((word & np.uint64(mask_word))
                     | np.uint64(fixed_word)).astype(np.uint32)
    e0, e1, e2, e3 = _aes_rounds(cols[0], cols[1], cols[2], cols[3],
                                 rounds, round_keys)
    return _interleave_columns(e0, e1, e2, e3, nblocks)


def aes_batch_encrypt(round_keys, rounds: int, blocks) -> bytes:
    """ECB-encrypt a buffer of concatenated 16-byte blocks in one batch."""
    words = np.frombuffer(bytes(blocks), dtype=">u4").astype(np.uint32)
    words = words.reshape(-1, 4)
    e0, e1, e2, e3 = _aes_rounds(
        np.ascontiguousarray(words[:, 0]), np.ascontiguousarray(words[:, 1]),
        np.ascontiguousarray(words[:, 2]), np.ascontiguousarray(words[:, 3]),
        rounds, round_keys)
    return _interleave_columns(e0, e1, e2, e3, len(words))


def chacha_blocks(init, counter: int, nblocks: int, djb: bool) -> bytes:
    """Batch of ChaCha20 keystream blocks for consecutive counters.

    ``init`` is the 16-word initial state with the counter word(s) to be
    filled per block: word 12 (IETF, 32-bit) or words 12-13 (original
    DJB variant, 64-bit).
    """
    m32 = np.uint64(_M32)
    idx = np.arange(nblocks, dtype=np.uint64)
    state = []
    for i, word in enumerate(init):
        if i == 12:
            state.append(((np.uint64(counter) + idx) & m32).astype(np.uint32))
        elif i == 13 and djb:
            state.append((((np.uint64(counter) + idx) >> np.uint64(32)) & m32)
                         .astype(np.uint32))
        else:
            state.append(np.full(nblocks, word, dtype=np.uint32))
    # Copy: the quarter round mutates in place (^=) and the originals are
    # needed intact for the final feed-forward addition.
    x = [s.copy() for s in state]

    def qr(a, b, c, d):
        x[a] = x[a] + x[b]
        x[d] ^= x[a]
        x[d] = (x[d] << np.uint32(16)) | (x[d] >> np.uint32(16))
        x[c] = x[c] + x[d]
        x[b] ^= x[c]
        x[b] = (x[b] << np.uint32(12)) | (x[b] >> np.uint32(20))
        x[a] = x[a] + x[b]
        x[d] ^= x[a]
        x[d] = (x[d] << np.uint32(8)) | (x[d] >> np.uint32(24))
        x[c] = x[c] + x[d]
        x[b] ^= x[c]
        x[b] = (x[b] << np.uint32(7)) | (x[b] >> np.uint32(25))

    for _ in range(10):
        qr(0, 4, 8, 12)
        qr(1, 5, 9, 13)
        qr(2, 6, 10, 14)
        qr(3, 7, 11, 15)
        qr(0, 5, 10, 15)
        qr(1, 6, 11, 12)
        qr(2, 7, 8, 13)
        qr(3, 4, 9, 14)

    out = np.empty((nblocks, 16), dtype="<u4")
    for i in range(16):
        out[:, i] = x[i] + state[i]
    return out.tobytes()


def xor_bytes(a, b) -> bytes:
    """XOR two equal-length byte strings (numpy above a size threshold)."""
    n = len(a)
    if HAVE_NUMPY and n >= XOR_MIN_BYTES:
        va = np.frombuffer(bytes(a), dtype=np.uint8)
        vb = np.frombuffer(bytes(b), dtype=np.uint8)
        return (va ^ vb).tobytes()
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
