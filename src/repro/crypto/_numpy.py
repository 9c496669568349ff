"""The numpy kernel for bulk AES.

Counter-mode keystream and batch (ECB) encryption work on independent
blocks, so these kernels run the T-table round loop once over a whole
batch, one uint32 array per state column.  The arithmetic is the 32-bit
word arithmetic of ``AES._encrypt_words``, so the bytes are identical
(the property suite asserts this).  ``aes.py`` is the only caller: it
sends batches of ``aes.NUMPY_MIN_BLOCKS`` and more here when numpy is
importable, and runs its pure-Python loop otherwise.
"""

from __future__ import annotations

__all__ = ["HAVE_NUMPY", "aes_batch_encrypt", "aes_keystream"]

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is in the dev toolchain
    np = None

HAVE_NUMPY = np is not None

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
