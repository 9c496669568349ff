"""ChaCha20 stream cipher (RFC 8439, "IETF" variant: 96-bit nonce).

Shadowsocks uses ``chacha20-ietf`` as a stream cipher (12-byte IV) and
ChaCha20 as the keystream half of ``chacha20-ietf-poly1305``; this
cipher carries the bulk of the simulated tunnel traffic.

Every keystream comes from one function, ``_keystream``, which runs the
20 rounds once per *batch* of blocks rather than once per block: each
of the 16 state words is one Python int holding every block of the
batch in its own 64-bit lane (the 32-bit word over 32 guard bits).  An
add's carry and a rotate's spill from the neighbouring lane land in the
guard bits, and masking with the lane mask clears them, so the unrolled
double round does the same 32-bit arithmetic for all lanes at once and
the bytes are those of the per-block definition.  Words 0-11 (constants
and key) are the same in every lane; words 12-15 (counter and nonce)
are packed per lane, so the blocks of one batch may belong to different
nonces.  A big-int operation costs little more for eight lanes than for
one, so one call seals both records of a Shadowsocks chunk (each a
Poly1305 key block and its keystream blocks) for a little more than the
cost of one block.  This is ChaCha20's only path, for every batch size.
The incremental ciphers consume the keystream through a cursor and XOR
whole buffers at a time.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from ._xor import xor_bytes

__all__ = ["chacha20_block", "ChaCha20"]

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_M = 0xFFFFFFFF


def _lanes(words) -> int:
    """Pack 32-bit ``words`` into one int, one 64-bit lane each."""
    return int.from_bytes(struct.pack(f"<{len(words)}Q", *words), "little")


def _keystream(init, tails) -> bytes:
    """One keystream block per entry of ``tails``, concatenated.

    ``init`` holds words 0-11 (constants and key), broadcast to every
    lane.  Block ``j`` takes words 12-15 from the 4-tuple ``tails[j]``:
    the block counter in word 12 and the 96-bit nonce in words 13-15
    (RFC 8439), or a 64-bit counter in words 12-13 and a 64-bit nonce in
    words 14-15 (the original DJB variant).  All four words are packed
    per lane, so a batch may mix nonces, and a carry out of any word
    (consecutive nonces 2^32-1 and 2^32) is the caller's to compute.
    The double round is fully unrolled over sixteen named locals: list
    loads and stores and a quarter-round index walk would cost more than
    the arithmetic.
    """
    nblocks = len(tails)
    one = int.from_bytes((b"\x01" + bytes(7)) * nblocks, "little")
    m = one * _M
    i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, iA, iB = [w * one for w in init]
    iC, iD, iE, iF = [_lanes(words) for words in zip(*tails)]
    x0, x1, x2, x3, x4, x5, x6, x7 = i0, i1, i2, i3, i4, i5, i6, i7
    x8, x9, xA, xB, xC, xD, xE, xF = i8, i9, iA, iB, iC, iD, iE, iF
    for _ in range(10):
        # Column round: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15)
        x0 = (x0 + x4) & m; xC ^= x0; xC = ((xC << 16) | (xC >> 16)) & m
        x8 = (x8 + xC) & m; x4 ^= x8; x4 = ((x4 << 12) | (x4 >> 20)) & m
        x0 = (x0 + x4) & m; xC ^= x0; xC = ((xC << 8) | (xC >> 24)) & m
        x8 = (x8 + xC) & m; x4 ^= x8; x4 = ((x4 << 7) | (x4 >> 25)) & m
        x1 = (x1 + x5) & m; xD ^= x1; xD = ((xD << 16) | (xD >> 16)) & m
        x9 = (x9 + xD) & m; x5 ^= x9; x5 = ((x5 << 12) | (x5 >> 20)) & m
        x1 = (x1 + x5) & m; xD ^= x1; xD = ((xD << 8) | (xD >> 24)) & m
        x9 = (x9 + xD) & m; x5 ^= x9; x5 = ((x5 << 7) | (x5 >> 25)) & m
        x2 = (x2 + x6) & m; xE ^= x2; xE = ((xE << 16) | (xE >> 16)) & m
        xA = (xA + xE) & m; x6 ^= xA; x6 = ((x6 << 12) | (x6 >> 20)) & m
        x2 = (x2 + x6) & m; xE ^= x2; xE = ((xE << 8) | (xE >> 24)) & m
        xA = (xA + xE) & m; x6 ^= xA; x6 = ((x6 << 7) | (x6 >> 25)) & m
        x3 = (x3 + x7) & m; xF ^= x3; xF = ((xF << 16) | (xF >> 16)) & m
        xB = (xB + xF) & m; x7 ^= xB; x7 = ((x7 << 12) | (x7 >> 20)) & m
        x3 = (x3 + x7) & m; xF ^= x3; xF = ((xF << 8) | (xF >> 24)) & m
        xB = (xB + xF) & m; x7 ^= xB; x7 = ((x7 << 7) | (x7 >> 25)) & m
        # Diagonal round: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14)
        x0 = (x0 + x5) & m; xF ^= x0; xF = ((xF << 16) | (xF >> 16)) & m
        xA = (xA + xF) & m; x5 ^= xA; x5 = ((x5 << 12) | (x5 >> 20)) & m
        x0 = (x0 + x5) & m; xF ^= x0; xF = ((xF << 8) | (xF >> 24)) & m
        xA = (xA + xF) & m; x5 ^= xA; x5 = ((x5 << 7) | (x5 >> 25)) & m
        x1 = (x1 + x6) & m; xC ^= x1; xC = ((xC << 16) | (xC >> 16)) & m
        xB = (xB + xC) & m; x6 ^= xB; x6 = ((x6 << 12) | (x6 >> 20)) & m
        x1 = (x1 + x6) & m; xC ^= x1; xC = ((xC << 8) | (xC >> 24)) & m
        xB = (xB + xC) & m; x6 ^= xB; x6 = ((x6 << 7) | (x6 >> 25)) & m
        x2 = (x2 + x7) & m; xD ^= x2; xD = ((xD << 16) | (xD >> 16)) & m
        x8 = (x8 + xD) & m; x7 ^= x8; x7 = ((x7 << 12) | (x7 >> 20)) & m
        x2 = (x2 + x7) & m; xD ^= x2; xD = ((xD << 8) | (xD >> 24)) & m
        x8 = (x8 + xD) & m; x7 ^= x8; x7 = ((x7 << 7) | (x7 >> 25)) & m
        x3 = (x3 + x4) & m; xE ^= x3; xE = ((xE << 16) | (xE >> 16)) & m
        x9 = (x9 + xE) & m; x4 ^= x9; x4 = ((x4 << 12) | (x4 >> 20)) & m
        x3 = (x3 + x4) & m; xE ^= x3; xE = ((xE << 8) | (xE >> 24)) & m
        x9 = (x9 + xE) & m; x4 ^= x9; x4 = ((x4 << 7) | (x4 >> 25)) & m
    # Feed-forward, with words 2p and 2p+1 sharing each lane: lane j of
    # pair p is bytes 8p..8p+7 of block j.  Interleaving the eight pairs
    # as 64-bit items puts the lanes in block order.
    pairs = (
        ((x0 + i0) & m) | ((x1 + i1) & m) << 32,
        ((x2 + i2) & m) | ((x3 + i3) & m) << 32,
        ((x4 + i4) & m) | ((x5 + i5) & m) << 32,
        ((x6 + i6) & m) | ((x7 + i7) & m) << 32,
        ((x8 + i8) & m) | ((x9 + i9) & m) << 32,
        ((xA + iA) & m) | ((xB + iB) & m) << 32,
        ((xC + iC) & m) | ((xD + iD) & m) << 32,
        ((xE + iE) & m) | ((xF + iF) & m) << 32,
    )
    out = memoryview(bytearray(64 * nblocks)).cast("Q")
    for p, pair in enumerate(pairs):
        out[p::8] = memoryview(pair.to_bytes(8 * nblocks, "little")).cast("Q")
    return out.tobytes()


def _key_words(key: bytes) -> list:
    """Words 0-11 of the state: the constants and ``key``."""
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    return [*_CONSTANTS, *struct.unpack("<8L", key)]


def _nonce_words(nonce: bytes) -> tuple:
    """Words 13-15 of an RFC 8439 state: the 96-bit ``nonce``."""
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    return struct.unpack("<3L", nonce)


def _ietf_tails(nonce_words: tuple, counter: int, nblocks: int) -> list:
    """Words 12-15 of RFC 8439 blocks ``counter`` onward; word 12 wraps mod 2^32."""
    n0, n1, n2 = nonce_words
    return [(c & _M, n0, n1, n2) for c in range(counter, counter + nblocks)]


@lru_cache(maxsize=4096)
def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3).

    No record-path caller uses this any more: ChaCha20-Poly1305 takes
    its Poly1305 key from the same ``_keystream`` call as the record's
    keystream.  The ``lru_cache`` stays because the repository
    benchmark reads its ``cache_info()`` as the ``crypto.chacha_block``
    probe (``bench/layers.py``).  The function is pure, so the cache is
    unobservable; 4096 entries of 64 bytes bound it to ~¼ MB.
    """
    return _keystream(_key_words(key), _ietf_tails(_nonce_words(nonce), counter, 1))


class _KeystreamCipher:
    """Shared cursor machinery for the incremental ChaCha variants.

    Subclasses pass words 0-11 of the state and the first block counter,
    and build each block's words 12-15 in ``_tails``.  ``process`` keeps
    unconsumed keystream in a ``bytearray`` drained through a cursor
    (never re-sliced, so large streams stay linear) and XORs whole
    buffers at a time.
    """

    _BLOCK = 64

    def __init__(self, init: list, counter: int) -> None:
        self._init = init
        self._counter = counter
        self._ks = bytearray()
        self._pos = 0

    def _tails(self, counter: int, nblocks: int) -> list:
        raise NotImplementedError

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        if len(self._ks) - self._pos < n:
            need = n - (len(self._ks) - self._pos)
            nblocks = (need + self._BLOCK - 1) // self._BLOCK
            fresh = _keystream(self._init, self._tails(self._counter, nblocks))
            self._counter += nblocks
            if self._pos:
                del self._ks[: self._pos]
                self._pos = 0
            self._ks += fresh
        ks = memoryview(self._ks)[self._pos : self._pos + n]
        out = xor_bytes(data, ks)
        ks.release()
        self._pos += n
        if self._pos == len(self._ks):
            self._ks.clear()
            self._pos = 0
        return out

    encrypt = process
    decrypt = process


class ChaCha20(_KeystreamCipher):
    """Incremental ChaCha20 keystream XOR, as used for a TCP byte stream."""

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0):
        super().__init__(_key_words(key), counter)
        self._nonce = _nonce_words(nonce)

    def _tails(self, counter: int, nblocks: int) -> list:
        return _ietf_tails(self._nonce, counter, nblocks)
