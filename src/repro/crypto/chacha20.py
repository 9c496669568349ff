"""ChaCha20 stream cipher (RFC 8439, "IETF" variant: 96-bit nonce).

Shadowsocks uses ``chacha20-ietf`` as a stream cipher (12-byte IV) and
ChaCha20 as the keystream half of ``chacha20-ietf-poly1305``; this
cipher carries the bulk of the simulated tunnel traffic.

Every keystream comes from one function, ``_keystream``, which runs the
20 rounds once per *batch* of blocks rather than once per block.  Each
block's words sit in 64-bit lanes of Python ints (the 32-bit word over
32 guard bits): an add's carry and a rotate's spill from the
neighbouring lane land in the guard bits, and masking with the lane
mask clears them, so one big-int operation does the same 32-bit
arithmetic for every lane and the bytes are those of the per-block
definition.  The state is packed by *row*: four ints, row ``r`` holding
words 4r..4r+3 as four segments of one lane per block.  A column round
is one quarter-round on the four rows, and a diagonal round is the same
quarter-round after rotating rows 1, 2 and 3 by one, two and three
whole segments (RFC 8439 §2.3): 80 operations per double round.  Words
0-11 (constants and key) are the same in every block; words 12-15
(counter and nonce) are packed per block, so the blocks of one batch
may belong to different nonces, and one call seals both records of a
Shadowsocks chunk (each a Poly1305 key block and its keystream blocks).

A big-int operation costs little more for a few lanes than for one, so
a small batch pays for the number of operations, not their width.
Every batch the simulated traffic makes is small: the benchmark
workloads' chunk seals and failed probe opens are 2-10 blocks, and no
scenario, figure benchmark or example makes one above 11.  So one loop
serves every size; packing by *word* (sixteen ints, 224 operations per
double round on ints a quarter the width) would win only from about 30
blocks, which only the bulk entries of ``repro bench --suite crypto``
reach.  The incremental ciphers consume the keystream through a cursor
and XOR whole buffers at a time.
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


def _row_constants(nblocks: int) -> tuple:
    """What the row loop needs for a batch of ``nblocks``.

    A segment is ``nblocks`` lanes (``seg`` bits).  Returns the lane
    mask of a row, the ones of one segment (a word times it is that word
    in every lane), the masks of a row's low one, two and three
    segments, and row 0 (the four constants).
    """
    seg = 64 * nblocks
    one = int.from_bytes((b"\x01" + bytes(7)) * nblocks, "little")
    lane_mask = one * _M * (1 | 1 << seg | 1 << 2 * seg | 1 << 3 * seg)
    low1, low2, low3 = [(1 << k * seg) - 1 for k in (1, 2, 3)]
    row0 = sum(w * one << c * seg for c, w in enumerate(_CONSTANTS))
    return lane_mask, one, low1, low2, low3, row0


# Indexed by batch size, below 30 blocks: about 60 KB, built at import.
# Every batch a scenario makes (at most 11 blocks) reads its constants
# here; a larger batch builds them per call, 9% of its time at 30 blocks
# and 3-4% from 64.
_ROW_CONSTANTS = tuple(_row_constants(n) for n in range(30))


def _keystream(init, tails) -> bytes:
    """One keystream block per entry of ``tails``, concatenated.

    ``init`` holds words 0-11 (constants and key), broadcast to every
    lane.  Block ``j`` takes words 12-15 from the 4-tuple ``tails[j]``:
    the block counter in word 12 and the 96-bit nonce in words 13-15
    (RFC 8439), or a 64-bit counter in words 12-13 and a 64-bit nonce in
    words 14-15 (the original DJB variant).  All four words are packed
    per lane, so a batch may mix nonces, and a carry out of any word
    (consecutive nonces 2^32-1 and 2^32) is the caller's to compute.
    The round loop is unrolled over named locals: list loads and
    stores and a quarter-round index walk would cost more than the
    arithmetic.
    """
    # Row r is segments 0-3 = words 4r..4r+3, lane j of a segment being
    # block j.  Words 12-15 come column-major from ``tails``.
    nblocks = len(tails)
    m, one, low1, low2, low3, a0 = (_ROW_CONSTANTS[nblocks] if nblocks < len(_ROW_CONSTANTS)
                                    else _row_constants(nblocks))
    s1 = 64 * nblocks
    s2, s3 = 2 * s1, 3 * s1
    b0 = init[4] * one | init[5] * one << s1 | init[6] * one << s2 | init[7] * one << s3
    c0 = init[8] * one | init[9] * one << s1 | init[10] * one << s2 | init[11] * one << s3
    w12, w13, w14, w15 = zip(*tails)
    d0 = _lanes(w12 + w13 + w14 + w15)
    a, b, c, d = a0, b0, c0, d0
    for _ in range(10):
        # Column round: QR(a, b, c, d) on every column at once.
        a = (a + b) & m; d ^= a; d = ((d << 16) | (d >> 16)) & m
        c = (c + d) & m; b ^= c; b = ((b << 12) | (b >> 20)) & m
        a = (a + b) & m; d ^= a; d = ((d << 8) | (d >> 24)) & m
        c = (c + d) & m; b ^= c; b = ((b << 7) | (b >> 25)) & m
        # Diagonal round: segment i of b, c, d takes the word of
        # column i+1, i+2, i+3 (mod 4), so the same quarter-round
        # runs QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14).
        b = (b >> s1) | ((b & low1) << s3)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s3) | ((d & low3) << s1)
        a = (a + b) & m; d ^= a; d = ((d << 16) | (d >> 16)) & m
        c = (c + d) & m; b ^= c; b = ((b << 12) | (b >> 20)) & m
        a = (a + b) & m; d ^= a; d = ((d << 8) | (d >> 24)) & m
        c = (c + d) & m; b ^= c; b = ((b << 7) | (b >> 25)) & m
        b = (b >> s3) | ((b & low3) << s1)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s1) | ((d & low1) << s3)
    # Feed-forward, then OR each row with itself shifted down by a
    # segment less 32 bits: segments 0 and 2 then hold the word pairs
    # (4r, 4r+1) and (4r+2, 4r+3), lane j being 8 bytes of block j (the
    # guard bits shifted in are zero).  The four rows go out as one int;
    # pair p is 64-bit items 2pn..2pn+n-1.
    rows = 0
    for r, (x, x0) in enumerate(((a, a0), (b, b0), (c, c0), (d, d0))):
        x = (x + x0) & m
        rows |= (x | x >> (s1 - 32)) << 4 * r * s1
    items = memoryview(rows.to_bytes(128 * nblocks, "little")).cast("Q")
    out = memoryview(bytearray(64 * nblocks)).cast("Q")
    for p in range(8):
        out[p::8] = items[2 * p * nblocks : (2 * p + 1) * nblocks]
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
