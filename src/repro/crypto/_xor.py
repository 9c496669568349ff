"""Whole-buffer XOR, the last step of every stream cipher and AEAD here,
and the keystream cursor that CTR and both ChaCha20 variants share."""

from __future__ import annotations


def xor_bytes(a, b) -> bytes:
    """XOR two equal-length byte strings, as two big ints."""
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


class KeystreamCursor:
    """An incremental keystream XOR over a counter-indexed block function.

    A subclass sets ``_BLOCK``, the block size in bytes, and returns
    blocks ``counter`` .. ``counter + nblocks - 1`` of its keystream from
    ``_blocks``.  ``process`` keeps unconsumed keystream in a
    ``bytearray`` drained through a cursor (never re-sliced, so large
    streams stay linear) and XORs whole buffers at a time.  The counter
    only grows here; ``_blocks`` wraps it as its cipher defines.
    """

    _BLOCK: int

    def __init__(self, counter: int) -> None:
        self._counter = counter
        self._ks = bytearray()
        self._pos = 0

    def _blocks(self, counter: int, nblocks: int) -> bytes:
        raise NotImplementedError

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        if len(self._ks) - self._pos < n:
            need = n - (len(self._ks) - self._pos)
            nblocks = (need + self._BLOCK - 1) // self._BLOCK
            fresh = self._blocks(self._counter, nblocks)
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
