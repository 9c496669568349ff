"""Bloom filter, as used by Shadowsocks-libev's replay defense.

Shadowsocks-libev remembers the IVs/salts of past connections in a
"ping-pong" pair of Bloom filters: when the active filter fills up, it
becomes the standby and a fresh one takes over.  This bounds memory but
creates the *forgetting window* the paper's long-delay replays (up to
570 hours, Figure 7) can slip through — one of the asymmetries §7.2
discusses.
"""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = ["BloomFilter", "PingPongBloom"]


class BloomFilter:
    """Classic Bloom filter over byte strings."""

    def __init__(self, bits: int = 1 << 16, hashes: int = 6):
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray((bits + 7) // 8)
        self.count = 0

    def _positions(self, item: bytes) -> list:
        digest = hashlib.sha256(item).digest()
        return [int.from_bytes(digest[4 * i : 4 * i + 4], "big") % self.bits
                for i in range(self.hashes)]

    def _has(self, positions: list) -> bool:
        """True if every bit is set; stops at the first clear one."""
        array = self._array
        return all(array[pos // 8] & (1 << (pos % 8)) for pos in positions)

    def _set(self, positions: list) -> None:
        for pos in positions:
            self._array[pos // 8] |= 1 << (pos % 8)
        self.count += 1

    def add(self, item: bytes) -> None:
        self._set(self._positions(item))

    def __contains__(self, item: bytes) -> bool:
        return self._has(self._positions(item))


class PingPongBloom:
    """Two alternating Bloom filters with bounded total memory."""

    def __init__(self, capacity: int = 100_000, bits: int = 1 << 20, hashes: int = 6):
        self.capacity = capacity
        self._bits = bits
        self._hashes = hashes
        self._active = BloomFilter(bits, hashes)
        self._standby: Optional[BloomFilter] = None

    def check_and_add(self, item: bytes) -> bool:
        """Return True if ``item`` was (probably) seen before; record it.

        Both filters have the same size and hash count, so the item is
        hashed once for the lookups and the insert.
        """
        positions = self._active._positions(item)
        seen = self._active._has(positions) or (
            self._standby is not None and self._standby._has(positions))
        if not seen:
            self._active._set(positions)
            if self._active.count >= self.capacity:
                self._standby = self._active
                self._active = BloomFilter(self._bits, self._hashes)
        return seen

    def __contains__(self, item: bytes) -> bool:
        return item in self._active or (self._standby is not None and item in self._standby)
