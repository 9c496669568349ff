"""Payload generators with controlled length and Shannon entropy.

The §4.1 random-data experiments need a client that sends one data packet
with a *specified* length and entropy (Table 4).  A uniform alphabet of
``k`` distinct byte values has per-byte entropy ``log2(k)``; we pick the
alphabet size closest to the target and sample uniformly, which converges
to the target entropy for non-trivial lengths.
"""

from __future__ import annotations

import random
from typing import Optional

from ..randutil import byte_draws

__all__ = ["random_payload", "payload_with_entropy", "alphabet_size_for_entropy"]


def random_payload(length: int, rng: random.Random) -> bytes:
    """Uniform random bytes (entropy -> 8 bits/byte)."""
    return byte_draws(rng, length)


def alphabet_size_for_entropy(target_bits: float) -> int:
    """Smallest-error alphabet size whose uniform entropy matches target."""
    if not 0.0 <= target_bits <= 8.0:
        raise ValueError(f"entropy must be within [0, 8] bits/byte, got {target_bits}")
    k = round(2 ** target_bits)
    return min(256, max(1, k))


def payload_with_entropy(length: int, target_bits: float,
                         rng: random.Random,
                         alphabet_offset: Optional[int] = None) -> bytes:
    """``length`` bytes whose per-byte entropy approximates ``target_bits``.

    ``alphabet_offset`` selects where in byte space the alphabet starts
    (random by default), so different connections do not share symbol
    sets.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    k = alphabet_size_for_entropy(target_bits)
    if alphabet_offset is None:
        alphabet_offset = rng.randrange(256)
    alphabet = [(alphabet_offset + i) % 256 for i in range(k)]
    if k == 1:
        return bytes([alphabet[0]]) * length
    # For long payloads, force every symbol to appear at least once so the
    # empirical entropy does not drift below the target.
    data = [rng.choice(alphabet) for _ in range(length)]
    if length >= 4 * k:
        for i, symbol in enumerate(alphabet):
            data[(i * 7919) % length] = symbol
    return bytes(data)
