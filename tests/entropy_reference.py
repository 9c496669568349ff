"""Textbook Shannon entropy: the oracle for :mod:`repro.gfw.entropy`.

Counts the bytes with ``Counter`` and subtracts ``p * log2(p)`` for
each distinct byte value in first-occurrence order, with no memo.  The
memoized :func:`repro.gfw.entropy.shannon_entropy` must return exactly
(``==``) the float this returns: the same terms, summed in the same
order.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = ["reference_entropy"]


def reference_entropy(data: bytes) -> float:
    """Per-byte Shannon entropy, in bits, computed from scratch."""
    total = len(data)
    entropy = 0.0
    for count in Counter(data).values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy
