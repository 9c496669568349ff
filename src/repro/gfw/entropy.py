"""Shannon entropy of packet payloads (bits per byte).

The GFW's passive detector uses the entropy of the first data packet in
a connection as one of its two features (§4.2, Figure 9).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Union

__all__ = ["shannon_entropy"]

# Memoized p*log2(p) terms, one table per payload length:
# ``_TERMS[total][count]``.  Feature packets cluster around a handful of
# lengths with small per-byte counts, so the same terms recur across
# connections; looking a term up by its count alone builds no key per
# byte value, and caching skips most log2 calls.  The result stays
# bit-identical: same count/total -> same float, and the summation order
# below is Counter's first-occurrence order.  Bounded by the number of
# stored terms across all tables (the table for length L holds at most
# L, one per count), cleared wholesale when the next term would pass the
# cap.
_TERMS: Dict[int, Dict[int, float]] = {}
_TERMS_MAX = 1 << 16
_terms_stored = 0

# Whole-payload memo.  Long-horizon and repeated seeded runs feed the
# detector the *same* feature packets over and over (the AEAD record
# memo means identical plaintext records reseal to identical ciphertext
# within a process), so the byte string itself is the natural cache key;
# a hit skips the O(n) histogram outright.  Same input -> same cached
# float, so results are bit-identical by construction.
_ENTROPY_CACHE: Dict[bytes, float] = {}
_ENTROPY_CACHE_MAX = 1 << 12


def shannon_entropy(data: Union[bytes, bytearray, memoryview]) -> float:
    """Per-byte Shannon entropy, in bits (0.0 for empty/uniform input).

    ``data`` may be any bytes-like object; anything but ``bytes`` is
    copied to ``bytes`` first, so the memo only ever keys on immutable
    strings.
    """
    global _terms_stored
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    if not data:
        return 0.0
    cached = _ENTROPY_CACHE.get(data)
    if cached is not None:
        return cached
    total = len(data)
    terms = _TERMS.get(total)
    if terms is None:
        terms = _TERMS[total] = {}
    entropy = 0.0
    for count in Counter(data).values():
        term = terms.get(count)
        if term is None:
            p = count / total
            term = p * math.log2(p)
            if _terms_stored >= _TERMS_MAX:
                _TERMS.clear()
                terms = _TERMS[total] = {}
                _terms_stored = 0
            terms[count] = term
            _terms_stored += 1
        entropy -= term
    if len(_ENTROPY_CACHE) >= _ENTROPY_CACHE_MAX:
        _ENTROPY_CACHE.clear()
    _ENTROPY_CACHE[data] = entropy
    return entropy
