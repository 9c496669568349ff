"""Process-wide AEAD record memo.

In the simulation the sealing and the opening endpoint of a tunnel live
in one process: every AEAD record a client seals, the server opens with
the same subkey, nonce, and bytes (and vice versa).  Both directions of
that round trip are pure functions of ``(key, nonce, aad, record)``, so
a bounded process-wide memo turns the second half — and every identical
record of a seeded re-run in the same process — into a dict hit with
byte-identical results:

* a ``seal`` miss computes the real ciphertext once and installs both
  the seal entry and the matching ``open`` entry, so the opener never
  redoes the keystream or the tag;
* an ``open`` hit skips tag verification only for blobs this process
  itself produced — a tampered or truncated record is a different byte
  string, misses the cache, and takes the real verification path with
  its real ``AuthenticationError``;
* ``cached_seal_records`` keeps those rules for a batch: it looks every
  record up first, seals all the misses in one raw call (one keystream
  pass for ChaCha20-Poly1305), and installs each miss's seal and open
  entries, so every record behaves as its own ``cached_seal``.

The memo is cleared wholesale when full (no LRU bookkeeping on the hot
path), and records longer than ``MAX_RECORD`` bypass it — tunnel AEAD
chunks cap at 0x3FFF bytes, so anything bigger is bulk-buffer work the
memo was never meant to absorb.  ``repro bench --suite crypto``
additionally disables the memo outright for its measurement window, so
reported primitive throughput always reflects real seal/open work.
``set_enabled`` is the one switch, for benchmarks and tests.
"""

from __future__ import annotations

__all__ = ["enabled", "set_enabled", "clear", "cached_seal", "cached_seal_records",
           "cached_open"]

MAX_ENTRIES = 4096
# Shadowsocks AEAD chunks cap at 0x3FFF bytes; benchmark and other bulk
# buffers sit far above this and always take the real primitives.
MAX_RECORD = 1 << 15

_enabled = True
_cache: dict = {}


def enabled() -> bool:
    return _enabled


def set_enabled(value: bool) -> None:
    """Force the memo on/off for this process (tests, benchmarks)."""
    global _enabled
    _enabled = bool(value)
    if not value:
        _cache.clear()


def clear() -> None:
    _cache.clear()


def _put(key, value) -> None:
    if len(_cache) >= MAX_ENTRIES:
        _cache.clear()
    _cache[key] = value


def cached_seal(raw_seal, alg, key, nonce, plaintext, aad):
    """Memoized ``seal``; ``raw_seal(nonce, plaintext, aad)`` on a miss.

    ``alg`` disambiguates ciphers sharing a key size (AES-256-GCM and
    ChaCha20-Poly1305 both take 32-byte keys) so their entries can never
    collide.
    """
    if not _enabled or len(plaintext) > MAX_RECORD:
        return raw_seal(nonce, plaintext, aad)
    entry = ("s", alg, key, nonce, aad, plaintext)
    sealed = _cache.get(entry)
    if sealed is None:
        sealed = raw_seal(nonce, plaintext, aad)
        _put(entry, sealed)
        _put(("o", alg, key, nonce, aad, sealed), plaintext)
    return sealed


def cached_seal_records(raw_seal_records, alg, key, records, aad):
    """Memoized batch seal of ``(nonce, plaintext)`` pairs, in order.

    Every record is looked up first; ``raw_seal_records(misses, aad)``
    then seals the misses in one call, and each one installs its seal
    and open entries as in ``cached_seal``.  A record longer than
    ``MAX_RECORD`` is sealed with the misses but never stored.
    """
    if not _enabled:
        return raw_seal_records(records, aad) if records else []
    sealed = []
    misses = []
    for i, (nonce, plaintext) in enumerate(records):
        hit = None
        if len(plaintext) <= MAX_RECORD:
            hit = _cache.get(("s", alg, key, nonce, aad, plaintext))
        if hit is None:
            misses.append(i)
        sealed.append(hit)
    if misses:
        fresh = raw_seal_records([records[i] for i in misses], aad)
        for i, blob in zip(misses, fresh):
            sealed[i] = blob
            nonce, plaintext = records[i]
            if len(plaintext) <= MAX_RECORD:
                _put(("s", alg, key, nonce, aad, plaintext), blob)
                _put(("o", alg, key, nonce, aad, blob), plaintext)
    return sealed


def cached_open(raw_open, alg, key, nonce, sealed, aad):
    """Memoized ``open``; ``raw_open(nonce, sealed, aad)`` on a miss.

    Only records previously produced (or verified) by this process can
    hit; anything else falls through to the real verify-and-decrypt.
    """
    if not _enabled or len(sealed) > MAX_RECORD + 16:
        return raw_open(nonce, sealed, aad)
    entry = ("o", alg, key, nonce, aad, sealed)
    plaintext = _cache.get(entry)
    if plaintext is None:
        plaintext = raw_open(nonce, sealed, aad)
        _put(entry, plaintext)
        _put(("s", alg, key, nonce, aad, plaintext), sealed)
    return plaintext
