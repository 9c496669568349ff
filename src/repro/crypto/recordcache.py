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
  its real ``AuthenticationError``.

The memo is cleared wholesale when full (no LRU bookkeeping on the hot
path), and records longer than ``MAX_RECORD`` bypass it — tunnel AEAD
chunks cap at 0x3FFF bytes, so anything bigger is bulk-buffer work the
memo was never meant to absorb.  ``repro bench --suite crypto``
additionally disables the memo outright for its measurement window, so
reported primitive throughput always reflects real seal/open work.
``set_enabled`` is the one switch, for benchmarks and tests.
"""

from __future__ import annotations

__all__ = ["enabled", "set_enabled", "clear", "cached_seal", "cached_open"]

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
