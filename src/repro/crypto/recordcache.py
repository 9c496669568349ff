"""AEAD record memo: a record sealed in this run opens as a dict hit.

In the simulation the sealing and the opening endpoint of a tunnel live
in one process: every AEAD record a client seals, the server opens with
the same subkey, nonce, and bytes (and vice versa).  Opening is a pure
function of ``(key, nonce, aad, sealed)``, so the memo keeps one kind of
entry, ``(alg, key, nonce, aad, sealed) -> plaintext``:

* every seal computes the real ciphertext and installs its entry, so
  the opener never redoes the keystream or the tag;
* an ``open`` hit skips tag verification only for blobs this run itself
  sealed or verified — a tampered or truncated record is a different
  byte string, misses, and takes the real verification path with its
  real ``AuthenticationError``; a successful real open installs its
  entry too, so the same record opened again (a replay) is a hit;
* ``cached_seal_records`` seals a batch in one raw call (one keystream
  pass for ChaCha20-Poly1305) and installs each record's entry.

Seals are never looked up: within a run no record is sealed twice (while
seal entries were kept, a seed-0 ``tunnel`` run hit 0 of its 3,646
seal lookups), so a seal entry would be memory no run reads.

The memo is registered with :mod:`repro.memos`, so the runner empties it
before each unit of work.  Within a unit it is cleared wholesale when it
holds ``MAX_ENTRIES`` records (no LRU bookkeeping on the hot path), and
records longer than ``MAX_RECORD`` bypass it — tunnel AEAD chunks cap
at 0x3FFF bytes, so anything bigger is bulk-buffer work the memo was
never meant to absorb.  ``repro bench --suite crypto`` additionally
disables the memo for its measurement window, so reported primitive
throughput always reflects real seal/open work.  ``set_enabled`` is the
one switch, for benchmarks and tests.
"""

from __future__ import annotations

from .. import memos

__all__ = ["enabled", "set_enabled", "clear", "cached_seal", "cached_seal_records",
           "cached_open"]

MAX_ENTRIES = 2048
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


memos.register(f"{__name__}._cache", clear, _cache.__len__)


def _put(key, value) -> None:
    if len(_cache) >= MAX_ENTRIES:
        _cache.clear()
    _cache[key] = value


def cached_seal(raw_seal, alg, key, nonce, plaintext, aad):
    """``raw_seal(nonce, plaintext, aad)``, installing the record's entry.

    ``alg`` disambiguates ciphers sharing a key size (AES-256-GCM and
    ChaCha20-Poly1305 both take 32-byte keys) so their entries can never
    collide.
    """
    sealed = raw_seal(nonce, plaintext, aad)
    if _enabled and len(plaintext) <= MAX_RECORD:
        _put((alg, key, nonce, aad, sealed), plaintext)
    return sealed


def cached_seal_records(raw_seal_records, alg, key, records, aad):
    """Batch seal of ``(nonce, plaintext)`` pairs, in order.

    ``raw_seal_records(records, aad)`` seals them all in one call, and
    each record installs its entry as in ``cached_seal``.  A record
    longer than ``MAX_RECORD`` is sealed with the others but never
    stored.
    """
    if not records:
        return []
    sealed = raw_seal_records(records, aad)
    if _enabled:
        for (nonce, plaintext), blob in zip(records, sealed):
            if len(plaintext) <= MAX_RECORD:
                _put((alg, key, nonce, aad, blob), plaintext)
    return sealed


def cached_open(raw_open, alg, key, nonce, sealed, aad):
    """Memoized ``open``; ``raw_open(nonce, sealed, aad)`` on a miss.

    Only records previously sealed (or verified) in this unit of work
    can hit; anything else falls through to the real verify-and-decrypt.
    """
    if not _enabled or len(sealed) > MAX_RECORD + 16:
        return raw_open(nonce, sealed, aad)
    entry = (alg, key, nonce, aad, sealed)
    plaintext = _cache.get(entry)
    if plaintext is None:
        plaintext = raw_open(nonce, sealed, aad)
        _put(entry, plaintext)
    return plaintext
