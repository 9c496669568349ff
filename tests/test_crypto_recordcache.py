"""AEAD record-memo transparency and the randutil draw-stream contract."""

import random

import pytest

from repro.crypto import recordcache
from repro.crypto.aead import AESGCM, AuthenticationError, ChaCha20Poly1305
from repro.randutil import byte_draws

from .crypto_reference import ReferenceAESGCM, ReferenceChaCha20Poly1305

KEY = bytes(range(32))
NONCE = bytes(12)


@pytest.fixture(autouse=True)
def fresh_cache():
    recordcache.clear()
    yield
    recordcache.clear()


def test_open_hits_the_entry_a_seal_installed():
    aead = ChaCha20Poly1305(KEY)
    sealed = aead.seal(NONCE, b"payload")
    calls = []
    original = aead._open
    aead._open = lambda *a: calls.append(a) or original(*a)
    assert aead.open(NONCE, sealed) == b"payload"
    assert calls == []          # pure memo hit, no recomputation


def test_tampered_record_misses_the_cache_and_fails_auth():
    aead = ChaCha20Poly1305(KEY)
    sealed = aead.seal(NONCE, b"payload")
    tampered = bytes([sealed[0] ^ 1]) + sealed[1:]
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, tampered)


def test_same_key_size_ciphers_never_share_entries():
    # AES-256-GCM and ChaCha20-Poly1305 both take 32-byte keys; with the
    # algorithm missing from the memo key, whichever sealed first used
    # to poison the other's identical (key, nonce, plaintext) triple.
    chacha = ChaCha20Poly1305(bytes(32)).seal(NONCE, b"")
    gcm = AESGCM(bytes(32)).seal(NONCE, b"")
    assert chacha == ReferenceChaCha20Poly1305(bytes(32)).seal(NONCE, b"")
    assert gcm == ReferenceAESGCM(bytes(32)).seal(NONCE, b"")
    assert chacha != gcm


def test_disabled_cache_still_round_trips(monkeypatch):
    monkeypatch.setattr(recordcache, "_enabled", False)
    aead = AESGCM(KEY[:16])
    sealed = aead.seal(NONCE, b"payload")
    assert aead.open(NONCE, sealed) == b"payload"
    assert recordcache._cache == {}


def test_cache_clears_wholesale_when_full(monkeypatch):
    monkeypatch.setattr(recordcache, "MAX_ENTRIES", 8)
    aead = ChaCha20Poly1305(KEY)
    for i in range(16):
        aead.seal(i.to_bytes(12, "little"), b"x")
    assert len(recordcache._cache) <= 8 + 1


def test_oversized_records_bypass_the_cache():
    aead = ChaCha20Poly1305(KEY)
    big = bytes(recordcache.MAX_RECORD + 1)
    sealed = aead.seal(NONCE, big)
    assert recordcache._cache == {}
    assert aead.open(NONCE, sealed) == big


# One Shadowsocks chunk's two records, then a second chunk's: what
# ``AeadEncryptor.encrypt`` hands to ``seal_records``.
BATCH = [(i.to_bytes(12, "little"), record) for i, record in
         enumerate((b"\x00\x05", b"hello", b"\x01\x2c", bytes(range(256)) + bytes(44)))]
AEADS = [ChaCha20Poly1305, AESGCM]


@pytest.mark.parametrize("cls", AEADS)
def test_batch_sealed_records_open_as_pure_hits(cls):
    aead = cls(KEY)
    sealed = aead.seal_records(BATCH)
    calls = []
    original = aead._open
    aead._open = lambda *a: calls.append(a) or original(*a)
    assert [aead.open(nonce, blob) for (nonce, _), blob in zip(BATCH, sealed)] \
        == [record for _, record in BATCH]
    assert calls == []


@pytest.mark.parametrize("cls", AEADS)
def test_repeated_batch_reseals_for_real(cls):
    # The memo keeps no seal entries: sealing the same batch again runs
    # the raw sealer and returns the same bytes, and each record still
    # holds one (open) entry.
    aead = cls(KEY)
    first = aead.seal_records(BATCH)
    raw = []
    name = "_seal_records" if hasattr(aead, "_seal_records") else "_seal"
    sealer = getattr(aead, name)
    setattr(aead, name, lambda *a: raw.append(a) or sealer(*a))
    assert aead.seal_records(BATCH) == first
    assert raw
    assert len(recordcache._cache) == len(BATCH)


@pytest.mark.parametrize("cls", AEADS)
def test_tampered_batch_record_misses_the_cache_and_fails_auth(cls):
    aead = cls(KEY)
    for (nonce, _), blob in zip(BATCH, aead.seal_records(BATCH)):
        with pytest.raises(AuthenticationError):
            aead.open(nonce, bytes([blob[0] ^ 1]) + blob[1:])


def test_disabled_cache_batch_stays_out_of_the_memo(monkeypatch):
    monkeypatch.setattr(recordcache, "_enabled", False)
    aead = ChaCha20Poly1305(KEY)
    sealed = aead.seal_records(BATCH)
    assert recordcache._cache == {}
    assert [aead.open(nonce, blob) for (nonce, _), blob in zip(BATCH, sealed)] \
        == [record for _, record in BATCH]


def test_oversized_batch_record_bypasses_the_cache():
    aead = ChaCha20Poly1305(KEY)
    big = bytes(recordcache.MAX_RECORD + 1)
    records = [(NONCE, b"small"), ((1).to_bytes(12, "little"), big)]
    sealed = aead.seal_records(records)
    assert sealed == [ReferenceChaCha20Poly1305(KEY).seal(nonce, pt) for nonce, pt in records]
    assert len(recordcache._cache) == 1        # the small record's entry
    assert aead.open(records[1][0], sealed[1]) == big


def test_byte_draws_matches_randrange_stream():
    # byte_draws must consume the generator exactly like the randrange
    # loop it replaces: same bytes out, same state after.
    a, b = random.Random(1234), random.Random(1234)
    assert byte_draws(a, 999) == bytes(b.randrange(256) for _ in range(999))
    assert a.random() == b.random()


def test_randbelow_matches_randrange_for_ip_ids():
    a, b = random.Random(77), random.Random(77)
    assert [a._randbelow(1 << 16) for _ in range(500)] == \
        [b.randrange(1 << 16) for _ in range(500)]
    assert a.getrandbits(32) == b.getrandbits(32)
