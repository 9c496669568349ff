"""Optimized crypto vs the textbook reference: byte-identical for every cipher.

The optimized implementations (T-table AES, table-driven GHASH, batched
CTR/CFB/ChaCha keystream, chunked Poly1305, numpy-vectorized batch
paths) must be indistinguishable from the originals kept in
``tests/crypto_reference.py`` — over random keys, nonces, message sizes,
and arbitrary chunked-vs-whole call patterns, through both the direct
classes and the ``new_aead``/``new_stream_cipher`` factories.
"""

import hashlib
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AESGCM,
    CFBMode,
    CIPHERS,
    CTRMode,
    ChaCha20,
    ChaCha20DJB,
    ChaCha20Poly1305,
    CipherKind,
    RC4,
    new_aead,
    new_stream_cipher,
    poly1305_mac,
)
from repro.crypto.aes import AES

from .. import crypto_reference as ref

aes_keys = st.binary(min_size=16, max_size=16) | st.binary(
    min_size=24, max_size=24) | st.binary(min_size=32, max_size=32)
keys256 = st.binary(min_size=32, max_size=32)
ivs16 = st.binary(min_size=16, max_size=16)
nonces12 = st.binary(min_size=12, max_size=12)
nonces8 = st.binary(min_size=8, max_size=8)
messages = st.binary(min_size=0, max_size=2000)
# Chunk boundary lists: cut points as fractions of the message length.
cuts = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8)


def _chunked(data, fractions):
    """Split ``data`` at the given fractional positions (sorted, deduped)."""
    points = sorted({int(f * len(data)) for f in fractions})
    chunks = []
    prev = 0
    for p in points + [len(data)]:
        chunks.append(data[prev:p])
        prev = p
    return chunks


def _run_chunked(cipher, chunks):
    return b"".join(cipher.process(c) for c in chunks)


@given(key=aes_keys, block=st.binary(min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_aes_block_matches_reference(key, block):
    assert AES(key).encrypt_block(block) == ref.ReferenceAES(key).encrypt_block(block)


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts)
@settings(max_examples=40, deadline=None)
def test_ctr_matches_reference_chunked(key, iv, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(CTRMode(key, iv), chunks)
    slow = _run_chunked(ref.ReferenceCTRMode(key, iv), chunks)
    assert fast == slow
    assert CTRMode(key, iv).process(data) == slow


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts,
       encrypt=st.booleans())
@settings(max_examples=40, deadline=None)
def test_cfb_matches_reference_chunked(key, iv, data, fractions, encrypt):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(CFBMode(key, iv, encrypt), chunks)
    slow = _run_chunked(ref.ReferenceCFBMode(key, iv, encrypt), chunks)
    assert fast == slow
    assert CFBMode(key, iv, encrypt).process(data) == slow


@given(key=keys256, nonce=nonces12, data=messages, fractions=cuts)
@settings(max_examples=30, deadline=None)
def test_chacha20_ietf_matches_reference_chunked(key, nonce, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(ChaCha20(key, nonce), chunks)
    slow = _run_chunked(ref.ReferenceChaCha20(key, nonce), chunks)
    assert fast == slow
    assert ChaCha20(key, nonce).process(data) == slow


@given(key=keys256, nonce=nonces8, data=messages, fractions=cuts)
@settings(max_examples=30, deadline=None)
def test_chacha20_djb_matches_reference_chunked(key, nonce, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(ChaCha20DJB(key, nonce), chunks)
    slow = _run_chunked(ref.ReferenceChaCha20DJB(key, nonce), chunks)
    assert fast == slow


@given(key=st.binary(min_size=1, max_size=64), data=messages, fractions=cuts)
@settings(max_examples=30, deadline=None)
def test_rc4_matches_reference_chunked(key, data, fractions):
    chunks = _chunked(data, fractions)
    assert (_run_chunked(RC4(key), chunks)
            == _run_chunked(ref.ReferenceRC4(key), chunks))


@given(key=aes_keys, nonce=nonces12, plaintext=messages,
       aad=st.binary(max_size=80))
@settings(max_examples=30, deadline=None)
def test_gcm_matches_reference(key, nonce, plaintext, aad):
    fast, slow = AESGCM(key), ref.ReferenceAESGCM(key)
    sealed = fast.seal(nonce, plaintext, aad)
    assert sealed == slow.seal(nonce, plaintext, aad)
    assert fast.open(nonce, sealed, aad) == plaintext
    # Reuse the same object: exercises the lazy GHASH-table upgrade on
    # cumulative bytes, which must not change any output.
    assert fast.seal(nonce, plaintext, aad) == sealed


@given(key=keys256, message=st.binary(min_size=0, max_size=3000))
@settings(max_examples=40, deadline=None)
def test_poly1305_matches_reference(key, message):
    assert poly1305_mac(key, message) == ref.reference_poly1305_mac(key, message)


@given(key=keys256, nonce=nonces12, plaintext=messages,
       aad=st.binary(max_size=80))
@settings(max_examples=30, deadline=None)
def test_chacha20poly1305_matches_reference(key, nonce, plaintext, aad):
    fast, slow = ChaCha20Poly1305(key), ref.ReferenceChaCha20Poly1305(key)
    sealed = fast.seal(nonce, plaintext, aad)
    assert sealed == slow.seal(nonce, plaintext, aad)
    assert fast.open(nonce, sealed, aad) == plaintext


# Registry name -> reference constructor, taking what the factory takes.
REFERENCE_FACTORIES = {
    "aes-128-gcm": ref.ReferenceAESGCM,
    "aes-192-gcm": ref.ReferenceAESGCM,
    "aes-256-gcm": ref.ReferenceAESGCM,
    "chacha20-ietf-poly1305": ref.ReferenceChaCha20Poly1305,
    "chacha20": lambda key, iv, encrypt: ref.ReferenceChaCha20DJB(key, iv),
    "chacha20-ietf": lambda key, iv, encrypt: ref.ReferenceChaCha20(key, iv),
    "rc4-md5": lambda key, iv, encrypt: ref.ReferenceRC4(
        hashlib.md5(key + iv).digest()),
    **{f"aes-{bits}-ctr": lambda key, iv, encrypt: ref.ReferenceCTRMode(key, iv)
       for bits in (128, 192, 256)},
    **{f"aes-{bits}-cfb": ref.ReferenceCFBMode for bits in (128, 192, 256)},
}


@pytest.mark.parametrize("name", sorted(CIPHERS))
def test_factory_matches_reference(name):
    """Every registry cipher built by its factory matches the reference."""
    rng = random.Random(zlib.crc32(name.encode()))
    spec = CIPHERS[name]
    reference = REFERENCE_FACTORIES[name]
    key = rng.randbytes(spec.key_len)
    data = rng.randbytes(1337)
    if spec.kind == CipherKind.STREAM:
        iv = rng.randbytes(spec.iv_len)
        encrypted = new_stream_cipher(name, key, iv, True).process(data)
        assert encrypted == reference(key, iv, True).process(data)
        decrypted = new_stream_cipher(name, key, iv, False).process(encrypted)
        assert decrypted == reference(key, iv, False).process(encrypted) == data
    else:
        nonce = rng.randbytes(12)
        sealed = new_aead(name, key).seal(nonce, data)
        assert sealed == reference(key).seal(nonce, data)
        assert new_aead(name, key).open(nonce, sealed) == data
