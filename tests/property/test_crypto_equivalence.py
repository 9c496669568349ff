"""Optimized crypto vs the textbook reference: byte-identical for every cipher.

The optimized implementations (T-table and byte-sliced AES batches,
table-driven GHASH, batched CTR/CFB/ChaCha keystream, chunked Poly1305)
must be indistinguishable from the originals kept in
``tests/crypto_reference.py`` — over random keys, nonces, message sizes,
and arbitrary chunked-vs-whole call patterns, through both the direct
classes and the ``new_aead``/``new_stream_cipher`` factories.  Pinned
examples add the sizes random draws never reach: lane and block edges,
the largest AEAD chunk, ChaCha20 batches of 511 and 513 blocks, and one
block either side of the AES sliced cut.
"""

import hashlib
import random
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AESGCM,
    AuthenticationError,
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
from repro.crypto.aes import AES, SLICED_MIN_BLOCKS
from repro.crypto.chacha20 import _keystream

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


def _message(size):
    return bytes(i % 251 for i in range(size))


# ChaCha20 sizes random ``messages`` never reach: one block and a byte
# either side, the largest AEAD chunk (0x3FFF), and batches of 511 and
# 513 blocks.  ``extra_blocks`` is what the cipher adds to the message's
# blocks: an AEAD record's Poly1305 key takes one.
def _edge_sizes(extra_blocks=0):
    return (0, 1, 63, 64, 65, 0x3FFF,
            64 * (511 - extra_blocks), 64 * (513 - extra_blocks))


# One AES batch either side of the sliced cut: the T-table loop below,
# the byte-sliced rounds above.
AES_CUT_SIZES = (16 * (SLICED_MIN_BLOCKS - 1), 16 * (SLICED_MIN_BLOCKS + 1))


def _at_sizes(sizes, arg, **fixed):
    """One hypothesis ``@example`` per size: ``fixed`` plus ``arg`` of that size."""
    def decorate(test):
        for size in sizes:
            test = example(**fixed, **{arg: _message(size)})(test)
        return test
    return decorate


def _check_real_open(fast, slow, nonce, sealed, aad, plaintext):
    """``_open`` verifies and decrypts for real (after ``seal`` the record
    memo answers ``open``) and rejects one flipped tag or ciphertext byte."""
    assert fast._open(nonce, sealed, aad) == slow.open(nonce, sealed, aad) == plaintext
    flips = [len(sealed) - 1 - len(plaintext) % 16]
    if plaintext:
        flips.append(len(plaintext) // 2)
    for pos in flips:
        tampered = bytearray(sealed)
        tampered[pos] ^= 0x01
        with pytest.raises(AuthenticationError):
            fast._open(nonce, bytes(tampered), aad)


@given(key=aes_keys, block=st.binary(min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_aes_block_matches_reference(key, block):
    assert AES(key).encrypt_block(block) == ref.ReferenceAES(key).encrypt_block(block)


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts)
@_at_sizes(AES_CUT_SIZES, "data", key=bytes(range(32)), iv=bytes(range(16)),
          fractions=[])
@settings(max_examples=40, deadline=None)
def test_ctr_matches_reference_chunked(key, iv, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(CTRMode(key, iv), chunks)
    slow = _run_chunked(ref.ReferenceCTRMode(key, iv), chunks)
    assert fast == slow
    assert CTRMode(key, iv).process(data) == slow


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts,
       encrypt=st.booleans())
# Decryption batches every full block through ``AES.encrypt_blocks``.
@_at_sizes(AES_CUT_SIZES, "data", key=bytes(range(16)), iv=bytes(range(16)),
          fractions=[], encrypt=False)
@settings(max_examples=40, deadline=None)
def test_cfb_matches_reference_chunked(key, iv, data, fractions, encrypt):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(CFBMode(key, iv, encrypt), chunks)
    slow = _run_chunked(ref.ReferenceCFBMode(key, iv, encrypt), chunks)
    assert fast == slow
    assert CFBMode(key, iv, encrypt).process(data) == slow


@given(key=keys256, nonce=nonces12, data=messages, fractions=cuts)
@_at_sizes(_edge_sizes(), "data", key=bytes(range(32)), nonce=bytes(range(12)),
          fractions=[0.5])
@settings(max_examples=30, deadline=None)
def test_chacha20_ietf_matches_reference_chunked(key, nonce, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(ChaCha20(key, nonce), chunks)
    slow = _run_chunked(ref.ReferenceChaCha20(key, nonce), chunks)
    assert fast == slow
    assert ChaCha20(key, nonce).process(data) == slow


@given(key=keys256, nonce=nonces8, data=messages, fractions=cuts)
@_at_sizes(_edge_sizes(), "data", key=bytes(range(32)), nonce=bytes(range(8)),
          fractions=[])
@settings(max_examples=30, deadline=None)
def test_chacha20_djb_matches_reference_chunked(key, nonce, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(ChaCha20DJB(key, nonce), chunks)
    slow = _run_chunked(ref.ReferenceChaCha20DJB(key, nonce), chunks)
    assert fast == slow


@pytest.mark.parametrize("nblocks", [5, 513])
def test_chacha20_ietf_counter_wraps_like_reference(nblocks):
    """Word 12 wraps modulo 2^32 inside one batch."""
    key, nonce = bytes(range(32)), bytes(range(12))
    data = _message(64 * nblocks)
    counter = 2**32 - 2
    assert (ChaCha20(key, nonce, counter=counter).process(data)
            == ref.ReferenceChaCha20(key, nonce, counter=counter).process(data))


@pytest.mark.parametrize("nblocks", [4, 513])
def test_chacha20_djb_counter_carries_into_word_13(nblocks):
    """The DJB variant's 64-bit counter carries from word 12 into 13."""
    key, nonce = bytes(range(32)), bytes(range(8))
    init = [*ref._CONSTANTS, *struct.unpack("<8L", key), 0, 0,
            *struct.unpack("<2L", nonce)]
    counter = 2**32 - 2
    expected = b"".join(ref._chacha20_block_djb(key, counter + i, nonce)
                        for i in range(nblocks))
    assert _keystream(init, counter, nblocks, wide=True) == expected


@given(key=st.binary(min_size=1, max_size=64), data=messages, fractions=cuts)
@settings(max_examples=30, deadline=None)
def test_rc4_matches_reference_chunked(key, data, fractions):
    chunks = _chunked(data, fractions)
    assert (_run_chunked(RC4(key), chunks)
            == _run_chunked(ref.ReferenceRC4(key), chunks))


@given(key=aes_keys, nonce=nonces12, plaintext=messages,
       aad=st.binary(max_size=80))
@_at_sizes((0, 1, 63, 64, 65, 0x3FFF, *AES_CUT_SIZES), "plaintext",
          key=bytes(range(16)), nonce=bytes(range(12)), aad=b"aad")
@settings(max_examples=30, deadline=None)
def test_gcm_matches_reference(key, nonce, plaintext, aad):
    fast, slow = AESGCM(key), ref.ReferenceAESGCM(key)
    sealed = fast.seal(nonce, plaintext, aad)
    assert sealed == slow.seal(nonce, plaintext, aad)
    assert fast.open(nonce, sealed, aad) == plaintext
    _check_real_open(fast, slow, nonce, sealed, aad, plaintext)
    # Reuse the same object: exercises the lazy GHASH-table upgrade on
    # cumulative bytes, which must not change any output.
    assert fast.seal(nonce, plaintext, aad) == sealed


@given(key=keys256, message=st.binary(min_size=0, max_size=3000))
@settings(max_examples=40, deadline=None)
def test_poly1305_matches_reference(key, message):
    assert poly1305_mac(key, message) == ref.reference_poly1305_mac(key, message)


@given(key=keys256, nonce=nonces12, plaintext=messages,
       aad=st.binary(max_size=80))
@_at_sizes(_edge_sizes(extra_blocks=1), "plaintext", key=bytes(range(32)),
          nonce=bytes(range(12)), aad=b"aad")
@settings(max_examples=30, deadline=None)
def test_chacha20poly1305_matches_reference(key, nonce, plaintext, aad):
    fast, slow = ChaCha20Poly1305(key), ref.ReferenceChaCha20Poly1305(key)
    sealed = fast.seal(nonce, plaintext, aad)
    assert sealed == slow.seal(nonce, plaintext, aad)
    assert fast.open(nonce, sealed, aad) == plaintext
    _check_real_open(fast, slow, nonce, sealed, aad, plaintext)


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
        _check_real_open(new_aead(name, key), reference(key), nonce, sealed,
                         b"", data)
