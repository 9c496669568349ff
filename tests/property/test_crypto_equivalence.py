"""Optimized crypto vs the textbook reference: byte-identical for every cipher.

The optimized implementations (T-table and row-lane AES batches,
table-driven GHASH, batched CTR/CFB/ChaCha keystream, chunked Poly1305)
must be indistinguishable from the originals kept in
``tests/crypto_reference.py`` — over random keys, nonces, message sizes,
and arbitrary chunked-vs-whole call patterns, through both the direct
classes and the ``new_aead``/``new_stream_cipher`` factories.  Each
cipher has one batch loop (AES a T-table loop for a single block and
row-lane rounds for 2 blocks or more), so the pinned sizes check that
loop where random draws never reach: lane and block edges, the largest
AEAD chunk, and the batch sizes either side of cuts that once chose a
second loop.  AES compares every batch from one block to 122 (a
byte-sliced loop ran from 120) and one of 4,097 blocks, and pins 119
and 121 blocks for CTR, CFB decryption and GCM.  ChaCha20 pins 29 and
30 blocks (a lane-packed loop ran from 30; 30 is also the first size
that builds its row constants per call), 511 and 513 (around a numpy
cut, gone earlier), and 4,096 blocks for the counter carries: the bulk
entries of ``repro bench --suite crypto`` run batches this large.
Batched AEAD seals (one keystream call for several records) are
compared record by record, and so is the Shadowsocks wire an
``AeadEncryptor`` writes.
"""

import contextlib
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
    derive_subkey,
    get_spec,
    new_aead,
    new_stream_cipher,
    poly1305_mac,
)
from repro.crypto import gcm, recordcache, stream_key
from repro.crypto.aes import AES
from repro.crypto.chacha20 import _keystream
from repro.shadowsocks.aead_session import MAX_CHUNK, AeadEncryptor, aead_master_key

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
# either side, the largest AEAD chunk (0x3FFF), batches of 29 and 30
# blocks (a lane-packed loop once ran from 30; 30 is the first size that
# builds its row constants per call), and 511 and 513 blocks (either
# side of a numpy cut, gone earlier).  ``extra_blocks`` is what the
# cipher adds to the message's blocks: an AEAD record's Poly1305 key
# takes one.
def _edge_sizes(extra_blocks=0):
    return (0, 1, 63, 64, 65, 0x3FFF,
            64 * (29 - extra_blocks), 64 * (30 - extra_blocks),
            64 * (511 - extra_blocks), 64 * (513 - extra_blocks))


# AES batches of 119 and 121 blocks, either side of 120, where a
# byte-sliced loop once took over from the row-lane rounds.
AES_CUT_SIZES = (16 * 119, 16 * 121)


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


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_aes_batches_match_reference_at_every_size(key_len):
    """One block (the T-table loop), then the row-lane rounds at every
    batch size up to 122 (two past 120, where a byte-sliced loop once
    took over) and at a bulk batch of 4,097 blocks."""
    rng = random.Random(key_len)
    key = rng.randbytes(key_len)
    fast, slow = AES(key), ref.ReferenceAES(key)
    blocks = rng.randbytes(16 * 4097)
    expected = b"".join(slow.encrypt_block(blocks[i : i + 16])
                        for i in range(0, len(blocks), 16))
    for nb in [*range(1, 123), 4097]:
        assert fast.encrypt_blocks(blocks[: 16 * nb]) == expected[: 16 * nb], nb


# Probe-sized streams: a partial block, 2 and 13 blocks with and without
# a tail (CFB decryption batches the tail's block with the full ones).
PROBE_SIZES = (5, 32, 37, 208, 221)


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts)
@_at_sizes(AES_CUT_SIZES + PROBE_SIZES, "data", key=bytes(range(32)),
          iv=bytes(range(16)), fractions=[])
@settings(max_examples=40, deadline=None)
def test_ctr_matches_reference_chunked(key, iv, data, fractions):
    chunks = _chunked(data, fractions)
    fast = _run_chunked(CTRMode(key, iv), chunks)
    slow = _run_chunked(ref.ReferenceCTRMode(key, iv), chunks)
    assert fast == slow
    assert CTRMode(key, iv).process(data) == slow


@given(key=aes_keys, iv=ivs16, data=messages, fractions=cuts,
       encrypt=st.booleans())
# Decryption batches every block through ``AES.encrypt_blocks``.
@_at_sizes(AES_CUT_SIZES + PROBE_SIZES, "data", key=bytes(range(16)),
          iv=bytes(range(16)), fractions=[], encrypt=False)
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


# 29 and 30 blocks sit either side of the old lane cut, 513 and 4,096
# are bulk batches (4,096 blocks: a 256 KiB stream of the crypto bench).
@pytest.mark.parametrize("nblocks", [5, 29, 30, 513, 4096])
def test_chacha20_ietf_counter_wraps_like_reference(nblocks):
    """Word 12 wraps modulo 2^32 inside one batch."""
    key, nonce = bytes(range(32)), bytes(range(12))
    data = _message(64 * nblocks)
    counter = 2**32 - 2
    assert (ChaCha20(key, nonce, counter=counter).process(data)
            == ref.ReferenceChaCha20(key, nonce, counter=counter).process(data))


@pytest.mark.parametrize("nblocks", [4, 29, 30, 513, 4096])
def test_chacha20_djb_counter_carries_into_word_13(nblocks):
    """The DJB variant's 64-bit counter carries from word 12 into 13."""
    key, nonce = bytes(range(32)), bytes(range(8))
    init = [*ref._CONSTANTS, *struct.unpack("<8L", key)]
    counter = 2**32 - 2
    expected = b"".join(ref._chacha20_block_djb(key, counter + i, nonce)
                        for i in range(nblocks))
    tails = ChaCha20DJB(key, nonce)._tails(counter, nblocks)
    assert _keystream(init, tails) == expected


words32 = st.integers(min_value=0, max_value=2**32 - 1) | st.sampled_from(
    (0, 2**32 - 1))


def _mixed_tails(nblocks):
    """Words 12-15 that differ in every block and word, with 2^32-1 words."""
    return [(i, 2**32 - 1, (i * 0x9E3779B9) & 0xFFFFFFFF, 2**32 - 1 - i)
            for i in range(nblocks)]


@given(key=keys256, tails=st.lists(st.tuples(words32, words32, words32, words32),
                                   min_size=1, max_size=60))
# 29 blocks read the import-time row constants, 30 build them per call
# (and once ran a lane-packed loop).
@example(key=bytes(range(32)), tails=_mixed_tails(29))
@example(key=bytes(range(32)), tails=_mixed_tails(30))
@settings(max_examples=30, deadline=None)
def test_keystream_matches_reference_blocks(key, tails):
    """Each block of one ``_keystream`` call, with its row constants from
    the import-time table or built per call, is the reference block of
    its own words 12-15: the tails mix nonces, so a block read from
    another block's lane or another word's segment fails."""
    init = [*ref._CONSTANTS, *struct.unpack("<8L", key)]
    expected = b"".join(ref._run_rounds([*init, *tail]) for tail in tails)
    assert _keystream(init, tails) == expected


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


@pytest.mark.parametrize("name", ["aes-128-ctr", "aes-192-cfb", "aes-256-cfb"])
@given(iv=ivs16, data=messages, fractions=cuts)
@settings(max_examples=15, deadline=None)
def test_shared_key_schedule_matches_reference(name, iv, data, fractions):
    """Sessions built from one ``stream_key`` (one AES schedule, as a
    server's sessions share) encrypt and decrypt like fresh references."""
    key = bytes(range(get_spec(name).key_len))
    shared = stream_key(name, key)
    reference = REFERENCE_FACTORIES[name]
    chunks = _chunked(data, fractions)
    for encrypt in (True, False):
        fast = _run_chunked(new_stream_cipher(name, shared, iv, encrypt), chunks)
        assert fast == _run_chunked(reference(key, iv, encrypt), chunks)


field_elements = st.integers(min_value=0, max_value=2**128 - 1) | st.sampled_from(
    (0, 1, 2**127, 2**128 - 1))


@given(h=field_elements, x=field_elements)
@settings(max_examples=300, deadline=None)
def test_ghash_4bit_multiply_matches_per_bit(h, x):
    """Shoup's 4-bit table multiply is the GF(2^128) product."""
    block = x.to_bytes(16, "big")
    assert gcm._ghash_nibbles(gcm._build_h_nibbles(h), block) == ref._gf_mult(x, h)


def test_gcm_session_crosses_table_threshold():
    """One reused instance seals 0-3 KiB messages: the first tags hash by
    4-bit table, later ones through the 16x256 tables once the session
    passes ``_TABLE_THRESHOLD`` bytes."""
    rng = random.Random(26)
    for key_len in (16, 24, 32):
        key = rng.randbytes(key_len)
        fast, slow = AESGCM(key), ref.ReferenceAESGCM(key)
        with _memo_off():
            for size in (0, 1, 15, 16, 17, 200, 1000, 2047, 2048, 3072, 7, 3000):
                nonce, aad = rng.randbytes(12), rng.randbytes(size % 40)
                plaintext = rng.randbytes(size)
                sealed = fast.seal(nonce, plaintext, aad)
                assert sealed == slow.seal(nonce, plaintext, aad), (key_len, size)
                assert fast.open(nonce, sealed, aad) == plaintext
        assert fast._tables is not None


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


@contextlib.contextmanager
def _memo_off():
    """Seal and open for real.  With the record memo on, ``open`` answers
    from the entry its ``seal`` installed, whatever bytes that seal made."""
    was = recordcache.enabled()
    recordcache.set_enabled(False)
    try:
        yield
    finally:
        recordcache.set_enabled(was)


# Runs of consecutive record nonces start at zero, or one below a carry
# out of word 13 (2^32) or word 14 (2^64) of the ChaCha20 state.
NONCE_STARTS = (0, 2**32 - 1, 2**64 - 1)
record_sizes = st.integers(min_value=0, max_value=0x3FFF) | st.sampled_from(
    (*_edge_sizes(extra_blocks=1), *AES_CUT_SIZES))


@pytest.mark.parametrize("fast_cls, slow_cls", [
    (ChaCha20Poly1305, ref.ReferenceChaCha20Poly1305),
    (AESGCM, ref.ReferenceAESGCM),
], ids=["chacha20-poly1305", "aes-gcm"])
@given(key=keys256, start=st.sampled_from(NONCE_STARTS),
       sizes=st.lists(record_sizes, min_size=1, max_size=6),
       aad=st.binary(max_size=40))
# Two records under consecutive nonces across a word-13 carry, in one
# keystream call of 29 and of 30 blocks, either side of the old lane cut
# (each record adds its Poly1305 key block).
@example(key=bytes(range(32)), start=2**32 - 1, sizes=[2, 64 * 26], aad=b"aad")
@example(key=bytes(range(32)), start=2**32 - 1, sizes=[2, 64 * 27], aad=b"aad")
@settings(max_examples=15, deadline=None)
def test_seal_records_matches_reference(fast_cls, slow_cls, key, start, sizes, aad):
    records = [((start + i).to_bytes(12, "little"), _message(size))
               for i, size in enumerate(sizes)]
    fast, slow = fast_cls(key), slow_cls(key)
    with _memo_off():
        sealed = fast.seal_records(records, aad)
        assert sealed == [slow.seal(nonce, pt, aad) for nonce, pt in records]
        assert ([fast.open(nonce, blob, aad) for (nonce, _), blob in zip(records, sealed)]
                == [pt for _, pt in records])


@pytest.mark.parametrize("start", [0, 2**32 - 1])
@pytest.mark.parametrize("size", [0, 1, 103, 0x3FFF, 0x3FFF + 100, 3 * 0x3FFF])
@pytest.mark.parametrize("method", ["chacha20-ietf-poly1305", "aes-128-gcm"])
def test_aead_encryptor_wire_matches_reference(method, size, start):
    """One ``encrypt`` call: the salt once, then each chunk's sealed length
    and sealed payload under consecutive nonces."""
    master = aead_master_key("wire", method)
    salt = bytes(range(get_spec(method).salt_len))
    enc = AeadEncryptor(method, master, salt=salt)
    enc._nonce._value = start
    box = REFERENCE_FACTORIES[method](derive_subkey(master, salt))
    plaintext = _message(size)
    expected = bytearray(salt)
    nonce = start
    for i in range(0, size, MAX_CHUNK):
        chunk = plaintext[i : i + MAX_CHUNK]
        for record in (len(chunk).to_bytes(2, "big"), chunk):
            expected += box.seal(nonce.to_bytes(12, "little"), record)
            nonce += 1
    with _memo_off():
        assert enc.encrypt(plaintext) == expected
        assert enc.encrypt(b"") == b""


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
