"""AES-GCM against NIST GCM test vectors."""

import pytest

from repro.crypto import AESGCM, AuthenticationError

from .crypto_reference import ReferenceAESGCM


def test_nist_case1_empty():
    # Key = 0^128, IV = 0^96, empty plaintext and AAD.
    box = AESGCM(bytes(16))
    sealed = box.seal(bytes(12), b"")
    assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_nist_case2_single_block():
    box = AESGCM(bytes(16))
    sealed = box.seal(bytes(12), bytes(16))
    assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"


def test_nist_case3_four_blocks():
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    iv = bytes.fromhex("cafebabefacedbaddecaf888")
    pt = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255"
    )
    sealed = AESGCM(key).seal(iv, pt)
    assert sealed[:-16].hex() == (
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091473f5985"
    )
    assert sealed[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"


def test_nist_case4_with_aad():
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    iv = bytes.fromhex("cafebabefacedbaddecaf888")
    pt = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39"
    )
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    sealed = AESGCM(key).seal(iv, pt, aad)
    assert sealed[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"
    assert AESGCM(key).open(iv, sealed, aad) == pt


def test_aes256_gcm_roundtrip():
    box = AESGCM(bytes(32))
    sealed = box.seal(b"\x01" * 12, b"payload bytes here", b"aad")
    assert box.open(b"\x01" * 12, sealed, b"aad") == b"payload bytes here"


def test_tamper_detection_every_position():
    box = AESGCM(bytes(16))
    sealed = box.seal(bytes(12), b"abcdef")
    for i in range(len(sealed)):
        bad = bytearray(sealed)
        bad[i] ^= 0x80
        with pytest.raises(AuthenticationError):
            box.open(bytes(12), bytes(bad))


@pytest.mark.parametrize("nonce_len", [0, 8, 16])
@pytest.mark.parametrize("call", [
    lambda box, nonce: box._seal(nonce, b"x", b""),
    lambda box, nonce: box._open(nonce, bytes(17), b""),
    lambda box, nonce: box._open(nonce, b"short", b""),
], ids=["seal", "open", "open-short-input"])
def test_gcm_rejects_bad_nonce_length(call, nonce_len):
    with pytest.raises(ValueError, match="nonce"):
        call(AESGCM(bytes(16)), bytes(nonce_len))


def test_wrong_aad_rejected():
    box = AESGCM(bytes(16))
    sealed = box.seal(bytes(12), b"x", b"right")
    with pytest.raises(AuthenticationError):
        box.open(bytes(12), sealed, b"wrong")


# Records past the table threshold hash through the 16x256 H tables;
# they must agree with the per-bit reference GHASH on sizes around the
# old vector-path boundary (2048 bytes) and on 16 KiB records.


@pytest.fixture
def no_record_cache():
    # The global record memo would satisfy a seal()/open() from an
    # earlier identical call, so the table walk would never execute.
    from repro.crypto import recordcache

    was = recordcache.enabled()
    recordcache.set_enabled(False)
    yield
    recordcache.set_enabled(was)


@pytest.mark.parametrize("size", [
    2032, 2040, 2047, 2048, 2049, 2063, 2064, 2176,
    4096, 16384, 16401, 65536,
])
def test_vector_ghash_matches_scalar(size, no_record_cache):
    key = bytes(range(32))
    iv = bytes(12)
    pt = bytes((i * 131 + 17) & 0xFF for i in range(size))
    aad = b"header" * 40

    box = AESGCM(key)
    reference = ReferenceAESGCM(key)
    sealed = box.seal(iv, pt, aad)
    assert sealed == reference.seal(iv, pt, aad)
    assert reference.open(iv, sealed, aad) == pt
    assert box.open(iv, sealed, aad) == pt


def test_vector_ghash_mixed_sizes_share_tables(no_record_cache):
    # One instance alternating below/above the table threshold keeps a
    # single running state machine; the H tables must not depend on
    # which call built them.
    key = bytes(16)
    box = AESGCM(key)
    reference = ReferenceAESGCM(key)
    for n, size in enumerate([5, 4096, 17, 2048, 3000, 0, 8192]):
        iv = n.to_bytes(12, "big")
        pt = bytes((i + n) & 0xFF for i in range(size))
        assert box.seal(iv, pt) == reference.seal(iv, pt)
