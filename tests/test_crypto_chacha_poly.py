"""ChaCha20, Poly1305, and ChaCha20-Poly1305 against RFC 8439 vectors."""

import pytest

from repro.crypto import (
    AuthenticationError,
    ChaCha20,
    ChaCha20DJB,
    ChaCha20Poly1305,
    chacha20_block,
    poly1305_mac,
)

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")


def test_chacha20_block_rfc8439_2_3_2():
    block = chacha20_block(RFC_KEY, 1, RFC_NONCE)
    assert block.hex() == (
        "10f1e7e4d13b5915500fdd1fa32071c4"
        "c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2"
        "b5129cd1de164eb9cbd083e8a2503c4e"
    )


def test_chacha20_encrypt_rfc8439_2_4_2():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ct = ChaCha20(key, nonce, counter=1).encrypt(plaintext)
    assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
    assert ct.hex().endswith("874d")
    assert ChaCha20(key, nonce, counter=1).decrypt(ct) == plaintext


def test_chacha20_incremental_state():
    key, nonce = bytes(32), bytes(12)
    data = bytes(200)
    oneshot = ChaCha20(key, nonce).encrypt(data)
    stream = ChaCha20(key, nonce)
    chunked = b"".join(stream.encrypt(data[i : i + 13]) for i in range(0, 200, 13))
    assert chunked == oneshot


def test_chacha20_djb_distinct_from_ietf():
    key = bytes(range(32))
    djb = ChaCha20DJB(key, bytes(8)).encrypt(bytes(64))
    ietf = ChaCha20(key, bytes(12)).encrypt(bytes(64))
    # With an all-zero nonce and counter the layouts coincide, so instead
    # use a nonzero nonce to confirm the variants differ.
    djb2 = ChaCha20DJB(key, b"\x01" + bytes(7)).encrypt(bytes(64))
    assert djb == ietf  # zero nonce/counter: identical initial state
    assert djb2 != djb


def test_poly1305_rfc8439_2_5_2():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    msg = b"Cryptographic Forum Research Group"
    assert poly1305_mac(key, msg).hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_aead_rfc8439_2_8_2():
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    sealed = ChaCha20Poly1305(key).seal(nonce, plaintext, aad)
    assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
    assert ChaCha20Poly1305(key).open(nonce, sealed, aad) == plaintext


def test_aead_rejects_tampering():
    box = ChaCha20Poly1305(bytes(32))
    sealed = bytearray(box.seal(bytes(12), b"hello"))
    sealed[0] ^= 1
    with pytest.raises(AuthenticationError):
        box.open(bytes(12), bytes(sealed))


def test_aead_rejects_short_input():
    with pytest.raises(AuthenticationError):
        ChaCha20Poly1305(bytes(32)).open(bytes(12), b"short")


@pytest.mark.parametrize("build", [
    lambda: ChaCha20(bytes(31), bytes(12)),
    lambda: ChaCha20(bytes(32), bytes(8)),
    lambda: ChaCha20DJB(bytes(32), bytes(12)),
    lambda: chacha20_block(bytes(32), 0, bytes(11)),
    lambda: ChaCha20Poly1305(bytes(16)),
    lambda: ChaCha20Poly1305(bytes(32))._seal(bytes(8), b"x", b""),
    lambda: ChaCha20Poly1305(bytes(32))._open(bytes(8), bytes(17), b""),
    lambda: ChaCha20Poly1305(bytes(32))._open(bytes(8), b"short", b""),
    lambda: ChaCha20Poly1305(bytes(32)).seal_records([(bytes(12), b"x"), (bytes(8), b"y")]),
])
def test_chacha_rejects_bad_key_and_nonce_lengths(build):
    with pytest.raises(ValueError):
        build()
