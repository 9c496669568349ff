"""CTR/CFB modes against SP 800-38A vectors, plus incremental-state checks."""

import pytest

from repro.crypto import CFBMode, CTRMode

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
CTR_IV = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
CFB_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
CTR_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)
CFB_CIPHERTEXT = bytes.fromhex(
    "3b3fd92eb72dad20333449f8e83cfb4a"
    "c8a64537a0b3a93fcde3cdad9f1ce58b"
    "26751f67a3cbb140b1808cf187a4f4df"
    "c04b05357c5d1c0eeac4c66f9ff7f2e6"
)


def test_ctr_sp80038a():
    assert CTRMode(KEY128, CTR_IV).encrypt(PLAINTEXT) == CTR_CIPHERTEXT


def test_ctr_roundtrip_incremental():
    enc = CTRMode(KEY128, CTR_IV)
    dec = CTRMode(KEY128, CTR_IV)
    # Feed in awkward chunk sizes; state must carry across calls.
    ct = b"".join(enc.encrypt(PLAINTEXT[i : i + 7]) for i in range(0, len(PLAINTEXT), 7))
    assert ct == CTR_CIPHERTEXT
    pt = b"".join(dec.decrypt(ct[i : i + 5]) for i in range(0, len(ct), 5))
    assert pt == PLAINTEXT


def test_ctr_counter_wraps():
    iv = bytes([0xFF] * 16)
    mode = CTRMode(KEY128, iv)
    out = mode.encrypt(bytes(32))  # crosses the 2^128 boundary
    ref0 = CTRMode(KEY128, iv).encrypt(bytes(16))
    ref1 = CTRMode(KEY128, bytes(16)).encrypt(bytes(16))
    assert out == ref0 + ref1
    # Across two calls: the cursor's counter reaches 2^128 unreduced,
    # and the second call's block must be counter 0.
    mode = CTRMode(KEY128, iv)
    assert mode.encrypt(bytes(16)) + mode.encrypt(bytes(16)) == ref0 + ref1


def test_cfb_sp80038a_encrypt():
    assert CFBMode(KEY128, CFB_IV, encrypt=True).process(PLAINTEXT) == CFB_CIPHERTEXT


def test_cfb_sp80038a_decrypt():
    assert CFBMode(KEY128, CFB_IV, encrypt=False).process(CFB_CIPHERTEXT) == PLAINTEXT


def test_cfb_incremental_matches_oneshot():
    enc = CFBMode(KEY128, CFB_IV, encrypt=True)
    ct = b"".join(enc.process(PLAINTEXT[i : i + 3]) for i in range(0, len(PLAINTEXT), 3))
    assert ct == CFB_CIPHERTEXT
    dec = CFBMode(KEY128, CFB_IV, encrypt=False)
    pt = b"".join(dec.process(ct[i : i + 11]) for i in range(0, len(ct), 11))
    assert pt == PLAINTEXT


def test_iv_length_validated():
    with pytest.raises(ValueError):
        CTRMode(KEY128, bytes(8))
    with pytest.raises(ValueError):
        CFBMode(KEY128, bytes(12), encrypt=True)


def test_ctr_multi_megabyte_single_call():
    # The old implementation grew an immutable keystream with += per
    # block, making one large call quadratic; this finishes fast only
    # with batched keystream generation into a cursor-consumed buffer.
    data = bytes(range(256)) * (3 * 1024 * 4)  # 3 MiB
    whole = CTRMode(KEY128, CTR_IV).process(data)
    # Same bytes as chunked processing, and self-inverse.
    chunked = CTRMode(KEY128, CTR_IV)
    mid = len(data) // 2 + 7
    assert chunked.process(data[:mid]) + chunked.process(data[mid:]) == whole
    assert CTRMode(KEY128, CTR_IV).process(whole) == data
