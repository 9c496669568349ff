"""Reference (textbook) implementations of the crypto substrate.

These are the original straight-from-the-spec implementations that the
optimized modules of :mod:`repro.crypto` (``aes``, ``gcm``, ``modes``,
``chacha20``, ``stream``, ``poly1305``) replaced.  They are the test
oracle: the equivalence suite asserts the optimized code is
byte-identical to them over random keys, nonces, message sizes, and
chunking patterns.
"""

from __future__ import annotations

import struct
from typing import List

from repro.crypto.gcm import AuthenticationError

__all__ = [
    "ReferenceAES",
    "ReferenceAESGCM",
    "ReferenceCFBMode",
    "ReferenceCTRMode",
    "ReferenceChaCha20",
    "ReferenceChaCha20DJB",
    "ReferenceChaCha20Poly1305",
    "ReferenceRC4",
    "reference_chacha20_block",
    "reference_poly1305_mac",
]

BLOCK_SIZE = 16


# --------------------------------------------------------------------- AES
# Byte-oriented AES from FIPS 197 with a precomputed S-box.


def _build_sbox() -> List[int]:
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for i in range(256):
        inv = 0 if i == 0 else exp[255 - log[i]]
        s = inv
        for _ in range(4):
            inv = ((inv << 1) | (inv >> 7)) & 0xFF
            s ^= inv
        sbox[i] = s ^ 0x63
    return sbox


_SBOX = _build_sbox()
_MUL2 = [((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else (x << 1) for x in range(256)]
_MUL3 = [_MUL2[x] ^ x for x in range(256)]
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


class ReferenceAES:
    """AES-128/192/256 forward block cipher (byte-oriented FIPS 197)."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        return [
            [words[4 * r + c][j] for c in range(4) for j in range(4)]
            for r in range(rounds + 1)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        sbox, mul2, mul3 = _SBOX, _MUL2, _MUL3
        rk = self._round_keys
        s = [block[i] ^ rk[0][i] for i in range(16)]
        for rnd in range(1, self.rounds):
            t = [
                sbox[s[0]], sbox[s[5]], sbox[s[10]], sbox[s[15]],
                sbox[s[4]], sbox[s[9]], sbox[s[14]], sbox[s[3]],
                sbox[s[8]], sbox[s[13]], sbox[s[2]], sbox[s[7]],
                sbox[s[12]], sbox[s[1]], sbox[s[6]], sbox[s[11]],
            ]
            k = rk[rnd]
            s = [0] * 16
            for c in range(0, 16, 4):
                a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
                s[c] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3 ^ k[c]
                s[c + 1] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3 ^ k[c + 1]
                s[c + 2] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3] ^ k[c + 2]
                s[c + 3] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3] ^ k[c + 3]
        t = [
            sbox[s[0]], sbox[s[5]], sbox[s[10]], sbox[s[15]],
            sbox[s[4]], sbox[s[9]], sbox[s[14]], sbox[s[3]],
            sbox[s[8]], sbox[s[13]], sbox[s[2]], sbox[s[7]],
            sbox[s[12]], sbox[s[1]], sbox[s[6]], sbox[s[11]],
        ]
        k = rk[self.rounds]
        return bytes(t[i] ^ k[i] for i in range(16))


# --------------------------------------------------------------------- GCM
# Shift-and-add GF(2^128) multiplication straight from SP 800-38D.

_R = 0xE1 << 120


def _gf_mult(x: int, y: int) -> int:
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0


class ReferenceAESGCM:
    """AES-GCM with 12-byte nonces and 16-byte tags (per-bit GHASH)."""

    TAG_SIZE = 16
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        self._aes = ReferenceAES(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")

    def _ghash(self, data: bytes) -> int:
        y = 0
        h = self._h
        for i in range(0, len(data), 16):
            block = data[i : i + 16].ljust(16, b"\x00")
            y = _gf_mult(y ^ int.from_bytes(block, "big"), h)
        return y

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        out = bytearray()
        for i in range(0, len(data), 16):
            ctr = 2 + i // 16
            ks = self._aes.encrypt_block(nonce + struct.pack(">I", ctr))
            out.extend(a ^ b for a, b in zip(data[i : i + 16], ks))
        return bytes(out)

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        def pad16(b: bytes) -> bytes:
            return b + bytes(-len(b) % 16)

        ghash_input = (
            pad16(aad)
            + pad16(ciphertext)
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        )
        s = self._ghash(ghash_input)
        ek_y0 = self._aes.encrypt_block(nonce + struct.pack(">I", 1))
        return bytes(a ^ b for a, b in zip(s.to_bytes(16, "big"), ek_y0))

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"GCM nonce must be {self.NONCE_SIZE} bytes")
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(f"GCM nonce must be {self.NONCE_SIZE} bytes")
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        if not _eq(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("GCM tag mismatch")
        return self._crypt(nonce, ciphertext)


# ------------------------------------------------------------- CTR and CFB


class ReferenceCTRMode:
    """AES-CTR with per-call keystream concatenation (quadratic on big calls)."""

    def __init__(self, key: bytes, iv: bytes):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CTR IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        self._cipher = ReferenceAES(key)
        self._counter = int.from_bytes(iv, "big")
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        while len(self._keystream) < len(data):
            block = self._counter.to_bytes(BLOCK_SIZE, "big")
            self._counter = (self._counter + 1) % (1 << 128)
            self._keystream += self._cipher.encrypt_block(block)
        ks, self._keystream = self._keystream[: len(data)], self._keystream[len(data) :]
        return bytes(a ^ b for a, b in zip(data, ks))

    encrypt = process
    decrypt = process


class ReferenceCFBMode:
    """AES-CFB128, one byte at a time through the feedback register."""

    def __init__(self, key: bytes, iv: bytes, encrypt: bool):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CFB IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        self._cipher = ReferenceAES(key)
        self._register = iv
        self._encrypting = encrypt
        self._pending = b""
        self._feedback = b""

    def process(self, data: bytes) -> bytes:
        out = bytearray()
        for byte in data:
            if not self._pending:
                self._pending = self._cipher.encrypt_block(self._register)
                self._feedback = b""
            c = byte ^ self._pending[0]
            self._pending = self._pending[1:]
            cipher_byte = c if self._encrypting else byte
            self._feedback += bytes([cipher_byte])
            if len(self._feedback) == BLOCK_SIZE:
                self._register = self._feedback
            out.append(c)
        return bytes(out)

    encrypt = process
    decrypt = process


# ---------------------------------------------------------------- ChaCha20

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_M = 0xFFFFFFFF


def _quarter_round(state: list, a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _M
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _M
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _M
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _M
    state[b] = _rotl32(state[b] ^ state[c], 7)


def _rotl32(v: int, c: int) -> int:
    return ((v << c) | (v >> (32 - c))) & _M


def _run_rounds(init: list) -> bytes:
    state = list(init)
    for _ in range(10):
        _quarter_round(state, 0, 4, 8, 12)
        _quarter_round(state, 1, 5, 9, 13)
        _quarter_round(state, 2, 6, 10, 14)
        _quarter_round(state, 3, 7, 11, 15)
        _quarter_round(state, 0, 5, 10, 15)
        _quarter_round(state, 1, 6, 11, 12)
        _quarter_round(state, 2, 7, 8, 13)
        _quarter_round(state, 3, 4, 9, 14)
    return struct.pack("<16L", *((s + i) & _M for s, i in zip(state, init)))


def reference_chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    init = list(_CONSTANTS)
    init.extend(struct.unpack("<8L", key))
    init.append(counter & _M)
    init.extend(struct.unpack("<3L", nonce))
    return _run_rounds(init)


class ReferenceChaCha20:
    """Incremental RFC 8439 ChaCha20, one 64-byte block per inner loop."""

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
        self._init = (
            list(_CONSTANTS) + list(struct.unpack("<8L", key)) + [0]
            + list(struct.unpack("<3L", nonce))
        )
        self._counter = counter
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        while len(self._keystream) < len(data):
            self._init[12] = self._counter & _M
            self._keystream += _run_rounds(self._init)
            self._counter += 1
        ks, self._keystream = self._keystream[: len(data)], self._keystream[len(data) :]
        return bytes(a ^ b for a, b in zip(data, ks))

    encrypt = process
    decrypt = process


def _chacha20_block_djb(key: bytes, counter: int, nonce: bytes) -> bytes:
    init = list(_CONSTANTS)
    init.extend(struct.unpack("<8L", key))
    init.append(counter & 0xFFFFFFFF)
    init.append((counter >> 32) & 0xFFFFFFFF)
    init.extend(struct.unpack("<2L", nonce))
    return _run_rounds(init)


class ReferenceChaCha20DJB:
    """Incremental original-variant ChaCha20 (8-byte nonce)."""

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 8:
            raise ValueError(f"DJB ChaCha20 nonce must be 8 bytes, got {len(nonce)}")
        self._key = key
        self._nonce = nonce
        self._counter = 0
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        while len(self._keystream) < len(data):
            self._keystream += _chacha20_block_djb(self._key, self._counter, self._nonce)
            self._counter += 1
        ks, self._keystream = self._keystream[: len(data)], self._keystream[len(data) :]
        return bytes(a ^ b for a, b in zip(data, ks))

    encrypt = process
    decrypt = process


# --------------------------------------------------------------------- RC4


class ReferenceRC4:
    """RC4 keystream XOR (for the ``rc4-md5`` method)."""

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("RC4 key must be non-empty")
        s = list(range(256))
        j = 0
        for i in range(256):
            j = (j + s[i] + key[i % len(key)]) % 256
            s[i], s[j] = s[j], s[i]
        self._s = s
        self._i = 0
        self._j = 0

    def process(self, data: bytes) -> bytes:
        s, i, j = self._s, self._i, self._j
        out = bytearray()
        for byte in data:
            i = (i + 1) % 256
            j = (j + s[i]) % 256
            s[i], s[j] = s[j], s[i]
            out.append(byte ^ s[(s[i] + s[j]) % 256])
        self._i, self._j = i, j
        return bytes(out)

    encrypt = process
    decrypt = process


# ---------------------------------------------------------------- Poly1305

_P1305 = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def reference_poly1305_mac(key: bytes, message: bytes) -> bytes:
    if len(key) != 32:
        raise ValueError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for i in range(0, len(message), 16):
        chunk = message[i : i + 16]
        n = int.from_bytes(chunk + b"\x01", "little")
        acc = ((acc + n) * r) % _P1305
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(16, "little")


# ------------------------------------------------------ ChaCha20-Poly1305


class ReferenceChaCha20Poly1305:
    """ChaCha20-Poly1305 AEAD per RFC 8439, on the reference primitives."""

    TAG_SIZE = 16
    NONCE_SIZE = 12
    KEY_SIZE = 32

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ValueError(f"key must be {self.KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def _poly_key(self, nonce: bytes) -> bytes:
        return reference_chacha20_block(self._key, 0, nonce)[:32]

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        def pad16(b: bytes) -> bytes:
            return b + bytes(-len(b) % 16)

        mac_data = (
            pad16(aad)
            + pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext))
        )
        return reference_poly1305_mac(self._poly_key(nonce), mac_data)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = ReferenceChaCha20(self._key, nonce, counter=1).encrypt(plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        if not _eq(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("Poly1305 tag mismatch")
        return ReferenceChaCha20(self._key, nonce, counter=1).decrypt(ciphertext)
