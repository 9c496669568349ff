"""Streaming cipher modes over a block cipher: CTR and CFB.

These are the modes used by the Shadowsocks "stream cipher" construction
(e.g. ``aes-128-ctr``, ``aes-256-cfb``).  Both are incremental: a mode
object carries keystream state across ``process`` calls, mirroring how a
Shadowsocks session encrypts a long TCP stream.

CTR is a :class:`~._xor.KeystreamCursor`, like both ChaCha20 variants:
it supplies counter-mode blocks and the cursor batches, buffers and
XORs them.  CFB works block-at-a-time; encryption is inherently
sequential (each keystream block is the cipher of the *previous
ciphertext block*), but decryption knows all its register values up
front — they are the ciphertext blocks themselves — so it encrypts
them, with the block a partial tail needs, as one batch.

Both modes take the key as bytes or as an expanded :class:`AES`: a key
owner that opens many sessions under one key (a Shadowsocks server or
client and its master key) expands it once and hands every session the
same schedule.
"""

from __future__ import annotations

from typing import Union

from ._xor import KeystreamCursor, xor_bytes
from .aes import AES, BLOCK_SIZE

__all__ = ["CTRMode", "CFBMode"]


def _block_cipher(key: Union[bytes, AES]) -> AES:
    return key if isinstance(key, AES) else AES(key)


class CTRMode(KeystreamCursor):
    """AES-CTR with a big-endian full-block counter (OpenSSL semantics).

    Encryption and decryption are the same operation.
    """

    _BLOCK = BLOCK_SIZE

    def __init__(self, key: Union[bytes, AES], iv: bytes):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CTR IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        super().__init__(int.from_bytes(iv, "big"))
        self._cipher = _block_cipher(key)

    def _blocks(self, counter: int, nblocks: int) -> bytes:
        return self._cipher.keystream(counter % (1 << 128), nblocks)


class CFBMode:
    """AES-CFB128 (full-block feedback), incremental, OpenSSL semantics."""

    def __init__(self, key: Union[bytes, AES], iv: bytes, encrypt: bool):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CFB IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        self._cipher = _block_cipher(key)
        self._register = iv
        self._encrypting = encrypt
        self._pending = b""  # keystream bytes not yet consumed from current block
        self._feedback = b""  # ciphertext bytes accumulated toward next register

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        out = bytearray()
        pos = 0

        # Head: drain keystream left over from a partially consumed block.
        if self._pending:
            take = min(len(self._pending), n)
            ks = self._pending[:take]
            piece = (int.from_bytes(data[:take], "big")
                     ^ int.from_bytes(ks, "big")).to_bytes(take, "big")
            out += piece
            self._feedback += piece if self._encrypting else data[:take]
            self._pending = self._pending[take:]
            if len(self._feedback) == BLOCK_SIZE:
                self._register = self._feedback
            pos = take
            if pos == n:
                return bytes(out)

        # Aligned now: the register holds the last 16 ciphertext bytes.
        self._feedback = b""
        reg = self._register
        end = pos + BLOCK_SIZE * ((n - pos) // BLOCK_SIZE)
        if self._encrypting:
            # Sequential: keystream block i is E(ciphertext block i-1).
            # Work on the register as a 128-bit int to avoid a bytes
            # round-trip per block.
            if end > pos:
                encrypt_words = self._cipher._encrypt_words
                r = int.from_bytes(reg, "big")
                for i in range(pos, end, BLOCK_SIZE):
                    e0, e1, e2, e3 = encrypt_words(
                        r >> 96, (r >> 64) & 0xFFFFFFFF,
                        (r >> 32) & 0xFFFFFFFF, r & 0xFFFFFFFF)
                    r = ((e0 << 96) | (e1 << 64) | (e2 << 32) | e3) \
                        ^ int.from_bytes(data[i : i + BLOCK_SIZE], "big")
                    out += r.to_bytes(BLOCK_SIZE, "big")
                reg = bytes(out[-BLOCK_SIZE:])
            tail_ks = self._cipher.encrypt_block(reg) if end < n else b""
        else:
            # Every register value is a known ciphertext block, the
            # partial tail's too: one batch.
            last = end if end < n else end - BLOCK_SIZE
            ks = self._cipher.encrypt_blocks(reg + data[pos:last])
            out += xor_bytes(data[pos:end], ks[: end - pos])
            tail_ks = bytes(ks[end - pos :])
            if end > pos:
                reg = data[end - BLOCK_SIZE : end]

        # Tail: start a partial block.
        if end < n:
            take = n - end
            piece = (int.from_bytes(data[end:], "big")
                     ^ int.from_bytes(tail_ks[:take], "big")).to_bytes(take, "big")
            out += piece
            self._pending = tail_ks[take:]
            self._feedback = piece if self._encrypting else data[end:]
        else:
            self._pending = b""
        self._register = reg
        return bytes(out)

    encrypt = process
    decrypt = process
