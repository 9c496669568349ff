"""Streaming cipher modes over a block cipher: CTR and CFB.

These are the modes used by the Shadowsocks "stream cipher" construction
(e.g. ``aes-128-ctr``, ``aes-256-cfb``).  Both are incremental: a mode
object carries keystream state across ``process`` calls, mirroring how a
Shadowsocks session encrypts a long TCP stream.

CTR generates keystream in batched blocks into a ``bytearray`` consumed
by cursor (the old ``+=`` on an immutable ``bytes`` was quadratic in a
single large call) and XORs whole buffers at once.  CFB works
block-at-a-time; encryption is inherently sequential (each keystream
block is the cipher of the *previous ciphertext block*), but decryption
knows all its register values up front — they are the ciphertext blocks
themselves — so it encrypts them as one batch.
"""

from __future__ import annotations

from ._xor import xor_bytes
from .aes import AES, BLOCK_SIZE

__all__ = ["CTRMode", "CFBMode"]


class CTRMode:
    """AES-CTR with a big-endian full-block counter (OpenSSL semantics).

    Encryption and decryption are the same operation.
    """

    def __init__(self, key: bytes, iv: bytes):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CTR IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        self._cipher = AES(key)
        self._counter = int.from_bytes(iv, "big")
        self._ks = bytearray()
        self._pos = 0

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        if len(self._ks) - self._pos < n:
            need = n - (len(self._ks) - self._pos)
            nblocks = (need + BLOCK_SIZE - 1) // BLOCK_SIZE
            fresh = self._cipher.keystream(self._counter, nblocks)
            self._counter = (self._counter + nblocks) % (1 << 128)
            if self._pos:
                del self._ks[: self._pos]
                self._pos = 0
            self._ks += fresh
        ks = memoryview(self._ks)[self._pos : self._pos + n]
        out = xor_bytes(data, ks)
        ks.release()
        self._pos += n
        if self._pos == len(self._ks):
            self._ks.clear()
            self._pos = 0
        return out

    encrypt = process
    decrypt = process


class CFBMode:
    """AES-CFB128 (full-block feedback), incremental, OpenSSL semantics."""

    def __init__(self, key: bytes, iv: bytes, encrypt: bool):
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"CFB IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
        self._cipher = AES(key)
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
        enc = self._cipher.encrypt_block
        reg = self._register
        nfull = (n - pos) // BLOCK_SIZE
        if nfull:
            end = pos + BLOCK_SIZE * nfull
            if self._encrypting:
                # Sequential: keystream block i is E(ciphertext block i-1).
                # Work on the register as a 128-bit int to avoid a
                # bytes round-trip per block.
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
            else:
                # All register values are known ciphertext blocks: batch.
                regs = reg + data[pos : end - BLOCK_SIZE]
                ks = self._cipher.encrypt_blocks(regs)
                out += xor_bytes(data[pos:end], ks)
                reg = data[end - BLOCK_SIZE : end]
            pos = end

        # Tail: start a partial block.
        if pos < n:
            full_ks = enc(reg)
            take = n - pos
            piece = (int.from_bytes(data[pos:], "big")
                     ^ int.from_bytes(full_ks[:take], "big")).to_bytes(take, "big")
            out += piece
            self._pending = full_ks[take:]
            self._feedback = piece if self._encrypting else data[pos:]
        else:
            self._pending = b""
        self._register = reg
        return bytes(out)

    encrypt = process
    decrypt = process
