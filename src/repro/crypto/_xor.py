"""Whole-buffer XOR, the last step of every stream cipher and AEAD here."""

from __future__ import annotations


def xor_bytes(a, b) -> bytes:
    """XOR two equal-length byte strings, as two big ints."""
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
