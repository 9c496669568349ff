"""Cipher registry: every Shadowsocks encryption method this repo models.

A :class:`CipherSpec` records the protocol-relevant parameters — key length
and, crucially for the GFW's probes, the IV length (stream construction) or
salt length (AEAD construction).  The paper groups server reactions by
exactly these lengths (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["CipherKind", "CipherSpec", "CIPHERS", "get_spec"]


class CipherKind:
    STREAM = "stream"
    AEAD = "aead"


@dataclass(frozen=True)
class CipherSpec:
    """Static parameters of one encryption method."""

    name: str
    kind: str  # CipherKind.STREAM or CipherKind.AEAD
    key_len: int
    iv_len: int  # IV length (stream) or salt length (AEAD), in bytes

    @property
    def salt_len(self) -> int:
        """Alias for :attr:`iv_len` when talking about AEAD methods."""
        return self.iv_len


_ALL_SPECS: List[CipherSpec] = [
    # Stream construction (deprecated).  IV lengths 8 / 12 / 16 — the three
    # rows of Figure 10a.
    CipherSpec("chacha20", CipherKind.STREAM, 32, 8),
    CipherSpec("chacha20-ietf", CipherKind.STREAM, 32, 12),
    CipherSpec("aes-128-ctr", CipherKind.STREAM, 16, 16),
    CipherSpec("aes-192-ctr", CipherKind.STREAM, 24, 16),
    CipherSpec("aes-256-ctr", CipherKind.STREAM, 32, 16),
    CipherSpec("aes-128-cfb", CipherKind.STREAM, 16, 16),
    CipherSpec("aes-192-cfb", CipherKind.STREAM, 24, 16),
    CipherSpec("aes-256-cfb", CipherKind.STREAM, 32, 16),
    CipherSpec("rc4-md5", CipherKind.STREAM, 16, 16),
    # AEAD construction.  Salt lengths 16 / 24 / 32 — the rows of Figure 10b.
    CipherSpec("aes-128-gcm", CipherKind.AEAD, 16, 16),
    CipherSpec("aes-192-gcm", CipherKind.AEAD, 24, 24),
    CipherSpec("aes-256-gcm", CipherKind.AEAD, 32, 32),
    CipherSpec("chacha20-ietf-poly1305", CipherKind.AEAD, 32, 32),
]

CIPHERS: Dict[str, CipherSpec] = {spec.name: spec for spec in _ALL_SPECS}


def get_spec(name: str) -> CipherSpec:
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher method: {name!r}") from None

