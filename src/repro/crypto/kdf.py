"""Key derivation used by Shadowsocks.

* ``evp_bytes_to_key`` — OpenSSL's legacy MD5-based derivation; turns the
  shared password into the master key for both constructions.
* ``hkdf_sha1`` — RFC 5869 HKDF with SHA-1; the AEAD construction derives a
  per-session subkey from (master key, salt, "ss-subkey").
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache

__all__ = ["evp_bytes_to_key", "hkdf_sha1", "SS_SUBKEY_INFO", "derive_subkey"]

SS_SUBKEY_INFO = b"ss-subkey"


def evp_bytes_to_key(password: bytes, key_len: int) -> bytes:
    """OpenSSL EVP_BytesToKey with MD5, no salt, 1 iteration (as Shadowsocks)."""
    if key_len <= 0:
        raise ValueError("key_len must be positive")
    derived = b""
    prev = b""
    while len(derived) < key_len:
        prev = hashlib.md5(prev + password).digest()
        derived += prev
    return derived[:key_len]


@lru_cache(maxsize=1024)
def hkdf_sha1(key: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 HKDF-Extract + HKDF-Expand with SHA-1.

    Memoized: the Shadowsocks AEAD construction derives the same
    (master key, salt) session subkey on the encryptor and the decryptor
    of every direction, so in-process each derivation repeats at least
    once.  Pure function; the cache only skips recomputation.
    """
    if length <= 0 or length > 255 * 20:
        raise ValueError(f"invalid HKDF output length {length}")
    prk = hmac.digest(salt if salt else bytes(20), key, "sha1")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha1")
        okm += block
        counter += 1
    return okm[:length]


def derive_subkey(master_key: bytes, salt: bytes) -> bytes:
    """Shadowsocks AEAD session subkey: HKDF-SHA1(master, salt, "ss-subkey")."""
    return hkdf_sha1(master_key, salt, SS_SUBKEY_INFO, len(master_key))
