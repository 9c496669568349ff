"""Pure-Python cryptographic substrate for the Shadowsocks reproduction.

No third-party crypto libraries are used; everything is implemented from
the specs (FIPS 197, SP 800-38D, RFC 8439, RFC 5869) and validated against
published test vectors.
"""

from .aead import AESGCM, AuthenticationError, ChaCha20Poly1305, new_aead
from .aes import AES
from .chacha20 import ChaCha20, chacha20_block
from .kdf import derive_subkey, evp_bytes_to_key, hkdf_sha1
from .modes import CFBMode, CTRMode
from .poly1305 import poly1305_mac
from .registry import CIPHERS, CipherKind, CipherSpec, get_spec
from .stream import RC4, ChaCha20DJB, new_stream_cipher, stream_key

__all__ = [
    "AES",
    "AESGCM",
    "AuthenticationError",
    "CFBMode",
    "CIPHERS",
    "CTRMode",
    "ChaCha20",
    "ChaCha20DJB",
    "ChaCha20Poly1305",
    "CipherKind",
    "CipherSpec",
    "RC4",
    "chacha20_block",
    "derive_subkey",
    "evp_bytes_to_key",
    "get_spec",
    "hkdf_sha1",
    "new_aead",
    "new_stream_cipher",
    "poly1305_mac",
    "stream_key",
]
