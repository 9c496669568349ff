"""Property-based tests over the Shadowsocks wire formats and parsers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import AuthenticationError
from repro.shadowsocks import (
    INVALID,
    NEED_MORE,
    AeadDecryptor,
    AeadEncryptor,
    BloomFilter,
    PingPongBloom,
    StreamDecryptor,
    StreamEncryptor,
    encode_target,
    parse_target,
)

hostnames = st.from_regex(r"[a-z][a-z0-9\-]{0,60}(\.[a-z]{2,6}){1,2}",
                          fullmatch=True)
ports = st.integers(min_value=0, max_value=65535)
ipv4s = st.tuples(*([st.integers(0, 255)] * 4)).map(
    lambda t: ".".join(map(str, t)))


@given(host=hostnames, port=ports)
@settings(max_examples=80, deadline=None)
def test_spec_roundtrip_hostname(host, port):
    result = parse_target(encode_target(host, port))
    assert result.ok
    assert result.spec.host == host
    assert result.spec.port == port


@given(host=ipv4s, port=ports)
@settings(max_examples=80, deadline=None)
def test_spec_roundtrip_ipv4(host, port):
    result = parse_target(encode_target(host, port))
    assert result.ok
    assert result.spec.host == host and result.spec.port == port


@given(data=st.binary(max_size=64), mask=st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_never_crashes_and_is_sane(data, mask):
    result = parse_target(data, mask_atyp=mask)
    assert result.status in ("ok", NEED_MORE, INVALID)
    if result.ok:
        assert 0 < result.consumed <= len(data)
        assert 0 <= result.spec.port <= 65535


@given(data=st.binary(min_size=1, max_size=40), suffix=st.binary(max_size=20))
@settings(max_examples=100, deadline=None)
def test_parse_ok_stable_under_extension(data, suffix):
    """Once a spec parses, appending bytes cannot change what was parsed."""
    first = parse_target(data)
    if first.ok:
        second = parse_target(data + suffix)
        assert second.ok
        assert second.spec == first.spec
        assert second.consumed == first.consumed


@given(method=st.sampled_from(["aes-128-ctr", "aes-256-cfb", "chacha20",
                               "chacha20-ietf", "rc4-md5"]),
       key_seed=st.integers(0, 2**32 - 1),
       messages=st.lists(st.binary(min_size=0, max_size=100), min_size=1,
                         max_size=5))
@settings(max_examples=40, deadline=None)
def test_stream_session_roundtrip(method, key_seed, messages):
    from repro.crypto import get_spec

    rng = random.Random(key_seed)
    key = bytes(rng.randrange(256) for _ in range(get_spec(method).key_len))
    enc = StreamEncryptor(method, key, rng=rng)
    dec = StreamDecryptor(method, key)
    wire = b"".join(enc.encrypt(m) for m in messages)
    assert dec.decrypt(wire) == b"".join(messages)


@given(method=st.sampled_from(["aes-128-gcm", "aes-256-gcm",
                               "chacha20-ietf-poly1305"]),
       key_seed=st.integers(0, 2**32 - 1),
       messages=st.lists(st.binary(min_size=0, max_size=100), min_size=1,
                         max_size=4),
       chunk=st.integers(min_value=1, max_value=37))
@settings(max_examples=30, deadline=None)
def test_aead_session_roundtrip_any_chunking(method, key_seed, messages, chunk):
    from repro.crypto import get_spec

    rng = random.Random(key_seed)
    key = bytes(rng.randrange(256) for _ in range(get_spec(method).key_len))
    enc = AeadEncryptor(method, key, rng=rng)
    dec = AeadDecryptor(method, key)
    wire = b"".join(enc.encrypt(m) for m in messages)
    plain = bytearray()
    for i in range(0, len(wire), chunk):
        plain.extend(dec.decrypt(wire[i : i + chunk]))
    assert bytes(plain) == b"".join(messages)


@given(key_seed=st.integers(0, 2**32 - 1),
       payload=st.binary(min_size=1, max_size=80),
       flip=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_aead_session_tamper_detected(key_seed, payload, flip):
    rng = random.Random(key_seed)
    key = bytes(rng.randrange(256) for _ in range(32))
    enc = AeadEncryptor("aes-256-gcm", key, rng=rng)
    wire = bytearray(enc.encrypt(payload))
    wire[flip % len(wire)] ^= 1 << (flip % 8)
    dec = AeadDecryptor("aes-256-gcm", key)
    if (flip % len(wire)) < 32:
        # Salt flipped: derives a different subkey -> auth failure.
        with pytest.raises(AuthenticationError):
            dec.decrypt(bytes(wire))
    else:
        with pytest.raises(AuthenticationError):
            dec.decrypt(bytes(wire))


@given(items=st.lists(st.binary(min_size=1, max_size=32), min_size=1,
                      max_size=200, unique=True))
@settings(max_examples=30, deadline=None)
def test_bloom_no_false_negatives(items):
    bloom = PingPongBloom(capacity=1000)
    for item in items:
        bloom.check_and_add(item)
    assert all(item in bloom for item in items)


@given(items=st.lists(st.binary(min_size=1, max_size=8), max_size=80))
@settings(max_examples=40, deadline=None)
def test_bloom_check_and_add_matches_two_pass(items):
    """Hashing once per item sets the same bits and gives the same
    verdicts as a lookup in each filter followed by ``add``, across
    filter swaps (capacity 7)."""
    fast = PingPongBloom(capacity=7, bits=512, hashes=6)
    active, standby = BloomFilter(512, 6), None
    for item in items:
        seen = item in active or (standby is not None and item in standby)
        if not seen:
            active.add(item)
            if active.count >= 7:
                standby, active = active, BloomFilter(512, 6)
        assert fast.check_and_add(item) == seen
    assert fast._active._array == active._array
    assert (fast._standby is None) == (standby is None)
    if standby is not None:
        assert fast._standby._array == standby._array
