"""``shannon_entropy`` is bit-identical to the textbook oracle.

The detector's entropy memoizes whole payloads and keeps its
``p * log2(p)`` terms in one table per payload length.  Whatever those
memos hold, it must return exactly (``==``, not ``approx``) the float
that ``tests/entropy_reference.py`` computes from scratch, and the
term memo must never store more than its cap.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfw import entropy
from repro.gfw.entropy import shannon_entropy

from ..entropy_reference import reference_entropy


def _clear_memos() -> None:
    entropy._ENTROPY_CACHE.clear()
    entropy._TERMS.clear()
    entropy._terms_stored = 0


def _stored_terms() -> int:
    stored = sum(len(terms) for terms in entropy._TERMS.values())
    assert stored == entropy._terms_stored
    assert stored <= entropy._TERMS_MAX
    return stored


def _payload(length: int, alphabet: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.choices(range(alphabet), k=length))


@given(data=st.binary(max_size=2000))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_match_the_oracle(data):
    assert shannon_entropy(data) == reference_entropy(data)
    _stored_terms()


@given(length=st.integers(1, 2000),
       shapes=st.lists(st.tuples(st.integers(1, 256), st.integers(0, 2**32)),
                       min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batches_of_one_length_reuse_terms_exactly(length, shapes):
    _clear_memos()
    for alphabet, seed in shapes:
        data = _payload(length, alphabet, seed)
        assert shannon_entropy(data) == reference_entropy(data)
    # Every term of the batch sits in the one table for its length.
    assert set(entropy._TERMS) == {length}
    _stored_terms()


@given(data=st.lists(st.binary(min_size=1, max_size=2000), max_size=3))
@settings(max_examples=100, deadline=None)
def test_cold_warm_and_term_only_memos_agree(data):
    for payload in data:
        expected = reference_entropy(payload)
        _clear_memos()
        assert shannon_entropy(payload) == expected      # both memos cold
        assert shannon_entropy(payload) == expected      # payload memo hit
        entropy._ENTROPY_CACHE.clear()
        assert shannon_entropy(payload) == expected      # every term a hit
        _stored_terms()


@given(data=st.lists(st.binary(max_size=2000), max_size=3),
       cap=st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_overflowing_a_small_cap_mid_payload_stays_exact(data, cap):
    _clear_memos()
    with mock.patch.object(entropy, "_TERMS_MAX", cap):
        for payload in data:
            entropy._ENTROPY_CACHE.clear()
            assert shannon_entropy(payload) == reference_entropy(payload)
            assert _stored_terms() <= cap
    _clear_memos()


def test_term_memo_never_passes_its_cap():
    # Payload i holds byte value v (v < 255) v + 1 times and value 255
    # 256 + i times: 256 distinct counts at a length no other payload
    # has, so 257 payloads offer 65,792 new (length, count) terms.
    _clear_memos()
    head = b"".join(bytes([v]) * (v + 1) for v in range(255))
    offered = 0
    for i in range(257):
        data = head + b"\xff" * (256 + i)
        assert shannon_entropy(data) == reference_entropy(data)
        offered += 256
        assert _stored_terms() <= entropy._TERMS_MAX
    assert offered > entropy._TERMS_MAX
    # The memo was cleared once, just before the last payload's first
    # term, and then held that payload's terms only.
    assert _stored_terms() == 256
    assert list(entropy._TERMS) == [len(data)]
    _clear_memos()
