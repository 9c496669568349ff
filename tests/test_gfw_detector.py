"""Passive detector: entropy and length features (§4.2)."""

import random

import pytest

from repro.gfw import DetectorConfig, PassiveDetector, shannon_entropy
from repro.workloads import payload_with_entropy, random_payload


def test_entropy_empty():
    assert shannon_entropy(b"") == 0.0


def test_entropy_constant():
    assert shannon_entropy(b"\x00" * 100) == 0.0


def test_entropy_two_symbols():
    assert shannon_entropy(b"ab" * 500) == pytest.approx(1.0)


def test_entropy_uniform_random_near_8():
    rng = random.Random(7)
    data = random_payload(65536, rng)
    assert shannon_entropy(data) > 7.95


def test_entropy_accepts_any_bytes_like():
    from repro.gfw import entropy

    buffer = random_payload(1000, random.Random(9))
    data = buffer[10:910]
    values = []
    for form in (data, bytearray(data), memoryview(buffer)[10:910]):
        entropy._ENTROPY_CACHE.clear()     # each form computes its own value
        values.append(shannon_entropy(form))
    assert values[0] == values[1] == values[2]
    assert shannon_entropy(bytearray()) == shannon_entropy(memoryview(b"")) == 0.0
    # Only immutable bytes are kept as memo keys, never a caller's buffer.
    assert all(type(key) is bytes for key in entropy._ENTROPY_CACHE)


def test_entropy_targeted_payloads():
    rng = random.Random(8)
    for target in (1.0, 2.0, 3.0, 5.0, 7.0):
        payload = payload_with_entropy(8000, target, rng)
        assert shannon_entropy(payload) == pytest.approx(target, abs=0.15)


def test_detector_prefers_core_lengths():
    det = PassiveDetector()
    # 450 has remainder 2 -> the favoured remainder in band3.
    assert det.length_weight(450) > det.length_weight(50)
    assert det.length_weight(450) > det.length_weight(1500)


def test_detector_remainder_9_favoured_in_band1():
    det = PassiveDetector()
    # 169 % 16 == 9; 170 % 16 == 10.
    assert det.length_weight(169) > 10 * det.length_weight(170)


def test_detector_remainder_2_favoured_in_band3():
    det = PassiveDetector()
    # 402 % 16 == 2; 403 % 16 == 3.
    assert det.length_weight(402) > 50 * det.length_weight(403)


def test_detector_band2_mixes_remainders():
    det = PassiveDetector()
    w9 = det.length_weight(265)   # 265 % 16 == 9
    w2 = det.length_weight(274)   # 274 % 16 == 2
    w_other = det.length_weight(276)
    assert w9 > w_other and w2 > w_other
    assert 0.5 < w2 / w9 < 1.0


def test_detector_entropy_ramp_factor_four():
    """Entropy 7.2 is ~4x as likely to be flagged as entropy 3.0 (Fig 9)."""
    det = PassiveDetector()
    ratio = det.entropy_weight(7.2) / det.entropy_weight(3.0)
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_detector_low_entropy_still_possible():
    det = PassiveDetector()
    assert det.entropy_weight(0.5) > 0.0


def test_detector_flag_probability_monotone_in_entropy():
    det = PassiveDetector()
    rng = random.Random(9)
    # 450 % 16 == 2: a favoured length, isolating the entropy factor.
    low = payload_with_entropy(450, 2.0, rng)
    high = random_payload(450, rng)
    assert det.flag_probability(high) > det.flag_probability(low)


def test_detector_empty_payload_never_flagged():
    assert PassiveDetector().flag_probability(b"") == 0.0


def test_detector_ablation_knobs():
    no_len = PassiveDetector(DetectorConfig(length_filter=False))
    assert no_len.length_weight(3) == 1.0
    no_ent = PassiveDetector(DetectorConfig(entropy_filter=False))
    assert no_ent.entropy_weight(0.1) == 1.0


def test_inspect_sampling_rate():
    """Flag rate over many samples matches flag_probability."""
    det = PassiveDetector(DetectorConfig(base_rate=0.5))
    rng = random.Random(10)
    payload = random_payload(450, rng)
    p = det.flag_probability(payload)
    hits = sum(det.inspect(payload, rng) for _ in range(4000))
    assert hits / 4000 == pytest.approx(p, rel=0.15)


def test_band_fields_are_real_dataclass_fields():
    import dataclasses

    names = {f.name for f in dataclasses.fields(DetectorConfig)}
    assert {"band1", "band2", "band3"} <= names
    # Per-instance, not shared class attributes.
    a = DetectorConfig()
    b = DetectorConfig(band1=(100, 120))
    assert a.band1 == (168, 263)
    assert b.band1 == (100, 120)


def test_overriding_bands_changes_flag_probability():
    rng = random.Random(0)
    payload = random_payload(600, rng)  # remainder 8, inside default band3
    base = PassiveDetector(DetectorConfig(base_rate=1.0))
    moved = PassiveDetector(DetectorConfig(base_rate=1.0, band3=(384, 500)))
    # 600 leaves band3: the off-remainder penalty (0.0028) becomes the
    # out-of-band default weight (0.4).
    assert moved.flag_probability(payload) > base.flag_probability(payload)
    assert base.flag_probability(payload) == pytest.approx(
        PassiveDetector(DetectorConfig(base_rate=1.0)).flag_probability(payload))
