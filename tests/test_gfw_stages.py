"""Detector stages: registry, spec round-trips, ensembles, determinism."""

import random

import pytest

from repro.gfw import DetectorConfig, PassiveDetector
from repro.gfw.stages import (
    VMESS_MIN_FIRST,
    DetectorContext,
    PassiveStage,
    build_stage,
    stage_kinds,
    training_corpus,
)


def ctx(payload, seed=0):
    return DetectorContext(payload, rng=random.Random(seed))


def corpus(n=60, seed=3):
    positives, negatives = training_corpus(seed=seed, samples=n // 2)
    return positives + negatives


# ---------------------------------------------------------------- registry


def test_registry_has_all_builtin_kinds():
    kinds = stage_kinds()
    for kind in ("passive", "entropy", "length-dist", "vmess",
                 "any", "all", "weighted"):
        assert kind in kinds


def test_build_stage_accepts_bare_kind_and_mapping():
    assert build_stage("entropy").kind == "entropy"
    assert build_stage({"kind": "entropy", "threshold": 7.5}).kind == "entropy"


def test_build_stage_rejects_bad_specs():
    with pytest.raises(KeyError):
        build_stage("no-such-detector")
    with pytest.raises(ValueError):
        build_stage({"threshold": 7.0})
    with pytest.raises(TypeError):
        build_stage(42)


def test_spec_round_trip_rebuilds_identical_stage():
    specs = [
        {"kind": "passive", "base_rate": 1.0},
        {"kind": "entropy", "threshold": 7.3, "min_length": 32},
        {"kind": "vmess", "entropy_min": 7.1},
        {"kind": "length-dist", "train_samples": 60},
        {"kind": "any", "members": ["entropy", "vmess"]},
        {"kind": "weighted", "members": ["entropy", "vmess"],
         "weights": [0.7, 0.3], "threshold": 0.4},
    ]
    for spec in specs:
        stage = build_stage(spec)
        rebuilt = build_stage(stage.spec())
        assert rebuilt.spec() == stage.spec()
        for payload in corpus(20):
            a = stage.evaluate(ctx(payload, seed=9))
            b = rebuilt.evaluate(ctx(payload, seed=9))
            assert (a.flagged, a.score, a.stage) == (b.flagged, b.score, b.stage)


# ------------------------------------------------------------ passive stage


def test_passive_stage_matches_detector_with_shared_rng():
    config = DetectorConfig(base_rate=0.7)
    stage = PassiveStage(detector=PassiveDetector(config))
    reference = PassiveDetector(config)
    rng_a, rng_b = random.Random(11), random.Random(11)
    for payload in corpus():
        result = stage.evaluate(DetectorContext(payload, rng=rng_a))
        probability = reference.flag_probability(payload)
        assert result.score == probability
        assert result.flagged == (rng_b.random() < probability)


def test_passive_stage_rejects_detector_plus_config():
    with pytest.raises(ValueError):
        PassiveStage(detector=PassiveDetector(), base_rate=1.0)


def test_rng_draw_contract():
    # Passive draws exactly one random() per evaluation; the
    # deterministic stages draw none.  This is the contract that keeps
    # default runs byte-identical and ensembles reorderable.
    draws = {
        "passive": 1,
        "entropy": 0,
        "vmess": 0,
        "length-dist": 0,
    }
    payload = corpus(4)[0]
    for kind, expected in draws.items():
        spec = ({"kind": "length-dist", "train_samples": 40}
                if kind == "length-dist" else kind)
        stage = build_stage(spec)

        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        stage.evaluate(DetectorContext(payload, rng=CountingRandom(0)))
        assert CountingRandom.calls == expected, kind


def test_ensemble_rng_consumption_outcome_independent():
    # Every member always evaluates — a flagged first member must not
    # short-circuit the passive member's RNG draw.
    spec = {"kind": "any",
            "members": [{"kind": "entropy", "threshold": 0.0},
                        {"kind": "passive", "base_rate": 1.0}]}
    stage = build_stage(spec)
    rng = random.Random(5)
    stage.evaluate(DetectorContext(b"\x00" * 200, rng=rng))
    # One draw consumed (the passive member), despite entropy flagging.
    assert rng.getstate() == _advance(random.Random(5), 1).getstate()


def _advance(rng, draws):
    for _ in range(draws):
        rng.random()
    return rng


# ---------------------------------------------------------------- ensembles


def _flag(spec, payload):
    return build_stage(spec).evaluate(ctx(payload)).flagged


def test_any_all_semantics():
    hot = {"kind": "entropy", "threshold": 0.0, "min_length": 0}
    cold = {"kind": "entropy", "threshold": 8.5}
    payload = bytes(range(256))
    assert _flag({"kind": "any", "members": [hot, cold]}, payload)
    assert not _flag({"kind": "all", "members": [hot, cold]}, payload)
    assert _flag({"kind": "all", "members": [hot, hot]}, payload)
    assert not _flag({"kind": "any", "members": [cold, cold]}, payload)


def test_weighted_combines_scores():
    # Entropy score is entropy/8; bytes(range(256)) has entropy 8.0.
    payload = bytes(range(256))
    member = {"kind": "entropy", "threshold": 0.0, "min_length": 0}
    flag_spec = {"kind": "weighted", "members": [member, member],
                 "weights": [0.5, 0.5], "threshold": 1.0}
    result = build_stage(flag_spec).evaluate(ctx(payload))
    assert result.flagged
    assert result.score == pytest.approx(1.0)
    strict = dict(flag_spec, threshold=1.01)
    assert not build_stage(strict).evaluate(ctx(payload)).flagged


def test_ensemble_validation():
    with pytest.raises(ValueError):
        build_stage({"kind": "any", "members": []})
    with pytest.raises(ValueError):
        build_stage({"kind": "weighted", "members": ["entropy", "vmess"],
                     "weights": [1.0]})


# ------------------------------------------------------------------- vmess


def test_vmess_stage_length_geometry():
    stage = build_stage("vmess")
    # Header + coalesced data: long enough for empirical entropy ~8.
    high_entropy = random.Random(1).randbytes(512)
    assert stage.evaluate(ctx(high_entropy)).flagged
    too_short = high_entropy[:VMESS_MIN_FIRST - 1]
    assert not stage.evaluate(ctx(too_short)).flagged
    low_entropy = b"A" * 200
    assert not stage.evaluate(ctx(low_entropy)).flagged
    bounded = build_stage({"kind": "vmess", "max_length": 100})
    long_payload = random.Random(2).randbytes(400)
    assert not bounded.evaluate(ctx(long_payload)).flagged


# ------------------------------------------------------------------- batch


def test_evaluate_batch_equals_sequential():
    specs = [
        {"kind": "passive", "base_rate": 0.8},
        "entropy",
        {"kind": "weighted", "members": ["entropy", "vmess",
                                         {"kind": "passive", "base_rate": 1.0}],
         "threshold": 0.6},
    ]
    payloads = corpus(40)
    for spec in specs:
        stage = build_stage(spec)
        rng_seq, rng_batch = random.Random(77), random.Random(77)
        sequential = [stage.evaluate(DetectorContext(p, rng=rng_seq))
                      for p in payloads]
        batched = stage.evaluate_batch(
            [DetectorContext(p, rng=rng_batch) for p in payloads])
        assert batched == sequential


# ----------------------------------------------------------------- context


def test_context_entropy_memoized():
    c = ctx(bytes(range(256)))
    assert c.entropy == pytest.approx(8.0)
    c.payload = b""        # mutate after the fact: cached value persists
    assert c.entropy == pytest.approx(8.0)


def test_context_rng_is_the_callers_or_a_lazy_seed_zero_stream():
    rng = random.Random(9)
    assert DetectorContext(b"x", rng=rng).rng is rng
    c = DetectorContext(b"x")
    assert c.rng is c.rng
    assert c.rng.random() == random.Random(0).random()


def test_training_corpus_deterministic():
    a = training_corpus(seed=5, samples=16)
    b = training_corpus(seed=5, samples=16)
    assert a == b
    c = training_corpus(seed=6, samples=16)
    assert a != c
