"""Analysis layer: classification, fingerprinting, stats, overlap."""

import random

import pytest

from repro.analysis import (
    ECDF,
    PAPER_FIG4_REGIONS,
    classify_payload,
    cluster_tsval_sequences,
    ip_id_statistics,
    port_statistics,
    probes_per_ip,
    render_histogram,
    render_table,
    synthesize_historical_sets,
    tally,
    top_n,
    ttl_statistics,
    venn3,
)
from repro.analysis import classify as classify_module
from repro.gfw import ProbeForge, ProbeType

LEGIT = [bytes(range(100, 200)), bytes(range(50, 120))]


def test_classify_identical():
    probe_type, matched = classify_payload(LEGIT[0], LEGIT)
    assert probe_type == ProbeType.R1 and matched == LEGIT[0]


@pytest.mark.parametrize("ptype", [ProbeType.R2, ProbeType.R3, ProbeType.R4,
                                   ProbeType.R5, ProbeType.R6])
def test_classify_byte_changed(ptype):
    forge = ProbeForge(random.Random(1))
    probe = forge.replay(LEGIT[0], ptype)
    got, matched = classify_payload(probe.payload, LEGIT)
    assert got == ptype and matched == LEGIT[0]


def test_classify_nr_lengths():
    rng = random.Random(2)
    assert classify_payload(bytes(rng.randrange(256) for _ in range(221)), LEGIT)[0] == ProbeType.NR2
    assert classify_payload(bytes(rng.randrange(256) for _ in range(12)), LEGIT)[0] == ProbeType.NR1
    assert classify_payload(bytes(rng.randrange(256) for _ in range(53)), LEGIT)[0] == ProbeType.NR3


def test_classify_unknown():
    assert classify_payload(bytes(500), LEGIT)[0] == "UNKNOWN"


def test_classify_r2_not_confused_with_r3():
    """A diff only at byte 0 must be R2, even though R3's set includes 0."""
    payload = bytearray(LEGIT[0])
    payload[0] ^= 0xFF
    assert classify_payload(bytes(payload), LEGIT)[0] == ProbeType.R2


def _classify_by_full_diff(payload, legit):
    """The classifier without the tail check: diff every candidate of
    the probe's length in full."""
    for candidate in legit:
        if len(candidate) != len(payload):
            continue
        if candidate == payload:
            return ProbeType.R1, candidate
        diff = {i for i, (a, b) in enumerate(zip(payload, candidate)) if a != b}
        for probe_type, signature in classify_module._SIGNATURES:
            if diff <= {off for off in signature if off < len(payload)}:
                return probe_type, candidate
    return classify_payload(payload, [])


def test_classify_skips_candidates_by_tail_without_changing_a_type():
    """Candidates that differ from the probe only past the signed bytes
    are skipped unseen; every type and match stays the full diff's."""
    rng = random.Random(5)
    legit = []
    for length in (40, 63, 64, 65, 100, 221):
        tail = bytes(rng.randrange(256) for _ in range(length))
        for _ in range(3):  # heads differ, tails shared
            head = bytes(rng.randrange(256) for _ in range(min(length, 64)))
            legit.append(head + tail[len(head):])
        legit.append(bytes(rng.randrange(256) for _ in range(length)))
    offsets = [{0}, {5}, {6, 16}, {16}, {20, 32}, {62, 63}, {63}, {64},
               {3, 70}, {99}]
    for candidate in legit:
        for changed in offsets:
            probe = bytearray(candidate)
            for off in changed:
                if off < len(probe):
                    probe[off] ^= 0x5A
            probe = bytes(probe)
            assert classify_payload(probe, legit) == _classify_by_full_diff(probe, legit)


# ----------------------------------------------------------- fingerprinting


def test_tsval_clustering_recovers_processes():
    rng = random.Random(3)
    truth = [(250.0, rng.randrange(1 << 32)) for _ in range(4)]
    truth.append((1009.0, rng.randrange(1 << 32)))
    points = []
    for rate, offset in truth:
        for _ in range(40):
            t = rng.uniform(0, 50000)
            points.append((t, int(offset + rate * t) % (1 << 32)))
    clusters = cluster_tsval_sequences(points)
    big = [c for c in clusters if c.size >= 10]
    assert len(big) == len(truth)
    rates = sorted(c.rate_hz for c in big)
    assert rates.count(250.0) == 4
    assert rates[-1] == 1009.0


def test_tsval_cluster_measured_rate():
    points = [(t, int(12345 + 250 * t)) for t in range(0, 1000, 10)]
    clusters = cluster_tsval_sequences(points)
    assert clusters[0].measured_rate() == pytest.approx(250.0, rel=0.01)


def test_tsval_clustering_survives_wraparound():
    start = (1 << 32) - 10000
    points = [(t, int(start + 250 * t) % (1 << 32)) for t in range(0, 200, 5)]
    clusters = cluster_tsval_sequences(points)
    assert clusters[0].size == len(points)
    assert clusters[0].measured_rate() == pytest.approx(250.0, rel=0.01)


def test_port_statistics():
    ports = [40000] * 90 + [2000] * 10
    stats = port_statistics(ports)
    assert stats["linux_range_share"] == pytest.approx(0.9)
    assert stats["below_1024"] == 0
    assert stats["min"] == 2000


def test_ttl_statistics():
    assert ttl_statistics([46, 50, 48]) == {"min": 46, "max": 50, "count": 3}


def test_ip_id_randomness():
    rng = random.Random(4)
    stats = ip_id_statistics([rng.randrange(1 << 16) for _ in range(2000)])
    assert stats["distinct_fraction"] > 0.95
    assert abs(stats["lag1_autocorr"]) < 0.1


# -------------------------------------------------------------------- stats


def test_ecdf():
    cdf = ECDF([1, 2, 3, 4])
    assert cdf(0) == 0.0
    assert cdf(2) == 0.5
    assert cdf(10) == 1.0
    assert cdf.quantile(0.5) == 3
    assert (cdf.min, cdf.max) == (1, 4)


def test_ecdf_validation():
    with pytest.raises(ValueError):
        ECDF([])
    with pytest.raises(ValueError):
        ECDF([1]).quantile(2)


def test_tally_and_top_n():
    counts = tally("abracadabra")
    assert counts["a"] == 5
    assert top_n(counts, 1) == [("a", 5)]
    assert probes_per_ip(["1.1.1.1", "1.1.1.1", "2.2.2.2"])["1.1.1.1"] == 2


# ------------------------------------------------------------------ overlap


def test_venn3_regions():
    ss = {"a", "b", "c", "x"}
    d = {"x", "y"}
    e = {"c", "y", "z"}
    regions = venn3(ss, d, e)
    assert regions["ss_only"] == 2
    assert regions["ss_d"] == 1
    assert regions["ss_e"] == 1
    assert regions["d_e"] == 1
    assert regions["ss_d_e"] == 0


def test_synthesized_history_matches_paper_regions():
    rng = random.Random(5)
    from repro.net import ASDatabase

    asdb = ASDatabase()
    current = set()
    while len(current) < 12300:
        current.add(asdb.sample_ip(rng))
    current = list(current)
    dunna, ensafi = synthesize_historical_sets(current, rng)
    regions = venn3(set(current), dunna, ensafi)
    assert regions == PAPER_FIG4_REGIONS


def test_synthesize_requires_enough_current_ips():
    rng = random.Random(6)
    with pytest.raises(ValueError):
        synthesize_historical_sets(["1.2.3.4"], rng)


# ---------------------------------------------------------------- rendering


def test_render_table():
    out = render_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "333" in lines[3]


def test_render_histogram():
    out = render_histogram({1: 10, 2: 5})
    assert "#" in out
    assert render_histogram({}) == "(empty)"
