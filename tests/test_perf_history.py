"""Bench-compare edge cases: one-sided rows and real regressions."""

from repro.perf import BenchEntry, compare_entries, format_comparison


def _entry(name, value=1.0):
    return BenchEntry(name=name, unit="ops/s", value=value, git_rev="r0")


def test_baseline_only_entry_is_missing_not_a_regression():
    comparison = compare_entries([_entry("kept", 1.0)],
                                 [_entry("kept", 1.0), _entry("retired", 5.0)])
    assert comparison.ok
    by_name = {row["name"]: row for row in comparison.rows}
    assert by_name["retired"]["status"] == "missing"
    assert by_name["retired"]["current"] is None
    assert by_name["retired"]["ratio"] is None
    assert by_name["kept"]["status"] == "ok"


def test_current_only_entry_is_new_not_a_regression():
    comparison = compare_entries([_entry("kept", 1.0), _entry("fresh", 2.0)],
                                 [_entry("kept", 1.0)])
    assert comparison.ok
    by_name = {row["name"]: row for row in comparison.rows}
    assert by_name["fresh"]["status"] == "new"
    assert by_name["fresh"]["baseline"] is None
    assert by_name["fresh"]["ratio"] is None


def test_one_sided_entries_do_not_mask_a_real_regression():
    comparison = compare_entries(
        [_entry("slow", 1.0), _entry("fresh", 2.0)],
        [_entry("slow", 10.0), _entry("retired", 5.0)],
        tolerance=0.5)
    assert not comparison.ok
    assert comparison.regressions == ["slow"]


def test_format_comparison_renders_one_sided_rows():
    comparison = compare_entries([_entry("fresh", 2.0)],
                                 [_entry("retired", 5.0)])
    text = format_comparison(comparison)
    assert "new" in text and "missing" in text
    assert text.strip().endswith("OK")


def test_format_comparison_names_the_lowest_ratio_before_the_verdict():
    comparison = compare_entries(
        [_entry("fast", 3.0), _entry("slow", 0.9), _entry("fresh", 0.1)],
        [_entry("fast", 1.0), _entry("slow", 5.0), _entry("retired", 5.0)],
        tolerance=0.1)
    lines = format_comparison(comparison).splitlines()
    assert lines[-2] == "lowest ratio 0.18x: slow"
    assert lines[-1] == "tolerance 0.1: OK"
