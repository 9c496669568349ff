"""Baseline comparison and regression gating for bench results.

All bench values are higher-is-better, so the gate is uniform: an entry
regresses when ``current < tolerance * baseline``.  Entries present on
only one side are reported but never fail the gate (new benchmarks must
not break CI retroactively, and retired ones must not pin the baseline
forever).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .bench import BenchEntry

__all__ = ["Comparison", "compare_entries", "format_comparison", "load_entries"]


def load_entries(path) -> List[BenchEntry]:
    """Load a BENCH_*.json array (or a concatenation of several)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON array of bench entries")
    entries = []
    for item in doc:
        entries.append(BenchEntry(
            name=item["name"], unit=item["unit"], value=float(item["value"]),
            params=item.get("params", {}),
            host_fingerprint=item.get("host_fingerprint", ""),
            git_rev=item.get("git_rev", ""),
        ))
    return entries


@dataclass
class Comparison:
    """Outcome of gating ``current`` entries against a baseline."""

    rows: List[dict]
    regressions: List[str]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_entries(current: List[BenchEntry], baseline: List[BenchEntry],
                    tolerance: float = 0.8) -> Comparison:
    """Gate ``current`` against ``baseline``: fail below tolerance×baseline."""
    if not 0 < tolerance:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    base_by_name: Dict[str, BenchEntry] = {e.name: e for e in baseline}
    cur_names = {e.name for e in current}
    rows = []
    regressions = []
    for entry in current:
        base = base_by_name.get(entry.name)
        ratio: Optional[float] = None
        status = "new"
        if base is not None:
            ratio = entry.value / base.value if base.value else float("inf")
            if ratio < tolerance:
                status = "REGRESSION"
                regressions.append(entry.name)
            else:
                status = "ok"
        rows.append({
            "name": entry.name,
            "unit": entry.unit,
            "current": entry.value,
            "baseline": base.value if base is not None else None,
            "ratio": ratio,
            "status": status,
        })
    for name in sorted(base_by_name.keys() - cur_names):
        base = base_by_name[name]
        rows.append({
            "name": name, "unit": base.unit, "current": None,
            "baseline": base.value, "ratio": None, "status": "missing",
        })
    return Comparison(rows=rows, regressions=regressions, tolerance=tolerance)


def format_comparison(comparison: Comparison) -> str:
    """Human-readable table of a comparison, one row per entry, then the
    entry with the lowest ratio (the gate's margin) and the verdict."""
    lines = [f"{'benchmark':<40} {'current':>12} {'baseline':>12} "
             f"{'ratio':>8}  status"]
    for row in comparison.rows:
        cur = f"{row['current']:.3f}" if row["current"] is not None else "-"
        base = f"{row['baseline']:.3f}" if row["baseline"] is not None else "-"
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        lines.append(f"{row['name']:<40} {cur:>12} {base:>12} "
                     f"{ratio:>8}  {row['status']}")
    rated = [row for row in comparison.rows if row["ratio"] is not None]
    if rated:
        lowest = min(rated, key=lambda row: row["ratio"])
        lines.append(f"lowest ratio {lowest['ratio']:.2f}x: {lowest['name']}")
    verdict = ("OK" if comparison.ok
               else f"{len(comparison.regressions)} regression(s)")
    lines.append(f"tolerance {comparison.tolerance:g}: {verdict}")
    return "\n".join(lines)
