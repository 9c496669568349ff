"""Compare benchmark results of a parent commit (A) and a change (B).

    python3 bench/compare.py A.json B.json [A2.json B2.json ...]

Results files are what ``bench/run.py`` writes; they alternate parent,
change, parent, change.  A sample is the value of one run (the median
over its rounds).  Samples of one side are pooled across its files, and
the k-th run of A_i is paired with the k-th run of B_i.
Each (metric, workload) row shows both sides' median and quartiles and
one verdict, by the rules of the choosing-metrics method:

  improved    at least 10 pairs, the change wins at least 9/10 of all
              pairs (ties count for neither), and the medians differ by
              more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  either side's interquartile range is wider than the bound
              (as a share of its median), unless every sample of the
              change is better than every sample of the parent
  unchanged   otherwise

``fail_frac`` (failed / attempted runs) is shown side by side; any
increase is a regression, and no metric of that workload counts as
improved.  Every file must have been measured at the same seed, run
length and host; otherwise nothing is compared and the exit code is 2.
Exits 1 if any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

import spec

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Results-file keys that must agree across every compared file.
CONDITIONS = ("seed", "seconds", "host")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    # Inclusive quartiles stay within the samples; the default method
    # extrapolates past them when there are few.
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(a: Sequence[float], b: Sequence[float],
            pairs: Sequence[Tuple[float, float]], better: str,
            bound: float) -> str:
    """The verdict for change samples ``b`` against parent samples ``a``."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "improved"
    if sign * (b_med - a_med) < -bound * abs(a_med):
        return "regressed"
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _samples(doc: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return list(doc["samples"].get(workload, {}).get(metric, []))


def _fail_frac(docs: Sequence[Dict[str, Any]], workload: str) -> float:
    failed = sum(doc["failed"][workload] for doc in docs)
    attempted = sum(doc["attempted"][workload] for doc in docs)
    return failed / attempted if attempted else 0.0


def compare(parents: Sequence[Dict[str, Any]], changes: Sequence[Dict[str, Any]],
            contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload), plus one fail_frac row per workload.

    Raises ValueError when the files were not measured under the same
    conditions.
    """
    docs = (*parents, *changes)
    for key in CONDITIONS:
        seen = sorted({json.dumps(doc.get(key)) for doc in docs})
        if len(seen) > 1:
            raise ValueError(f"results files differ in {key!r}: {', '.join(seen)}")
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in doc["workloads"] for doc in docs)]
    fail_rose = {w: _fail_frac(changes, w) > _fail_frac(parents, w)
                 for w in workloads}
    rows = []
    for metric in contract["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            a = [v for doc in parents for v in _samples(doc, workload, name)]
            b = [v for doc in changes for v in _samples(doc, workload, name)]
            if not a or not b:
                continue
            pairs = [pair for pa, pb in zip(parents, changes)
                     for pair in zip(_samples(pa, workload, name),
                                     _samples(pb, workload, name))]
            found = verdict(a, b, pairs, metric["better"], metric["bound"])
            if found == "improved" and fail_rose[workload]:
                # A gain does not count while more executions fail.
                found = "unchanged"
            rows.append({"metric": name, "workload": workload,
                         "unit": metric["unit"], "a": quartiles(a),
                         "b": quartiles(b), "pairs": len(pairs),
                         "verdict": found})
    for workload in workloads:
        a, b = _fail_frac(parents, workload), _fail_frac(changes, workload)
        rows.append({"metric": "fail_frac", "workload": workload, "unit": "ratio",
                     "a": (a,) * 3, "b": (b,) * 3, "pairs": 0,
                     "verdict": "regressed" if fail_rose[workload] else "unchanged"})
    return rows


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verdicts for a change's benchmark results against its parent's.")
    parser.add_argument("results", nargs="+",
                        help="results files, alternating parent and change")
    args = parser.parse_args(argv)
    if len(args.results) % 2:
        parser.error("give results files in (parent, change) pairs")
    docs = []
    for path in args.results:
        with open(path) as fh:
            docs.append(json.load(fh))
    try:
        rows = compare(docs[0::2], docs[1::2], spec.load_contract())
    except ValueError as exc:
        print(f"not comparable: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':<18} {'workload':<14} {'A: median [q1, q3]':>36} "
          f"{'B: median [q1, q3]':>36} {'pairs':>5}  verdict")
    for row in rows:
        print(f"{row['metric']:<18} {row['workload']:<14} {_cell(row['a']):>36} "
              f"{_cell(row['b']):>36} {row['pairs']:>5}  {row['verdict']}"
              f"  ({row['unit']})")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
