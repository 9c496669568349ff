"""Cold floors: one short ``bench/run.py`` run per workload vs committed cold medians.

    PYTHONPATH=src python benchmarks/cold_floors.py    # or: make bench-cold

Run from the repository root.  For each workload named in
``benchmarks/baselines/bench_cold.json`` it runs that workload once for
5 s (seed 0, untraced) and requires the run to be correct with no
failed operation.  Its ``events_per_s`` is compared with the workload's
``cold.<workload>.events_per_s`` row at a 0.1 tolerance, so only an
order-of-magnitude regression fails.  Its ``peak_rss_mb`` must not
exceed 1.5 times the ``cold.<workload>.peak_rss_mb`` row, which catches
a memo or a packet log that grows without bound again.  Exits 1 on a
failed comparison.
"""

import json
import subprocess
import sys

from repro.perf import (BenchEntry, compare_entries,
                        format_comparison, load_entries)

BASELINE = "benchmarks/baselines/bench_cold.json"
EVENTS_TOLERANCE = 0.1
RSS_CEILING = 1.5


def _run(workload: str) -> dict:
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, \
        f"{workload}: {result}"
    return result["metrics"]


def main() -> int:
    # One short cold run per workload with a baseline row, so a row
    # with no run fails.  bench/run.py reads time at reference CPU
    # speed, which keeps the committed medians comparable across hosts;
    # peak RSS needs no such correction.
    baseline = load_entries(BASELINE)
    workload_of = {row.name: row.name.split(".")[1] for row in baseline}
    metrics = {w: _run(w) for w in dict.fromkeys(workload_of.values())}
    events = [row for row in baseline if row.name.endswith(".events_per_s")]
    current = [BenchEntry(name=row.name, unit=row.unit,
                          value=metrics[workload_of[row.name]]["events_per_s"]["value"])
               for row in events]
    comparison = compare_entries(current, events, tolerance=EVENTS_TOLERANCE)
    print(format_comparison(comparison))
    rss_ok = True
    for row in baseline:
        if not row.name.endswith(".peak_rss_mb"):
            continue
        rss = metrics[workload_of[row.name]]["peak_rss_mb"]["value"]
        ceiling = RSS_CEILING * row.value
        rss_ok = rss_ok and rss <= ceiling
        print(f"{row.name:<34} {rss:8.1f} {row.unit}  ceiling {ceiling:.1f} "
              f"({RSS_CEILING} x {row.value:.1f})  "
              f"{'ok' if rss <= ceiling else 'OVER'}")
    return 0 if comparison.ok and rss_ok else 1


if __name__ == "__main__":
    sys.exit(main())
