"""Cold floors: one short ``bench/run.py`` run per committed cold median.

    PYTHONPATH=src python benchmarks/cold_floors.py    # or: make bench-cold

Run from the repository root.  For each row of
``benchmarks/baselines/bench_cold.json`` it runs that workload once for
5 s (seed 0, untraced), requires the run to be correct with no failed
operation, and compares its ``events_per_s`` with the row at a 0.1
tolerance, so only an order-of-magnitude regression fails.  Exits 1 on
a failed comparison.
"""

import json
import subprocess
import sys

from repro.perf import (BenchEntry, compare_entries,
                        format_comparison, load_entries)


def main() -> int:
    # One short cold run per baseline row, so a row with no run
    # fails.  bench/run.py reads time at reference CPU speed, which
    # keeps the committed medians comparable across hosts.
    baseline = load_entries("benchmarks/baselines/bench_cold.json")
    current = []
    for row in baseline:
        workload = row.name.split(".")[1]
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", "0", "--seconds", "5", "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, \
            f"{workload}: {result}"
        current.append(BenchEntry(
            name=row.name, unit=row.unit,
            value=result["metrics"]["events_per_s"]["value"]))
    comparison = compare_entries(current, baseline, tolerance=0.1)
    print(format_comparison(comparison))
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
