"""Performance harness: benchmarks, baselines, and regression gates.

``python -m repro bench`` drives this package.  It measures five layers
of the reproduction — cipher throughput, simulator event throughput,
streaming-analysis throughput, detector-stage throughput, and the
wall-clock throughput of one flow-sharded scale-1m run with a shard per
CPU — and writes machine-readable ``BENCH_crypto.json`` /
``BENCH_sim.json`` / ``BENCH_analysis.json`` / ``BENCH_detector.json`` /
``BENCH_shard.json`` files.  ``compare_entries`` gates a fresh run
against a committed baseline and is what CI's bench-smoke job calls.
End-to-end throughput is the cold median of ``bench/run.py``.
"""

from .bench import (
    BenchEntry,
    bench_analysis,
    bench_crypto,
    bench_detector,
    bench_shard,
    bench_sim,
    git_rev,
    host_fingerprint,
    write_entries,
)
from .compare import compare_entries, format_comparison, load_entries

__all__ = [
    "BenchEntry",
    "bench_analysis",
    "bench_crypto",
    "bench_detector",
    "bench_shard",
    "bench_sim",
    "compare_entries",
    "format_comparison",
    "git_rev",
    "host_fingerprint",
    "load_entries",
    "write_entries",
]
