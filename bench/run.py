"""The repository benchmark: cold and warm throughput of four workloads.

Run from the repository root.  Two modes:

    python3 bench/run.py [--seed S] [--runs N] [--workloads a,b] [--out PATH]

        N runs of every workload, taken round-robin across workloads,
        then one traced run per workload.  Prints every metric by name
        and unit, checks every run's output bytes, and writes a results
        JSON (default bench/out/results-<UTC time>.json) for compare.py.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

        One run of one workload.  The last line of stdout is one JSON
        object {"correct", "attempted", "failed", "metrics"} holding the
        end-to-end metrics (--trace 0) or the per-layer metrics
        (--trace 1) named in BENCHMARK.json.

Every measurement runs in a fresh interpreter (child.py) spawned from
this process one at a time, so the load is one closed loop.  A round is
one child running the cold seed S and then the warm seed S+1.  A run is
rounds of one workload until about T seconds (run_seconds of
BENCHMARK.json) have passed, between bare spawns that sample set-up
time; a run's value of each metric is the median over its rounds.
Times are read at reference CPU speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import spec
from compare import quartiles
from speed import at_reference

CHILD = spec.BENCH / "child.py"
# A cold run using less of a core than this shared it with something
# else; its sample is flagged in the output.
BUSY_FLOOR = 0.9
# A single-run invocation must end within 180 s; its children get what
# is left of this budget.
RUN_BUDGET_S = 170.0
# Bare set-up spawns before and after the rounds of a run; every round's
# spawn is a set-up sample too.
SETUP_SPAWNS = 1


def _child_env() -> Dict[str, str]:
    # The REPRO_* switches select datapaths and crypto backends; the
    # benchmark always measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


class Session:
    """Spawns children, checks their output bytes, and collects samples."""

    def __init__(self, seed: int, *, deadline: Optional[float]):
        self.seed = seed
        self.deadline = deadline
        self.expected: Dict[Tuple[str, int], str] = {}
        for name, pins in spec.load_digests().items():
            for s in (seed, seed + 1):
                if str(s) in pins:
                    self.expected[(name, s)] = pins[str(s)]
        self.setup: List[float] = []
        self.order: List[Dict[str, Any]] = []
        # Per workload and metric: one value per run, and one per round.
        self.samples: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.rounds: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.cold: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self.traced: Dict[str, List[Dict[str, Any]]] = {}
        self.attempted: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.failures: List[str] = []
        self.flags: List[str] = []

    # ------------------------------------------------------------ spawning

    def _timeout(self) -> float:
        if self.deadline is None:
            return 900.0
        return max(5.0, self.deadline - time.perf_counter())

    def _spawn(self, argv: Sequence[str]) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Run one child; returns (result, error) and records set-up time.

        ``result`` is None for a ``--setup-only`` child, which prints no
        result line.
        """
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv],
                                stdout=subprocess.PIPE, text=True,
                                cwd=spec.ROOT, env=_child_env(),
                                start_new_session=True)
        ready: List[Tuple[float, float]] = []     # (time, CPU speed)
        lines: List[str] = []

        def pump() -> None:
            for line in proc.stdout:
                if not ready and line.startswith("ready "):
                    speed = json.loads(line[len("ready "):])["speed"]
                    ready.append((time.perf_counter(), speed))
                else:
                    lines.append(line)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        timeout = self._timeout()
        error = None
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout:.0f} s"
        finally:
            if proc.poll() is None:
                # Any process the child started shares its session.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            reader.join(timeout=10)
            proc.stdout.close()
        if ready:
            when, speed = ready[0]
            seconds = self._at_reference(when - start, speed, "set-up")
            if seconds is not None:
                self.setup.append(seconds)
        if error is None and proc.returncode != 0:
            error = f"exited with code {proc.returncode}"
        if error is not None:
            return None, error
        if not ready:
            return None, "never reported ready"
        if "--setup-only" in argv:
            return None, None
        try:
            return json.loads(lines[-1]), None
        except (IndexError, ValueError):
            return None, "printed no result"

    def _at_reference(self, seconds: float, speed: float,
                      what: str) -> Optional[float]:
        if not speed:
            self.flags.append(f"no speed probe ran during a {what} of "
                              f"{seconds:.3f} s: sample dropped")
            return None
        return at_reference(seconds, speed)

    def _rate(self, phase: Dict[str, Any], what: str) -> Optional[float]:
        """Events/s of one phase at reference speed, with the probe's own
        time taken out of the wall clock."""
        wall = phase["wall_s"] - phase["probe_s"]
        seconds = self._at_reference(wall, phase["speed"], what)
        return None if seconds is None else phase["events"] / seconds

    def bare(self) -> None:
        """One spawn that only imports: a set-up time sample."""
        _, error = self._spawn(["--setup-only"])
        self.order.append({"kind": "setup"})
        if error is not None:
            self.flags.append(f"set-up spawn failed: {error}")

    def _child(self, workload: spec.Workload, seeds: Sequence[int], kind: str,
               trace: bool = False) -> List[Dict[str, Any]]:
        argv = ["--workload", workload.name,
                "--seeds", ",".join(str(s) for s in seeds)]
        if trace:
            argv.append("--trace")
        self.order.append({"workload": workload.name, "kind": kind,
                           "seeds": list(seeds)})
        result, error = self._spawn(argv)
        if result is None:
            phases = [{"seed": s, "error": error} for s in seeds]
        else:
            phases = result["phases"]
            if result["leftover_wrappers"]:
                phases[-1].setdefault(
                    "error", f"wrappers left installed: {result['leftover_wrappers']}")
            if result["missing_targets"]:
                self.flags.append(f"trace targets that name nothing (their "
                                  f"time counts in the caller's layer): "
                                  f"{result['missing_targets']}")
        for phase in phases:
            phase["ok"] = self._check(workload.name, kind, phase)
        if result is not None:
            phases[0]["peak_rss_mb"] = result["peak_rss_mb"]
        return phases

    def _check(self, name: str, kind: str, phase: Dict[str, Any]) -> bool:
        """Count one execution of a seed; it fails on an error or on
        unexpected bytes.

        The expected sha256 is the pinned digest when there is one, else
        the first digest seen for that seed in this invocation (for S+1
        that is the fresh-interpreter reference run).
        """
        self.attempted[name] += 1
        error = phase.get("error")
        if error is None:
            key = (name, phase["seed"])
            want = self.expected.setdefault(key, phase["sha256"])
            if phase["sha256"] != want:
                error = (f"sha256 {phase['sha256'][:16]} differs from the "
                         f"expected {want[:16]}")
        if error is None:
            return True
        self.failed[name] += 1
        self.failures.append(f"{name} {kind} seed {phase['seed']}: {error}")
        return False

    # ------------------------------------------------------------- runs

    def reference(self, workload: spec.Workload) -> None:
        """Without a pinned digest for S+1, a fresh cold S+1 run is the
        reference the warm run (S+1 after S) must reproduce."""
        if (workload.name, self.seed + 1) not in self.expected:
            self._child(workload, [self.seed + 1], "reference")

    def _round(self, workload: spec.Workload) -> None:
        cold, warm = self._child(workload, [self.seed, self.seed + 1], "round")
        rounds = self.rounds[workload.name]
        if cold["ok"]:
            rate = self._rate(cold, f"{workload.name} cold run")
            if rate is not None:
                rounds["events_per_s"].append(rate)
            # As measured, for reference: the wall clock and the CPU
            # speed it was read at.
            rounds["raw_events_per_s"].append(cold["events"] / cold["wall_s"])
            rounds["cpu_speed"].append(cold["speed"])
            rounds["peak_rss_mb"].append(cold["peak_rss_mb"])
            busy = layers.busy_frac(cold)
            rounds["cpu_busy_frac"].append(busy)
            self.cold[workload.name].append(cold)
            if busy < BUSY_FLOOR:
                self.flags.append(
                    f"{workload.name} cold run used {busy:.0%} of a core: "
                    f"the host was contended, its sample is suspect")
        if warm["ok"]:
            rate = self._rate(warm, f"{workload.name} warm run")
            if rate is not None:
                rounds["warm_events_per_s"].append(rate)

    def run(self, workload: spec.Workload, seconds: float) -> None:
        """One run: rounds of one workload until ``seconds`` have passed.

        Records the median over the run's rounds (and over its spawns,
        for set-up time) as one sample of each end-to-end metric.
        """
        start = time.perf_counter()
        first_setup = len(self.setup)
        first_round = {m: len(v) for m, v in self.rounds[workload.name].items()}
        for _ in range(SETUP_SPAWNS):
            self.bare()
        self.reference(workload)
        while True:
            began = time.perf_counter()
            self._round(workload)
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > seconds:
                break
        for _ in range(SETUP_SPAWNS):
            self.bare()
        samples = self.samples[workload.name]
        for metric, values in self.rounds[workload.name].items():
            fresh = values[first_round.get(metric, 0):]
            if fresh:
                samples[metric].append(statistics.median(fresh))
        if self.setup[first_setup:]:
            samples["setup_s"].append(statistics.median(self.setup[first_setup:]))

    def trace(self, workload: spec.Workload) -> None:
        phases = self._child(workload, [self.seed, self.seed + 1], "trace",
                             trace=True)
        if all(p["ok"] for p in phases):
            self.traced[workload.name] = phases

    # ---------------------------------------------------------- metrics

    def e2e(self, name: str, contract: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        """Median/quartiles/n over runs of each end-to-end metric."""
        out = {}
        for metric in contract["end_to_end"]:
            values = self.samples[name].get(metric["name"], [])
            if values:
                q1, median, q3 = quartiles(values)
                out[metric["name"]] = {"value": median, "q1": q1, "q3": q3,
                                       "n": len(values), "unit": metric["unit"]}
        return out

    def layer_metrics(self, name: str) -> Optional[Dict[str, float]]:
        if name not in self.traced or not self.cold[name]:
            return None
        return layers.layer_metrics(self.traced[name], self.cold[name])

    def fail_frac(self, name: str) -> float:
        return self.failed[name] / self.attempted[name] if self.attempted[name] else 0.0

    def report_problems(self, stream) -> None:
        for failure in self.failures:
            print(f"FAILED {failure}", file=stream)
        for flag in self.flags:
            print(f"flag: {flag}", file=stream)


# ---------------------------------------------------------------- output


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_layers(name: str, metrics: Dict[str, float],
                  units: Dict[str, str]) -> None:
    wall = metrics["trace.wall_s"]
    for metric, value in metrics.items():
        share = (f"  ({value / wall:6.1%} of traced wall)"
                 if metric.endswith(".self_s") and wall else "")
        print(f"  {name:<14} {metric:<34} {_fmt(value):>12} {units[metric]}{share}")


def _single_run(args, contract: Dict[str, Any]) -> int:
    workload = spec.WORKLOADS[args.workload]
    session = Session(args.seed, deadline=time.perf_counter() + RUN_BUDGET_S)
    if args.trace:
        session.trace(workload)
    session.run(workload, args.seconds)

    if args.trace:
        values = session.layer_metrics(workload.name) or {}
        wanted = contract["per_layer"]
    else:
        values = {name: v["value"]
                  for name, v in session.e2e(workload.name, contract).items()}
        wanted = contract["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    session.report_problems(sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {_fmt(metric['value'])} {metric['unit']}")
    attempted = session.attempted[workload.name]
    failed = session.failed[workload.name]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _suite(args, contract: Dict[str, Any]) -> int:
    names = args.workloads.split(",") if args.workloads else list(spec.WORKLOADS)
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {sorted(spec.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workloads = [spec.WORKLOADS[n] for n in names]
    session = Session(args.seed, deadline=None)
    started = datetime.now(timezone.utc)
    # Round-robin: the host's speed drifts over a session, and taking
    # runs in turn spreads that drift over every workload alike.
    for _ in range(args.runs):
        for workload in workloads:
            session.run(workload, args.seconds)
    for workload in workloads:
        session.trace(workload)

    sys.path.insert(0, str(spec.SRC))
    from repro.perf.bench import git_rev, host_fingerprint

    results: Dict[str, Any] = {
        "host": host_fingerprint(), "git_rev": git_rev(), "nproc": os.cpu_count(),
        "started": started.isoformat(timespec="seconds"),
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "workloads": names, "order": session.order,
        "samples": {n: dict(session.samples[n]) for n in names},
        "rounds": {n: dict(session.rounds[n]) for n in names},
        "metrics": {}, "layers": {}, "trace": {},
        "attempted": {n: session.attempted[n] for n in names},
        "failed": {n: session.failed[n] for n in names},
        "failures": session.failures, "flags": session.flags,
    }
    print(f"{'workload':<14} {'metric':<18} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'runs':>4}  unit")
    for name in names:
        summary = session.e2e(name, contract)
        summary["fail_frac"] = {"value": session.fail_frac(name), "unit": "ratio",
                                "n": session.attempted[name]}
        results["metrics"][name] = summary
        for metric, s in summary.items():
            print(f"{name:<14} {metric:<18} {_fmt(s['value']):>12} "
                  f"{_fmt(s.get('q1', s['value'])):>12} "
                  f"{_fmt(s.get('q3', s['value'])):>12} {s['n']:>4}  {s['unit']}")
    print("per-layer metrics (traced run, cold seed):")
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name in names:
        layer = session.layer_metrics(name)
        if layer is None:
            print(f"  {name:<14} no traced run")
            continue
        results["layers"][name] = layer
        results["trace"][name] = [p["trace"] for p in session.traced[name]]
        _print_layers(name, layer, units)
    session.report_problems(sys.stdout)

    out = Path(args.out) if args.out else (
        spec.BENCH / "out" / f"results-{started:%Y%m%d-%H%M%S}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"results: {out}")
    return 1 if session.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold/warm throughput of the repository's workloads.")
    parser.add_argument("--seed", type=int, default=0,
                        help="cold-run seed S; the warm run uses S+1")
    parser.add_argument("--seconds", type=float,
                        help="length of one run (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload (suite mode)")
    parser.add_argument("--workloads", help="comma-separated subset (suite mode)")
    parser.add_argument("--out", help="results JSON path (suite mode)")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="single-run mode: one run of this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-run mode: report per-layer metrics")
    args = parser.parse_args(argv)

    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"no repository source at {spec.SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    contract = spec.load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.workload:
        return _single_run(args, contract)
    return _suite(args, contract)


if __name__ == "__main__":
    sys.exit(main())
