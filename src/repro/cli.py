"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``run``         — run any registered scenario through the runtime
  (multi-seed, parallel, cached): ``run <scenario> --seeds N --jobs M``;
  ``--shards N`` (or ``auto``) partitions one scenario's flow/unit
  space across a process pool and merges the shards back
  byte-identically; ``run --list`` enumerates the registry;
* ``analyze``     — re-finalize the streaming analyzers of already-cached
  runs (merging states across seeds) without re-simulating anything;
* ``quickstart``  — tunnel a request under the GFW and print the probes;
* ``probesim``    — probe one server model and print its reaction row;
* ``identify``    — probe a server model and print the §5.2.2 inference;
* ``sink``        — run a §4.1 random-data experiment;
* ``brdgrd``      — run the §7.1 defense experiment;
* ``blocking``    — run the §6 blocking fleet;
* ``profiles``    — list the implementation behaviour profiles;
* ``ciphers``     — list the supported encryption methods;
* ``bench``       — run the performance harness and write the
  ``BENCH_*.json`` result files; ``--compare BASELINE.json`` gates the
  run against a recorded baseline (non-zero exit on regression).

``sink``, ``brdgrd`` and ``blocking`` are convenience front-ends to the
same registered scenarios ``run`` executes; ``run`` adds seed sweeps,
process fan-out, the on-disk result cache, and ``--json`` output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'How China Detects and Blocks "
                    "Shadowsocks' (IMC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run",
        help="run a registered scenario (multi-seed, parallel, cached)",
    )
    p.add_argument("scenario", nargs="?", help="scenario name; see --list")
    p.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list registered scenarios and exit")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="number of seeds to sweep (default 1)")
    p.add_argument("--seed-start", type=int, default=0, metavar="S",
                   help="first seed of the sweep (default 0)")
    p.add_argument("--jobs", type=int, default=1, metavar="M",
                   help="worker processes (default 1 = serial; with "
                        "--shards, 1 = one process per shard up to the "
                        "CPU count)")
    p.add_argument("--shards", default=None, metavar="N",
                   help="partition the scenario's flow/unit space into N "
                        "disjoint shards, run them in worker processes, and "
                        "merge the results back byte-identically with the "
                        "serial run; 'auto' = CPU count (shardable "
                        "scenarios only)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override a scenario parameter (repeatable; "
                        "values parsed as JSON, else kept as strings)")
    p.add_argument("--detectors", default=None, metavar="SPEC",
                   help="detector-stage spec — a bare kind like 'entropy' "
                        "or JSON like '{\"kind\": \"any\", \"members\": "
                        "[\"entropy\", \"vmess\"]}' — for scenarios with a "
                        "`detectors` parameter (shorthand for "
                        "--set detectors=SPEC)")
    p.add_argument("--protocol", default=None, metavar="SPEC",
                   help="proxy-protocol spec — a bare kind like 'obfs' or "
                        "JSON like '{\"kind\": \"obfs\", \"profile\": "
                        "\"obfs3\"}' — for scenarios with a `protocol` "
                        "parameter (shorthand for --set protocol=SPEC)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the merged sweep as canonical JSON")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache root (default $REPRO_RUNS_DIR or runs/)")
    p.add_argument("--profile", action="store_true", dest="cprofile",
                   help="profile the run with cProfile; top functions to stderr")

    p = sub.add_parser(
        "analyze",
        help="re-run the declared analyzers over cached results "
             "(no simulation)",
    )
    p.add_argument("scenario", help="scenario name (see `run --list`)")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="number of cached seeds to merge (default 1)")
    p.add_argument("--seed-start", type=int, default=0, metavar="S",
                   help="first seed (default 0)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="scenario parameter overrides the runs were cached "
                        "under (must match exactly)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the merged analysis as canonical JSON")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache root (default $REPRO_RUNS_DIR or runs/)")

    p = sub.add_parser("quickstart", help="tunnel traffic under the GFW")
    p.add_argument("--connections", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--profile", default="outline-1.0.7")
    p.add_argument("--method", default="chacha20-ietf-poly1305")
    p.add_argument("--loss", type=float, default=0.0, metavar="P",
                   help="network loss probability per segment (default 0)")
    p.add_argument("--reorder", type=float, default=0.0, metavar="P",
                   help="network reorder probability per segment (default 0)")
    p.add_argument("--detectors", default=None, metavar="SPEC",
                   help="in-path detector-stage spec (bare kind or JSON); "
                        "default: the paper's passive classifier")

    p = sub.add_parser("probesim", help="probe a server model (Figure 10 row)")
    p.add_argument("--profile", default="ss-libev-3.1.3")
    p.add_argument("--method", default="aes-128-gcm")
    p.add_argument("--trials", type=int, default=6)
    p.add_argument("--lengths", type=int, nargs="*", default=None)

    p = sub.add_parser("identify", help="infer a server's implementation (§5.2.2)")
    p.add_argument("--profile", default="ss-libev-3.1.3")
    p.add_argument("--method", default="chacha20-ietf")
    p.add_argument("--trials", type=int, default=10)

    p = sub.add_parser("sink", help="run a §4.1 random-data experiment")
    p.add_argument("--experiment", choices=["1.a", "1.b", "2", "3"], default="1.a")
    p.add_argument("--connections", type=int, default=3000)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("brdgrd", help="run the §7.1 brdgrd experiment")
    p.add_argument("--hours", type=float, default=36.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("blocking", help="run the §6 blocking fleet")
    p.add_argument("--days", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("profiles", help="list implementation behaviour profiles")
    sub.add_parser("ciphers", help="list supported encryption methods")

    p = sub.add_parser(
        "bench",
        help="run performance benchmarks and write BENCH_*.json",
    )
    p.add_argument("--suite",
                   choices=["crypto", "sim", "analysis", "detector", "shard",
                            "all"],
                   default="all", help="which benchmark suite(s) to run")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes/counts (CI smoke mode)")
    p.add_argument("--only", default=None, metavar="SUBSTR",
                   help="filter crypto benchmarks by cipher-name substring")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="directory for BENCH_*.json files (default: cwd)")
    p.add_argument("--compare", default=None, metavar="BASELINE.json",
                   help="gate results against a recorded baseline file")
    p.add_argument("--tolerance", type=float, default=0.8, metavar="T",
                   help="fail entries below T x baseline (default 0.8)")
    p.add_argument("--profile", action="store_true", dest="cprofile",
                   help="profile the benchmarks with cProfile; top functions "
                        "to stderr")

    p = sub.add_parser(
        "serve",
        help="run the HTTP control plane (submit jobs, stream records)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8388,
                   help="bind port (default 8388; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker processes executing jobs (default 2)")
    p.add_argument("--queue-size", type=int, default=64, metavar="N",
                   help="max queued jobs before POST /jobs returns 429 "
                        "(default 64)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache root shared by all jobs "
                        "(default $REPRO_RUNS_DIR or runs/)")
    p.add_argument("--no-cache", action="store_true",
                   help="run every job without the shared result cache")
    p.add_argument("--keep-jobs", type=int, default=256, metavar="N",
                   help="finished jobs retained for GET /jobs/{id} "
                        "(default 256)")
    return parser


def _run_profiled(enabled: bool, fn):
    """Run ``fn()``; with ``enabled``, under cProfile with top-N to stderr."""
    if not enabled:
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn)
    finally:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(30)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.command.replace('.', '_')}"]
    return handler(args)


def _parse_overrides(items) -> Optional[dict]:
    """Parse repeated ``--set KEY=VALUE`` arguments; None on bad syntax."""
    overrides = {}
    for item in items:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return None
        key, value = item.split("=", 1)
        overrides[key] = value
    return overrides


def _parse_detectors(text: Optional[str]):
    """Parse a ``--detectors`` value: JSON spec, else a bare stage kind."""
    if text is None:
        return None
    import json

    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_shards(text: Optional[str]) -> Optional[int]:
    """Parse ``--shards``: None passes through, 'auto' = CPU count.

    Returns the shard count, or raises ValueError on a bad value.
    """
    if text is None:
        return None
    if text == "auto":
        import os

        return os.cpu_count() or 1
    count = int(text)  # ValueError on junk propagates to the caller
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return count


def _cmd_run(args) -> int:
    from .runtime import (
        JobSpec,
        JobSpecError,
        ResultCache,
        ShardingError,
        all_scenarios,
        default_cache_root,
        execute_job,
    )

    if args.list_scenarios or args.scenario is None:
        for scenario in all_scenarios():
            print(f"{scenario.name:<26} {scenario.title}")
        if args.scenario is None and not args.list_scenarios:
            print("\nerror: missing scenario name (see list above)",
                  file=sys.stderr)
            return 2
        return 0

    overrides = _parse_overrides(args.overrides)
    if overrides is None:
        return 2
    if args.detectors is not None:
        overrides["detectors"] = args.detectors
    if args.protocol is not None:
        overrides["protocol"] = args.protocol
    try:
        shards = _parse_shards(args.shards)
    except ValueError as exc:
        print(f"error: --shards expects a positive integer or 'auto': {exc}",
              file=sys.stderr)
        return 2

    try:
        spec = JobSpec(
            scenario=args.scenario,
            seeds=tuple(range(args.seed_start,
                              args.seed_start + max(args.seeds, 1))),
            overrides=overrides,
            shards=shards,
            jobs=args.jobs,
            use_cache=not args.no_cache,
        )
    except JobSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_root())

    try:
        job = _run_profiled(args.cprofile,
                            lambda: execute_job(spec, cache=cache))
    except ShardingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.as_json:
        print(job.canonical_bytes().decode("utf-8"))
        return 0

    merged = job.merged
    shard_note = f"shards={shards}, " if shards is not None else ""
    print(f"{args.scenario}: {len(merged['seeds'])} seed(s), "
          f"{shard_note}jobs={job.jobs}, wall={job.wall_time:.2f}s, "
          f"cache {job.cache_hits} hit / {job.cache_misses} miss")
    for name, stats in merged["metrics"].items():
        print(f"  {name:<30} mean={stats['mean']:<12.6g} "
              f"min={stats['min']:<12.6g} max={stats['max']:.6g}")
    if merged["events"]:
        print("events (summed over seeds):")
        for name, count in merged["events"].items():
            print(f"  {name:<30} {count}")
    if cache is not None:
        print(f"results cached under {cache.root}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .runtime import default_cache_root
    from .service import ControlPlaneConfig, serve_forever

    cache_root = None
    if not args.no_cache:
        cache_root = str(args.cache_dir or default_cache_root())
    config = ControlPlaneConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_root=cache_root,
        keep_jobs=args.keep_jobs,
    )
    try:
        asyncio.run(serve_forever(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_analyze(args) -> int:
    from .analysis.pipeline import merge_analysis
    from .runtime import (
        ResultCache,
        canonical_json,
        canonical_params,
        code_fingerprint,
        default_cache_root,
        get_scenario,
    )

    overrides = _parse_overrides(args.overrides)
    if overrides is None:
        return 2
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    cache = ResultCache(args.cache_dir or default_cache_root())
    fingerprint = code_fingerprint()
    results = []
    for seed in range(args.seed_start, args.seed_start + max(args.seeds, 1)):
        params = canonical_params(scenario.instantiate(seed, overrides))
        cached = cache.load(scenario.name, params, seed, fingerprint)
        if cached is None:
            print(f"error: no cached result for {scenario.name} seed={seed} "
                  f"under {cache.root} — run `python -m repro run "
                  f"{scenario.name} --seeds {args.seeds}` first "
                  f"(same overrides, same code)", file=sys.stderr)
            return 1
        if not cached.analysis:
            print(f"error: cached result for {scenario.name} seed={seed} "
                  f"carries no analyzer states (scenario declares no "
                  f"analyzers?)", file=sys.stderr)
            return 1
        results.append(cached)

    merged = merge_analysis([r.analysis for r in results])
    if args.as_json:
        print(canonical_json(merged))
        return 0

    seeds = [r.seed for r in results]
    print(f"{scenario.name}: re-finalized {len(results)} cached seed(s) "
          f"{seeds} without re-simulating")
    for name in sorted(merged):
        print(f"  {name}:")
        output = merged[name]
        if isinstance(output, dict):
            for key in sorted(output):
                print(f"    {key:<24} {canonical_json(output[key])}")
        else:
            print(f"    {canonical_json(output)}")
    return 0


def _cmd_quickstart(args) -> int:
    from .runtime.scenarios import QuickstartConfig, quickstart_world

    params = QuickstartConfig(seed=args.seed, connections=args.connections,
                              profile=args.profile, method=args.method,
                              loss=args.loss, reorder=args.reorder)
    detectors = _parse_detectors(args.detectors)

    world = quickstart_world(params, detectors=detectors)
    print(f"connections: {args.connections}  flagged: "
          f"{world.gfw.flagged_connections}  probes: {len(world.gfw.probe_log)}")
    if args.loss or args.reorder:
        counters = world.bus.counters
        retx = (counters.get("tcp.retransmit", 0)
                + counters.get("tcp.syn.retry", 0))
        print(f"impairment: loss={args.loss:g} reorder={args.reorder:g}  "
              f"dropped={world.net.impairment_drops}  retransmits={retx}")
    for record in world.gfw.probe_log[:20]:
        print(f"  {record.time_sent:>8.1f}s {record.probe_type:<4} "
              f"len={len(record.probe.payload):<4} from {record.src_ip:<16} "
              f"-> {record.reaction}")
    return 0


def _cmd_probesim(args) -> int:
    from .analysis import render_table
    from .probesim import PROBE_LENGTH_SCHEDULE, build_random_probe_row

    lengths = args.lengths or list(PROBE_LENGTH_SCHEDULE)
    row = build_random_probe_row(args.profile, args.method, lengths,
                                 trials=args.trials)
    rows = [(length, row.cells[length].label()) for length in sorted(row.cells)]
    print(render_table(["probe length", "reactions"], rows))
    return 0


def _cmd_identify(args) -> int:
    from .probesim import (
        PROBE_LENGTH_SCHEDULE,
        build_random_probe_row,
        identify_server,
    )

    row = build_random_probe_row(args.profile, args.method,
                                 PROBE_LENGTH_SCHEDULE, trials=args.trials)
    ident = identify_server(row)
    print(f"construction:     {ident.construction or 'unknown'}")
    print(f"IV/salt length:   {ident.nonce_len if ident.nonce_len else 'unknown'}")
    print(f"masks ATYP:       {ident.masks_atyp}")
    print(f"error action:     {ident.error_action}")
    print(f"cipher hint:      {ident.cipher_hint or '-'}")
    print(f"compatible with:  {', '.join(ident.compatible_profiles) or '-'}")
    for note in ident.notes:
        print(f"note: {note}")
    return 0


def _cmd_sink(args) -> int:
    from .experiments import TABLE4_EXPERIMENTS
    from .runtime import run_scenario

    overrides = dict(TABLE4_EXPERIMENTS[args.experiment])
    overrides.pop("seed", None)
    overrides.update(connections=args.connections,
                     duration=args.hours * 3600.0)
    result = run_scenario("sink", seed=args.seed, overrides=overrides,
                          use_cache=False)
    print(f"Exp {args.experiment}: {result.payload['connections']} "
          f"connections, {result.payload['probes']} probes")
    for probe_type, count in sorted(result.payload["probes_by_type"].items()):
        print(f"  {probe_type:<4} {count}")
    return 0


def _cmd_brdgrd(args) -> int:
    from .runtime import run_scenario

    duration = args.hours * 3600.0
    windows = ((duration / 3, 2 * duration / 3),)
    result = run_scenario(
        "brdgrd", seed=args.seed,
        overrides={"duration": duration, "brdgrd_windows": windows},
        use_cache=False)
    for hour, count in enumerate(result.payload["hourly_counts"]):
        t = hour * 3600.0
        on = any(s <= t < e for s, e in windows)
        print(f"h{hour:>3} {'BRDGRD' if on else '      '} "
              f"{count:>4} {'#' * min(count, 50)}")
    print(f"\nprobes/hour: active={result.payload['rate_active']:.2f} "
          f"inactive={result.payload['rate_inactive']:.2f}")
    return 0


def _cmd_blocking(args) -> int:
    from .runtime import run_scenario

    duration = args.days * 86400.0
    result = run_scenario(
        "blocking", seed=args.seed,
        overrides={"duration": duration,
                   "sensitive_periods": ((duration / 3, duration / 2),)},
        use_cache=False)
    for server in result.payload["servers"]:
        status = "BLOCKED" if server["blocked"] else "up"
        print(f"{server['ip']:<16} {server['profile']:<16} "
              f"probes={server['probes']:<5} {status}")
    return 0


def _cmd_profiles(args) -> int:
    from .shadowsocks import all_profiles

    for profile in all_profiles():
        constructions = "/".join(
            c for c, ok in (("stream", profile.supports_stream),
                            ("aead", profile.supports_aead)) if ok)
        print(f"{profile.name:<18} {profile.display:<28} {constructions:<11} "
              f"error={profile.error_action:<7} "
              f"replay_filter={'yes' if profile.replay_filter else 'no'}")
    return 0


def _cmd_ciphers(args) -> int:
    from .crypto import CIPHERS

    for name, spec in sorted(CIPHERS.items()):
        print(f"{name:<24} {spec.kind:<7} key={spec.key_len:<3} "
              f"{'salt' if spec.kind == 'aead' else 'IV'}={spec.iv_len}")
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from .perf import (
        bench_analysis,
        bench_crypto,
        bench_detector,
        bench_shard,
        bench_sim,
        compare_entries,
        format_comparison,
        load_entries,
        write_entries,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def progress(message: str) -> None:
        print(f"  {message}", file=sys.stderr)

    def execute():
        suites = {}
        if args.suite in ("crypto", "all"):
            suites["crypto"] = bench_crypto(
                size=32768 if args.quick else 262144,
                repeats=1 if args.quick else 3,
                only=args.only, progress=progress)
        if args.suite in ("sim", "all"):
            suites["sim"] = bench_sim(
                events=20000 if args.quick else 200000,
                repeats=1 if args.quick else 3, progress=progress)
        if args.suite in ("analysis", "all"):
            suites["analysis"] = bench_analysis(
                events=20000 if args.quick else 200000,
                repeats=1 if args.quick else 3, progress=progress)
        if args.suite in ("detector", "all"):
            suites["detector"] = bench_detector(
                packets=2000 if args.quick else 20000,
                repeats=1 if args.quick else 3, progress=progress)
        if args.suite in ("shard", "all"):
            suites["shard"] = bench_shard(
                flows=20000 if args.quick else 1_000_000, progress=progress)
        return suites

    suites = _run_profiled(args.cprofile, execute)

    all_entries = []
    for suite, entries in suites.items():
        path = out_dir / f"BENCH_{suite}.json"
        write_entries(path, entries)
        print(f"wrote {path} ({len(entries)} entries)")
        all_entries.extend(entries)
    for entry in all_entries:
        print(f"  {entry.name:<40} {entry.value:>12.3f} {entry.unit}")
    if args.compare:
        comparison = compare_entries(all_entries, load_entries(args.compare),
                                     tolerance=args.tolerance)
        print(format_comparison(comparison))
        if not comparison.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
