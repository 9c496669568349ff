"""One benchmark process: import the repository, then run one workload.

run.py spawns this script in a fresh interpreter for every measurement,
so each cold run starts with empty process-wide memos.  It talks to the
parent over stdout:

    ready {...} printed once ``repro`` and the scenario registry are
                imported; the parent times set-up up to this line, and
                the JSON holds the CPU speed during it (speed.py)
    {...}       one JSON line with the results, printed last

Usage:
    child.py --setup-only
    child.py --workload NAME --seeds S[,S2...] [--smoke] [--trace]

Seeds run in order in this one interpreter: the first is the cold run,
later ones are warm runs after it; a sharded workload runs its shards
one after another in this process.  A speed probe runs during set-up
and every untraced phase.  ``--trace`` turns it off and wraps every
layer's entry points (see layers.py) for the whole process instead, and
reports each phase's per-layer totals.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import spec
from speed import SpeedProbe
from tracer import Tracer, leftover_wrappers


def _import_repro():
    sys.path.insert(0, str(spec.SRC))
    import repro
    from repro.runtime import runner, scenario

    if not Path(repro.__file__).resolve().is_relative_to(spec.SRC.resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {spec.SRC}")
    scenario.scenario_names()   # imports the builtin scenario registry
    return runner


def _lru_caches():
    """The lru_cache objects of layers.LRU_PROBES, resolved before any
    tracer rebinds their module names."""
    return {layer: getattr(importlib.import_module(module), name)
            for layer, (module, name) in layers.LRU_PROBES.items()}


def _lru_infos(caches):
    return {layer: cache.cache_info()._asdict() for layer, cache in caches.items()}


def _run_phase(runner, caches, probe, workload, seed, *, smoke):
    params = workload.params(smoke)
    gc.collect()
    lru0 = _lru_infos(caches)
    probe.take()
    cpu0 = time.process_time()
    start = time.perf_counter()
    if workload.shards:
        result = runner.run_sharded(workload.scenario, seed=seed,
                                    overrides=params, shards=workload.shards,
                                    jobs=1, use_cache=False)
        merged, shards = result.merged, result.shards
    else:
        result = runner.run_scenario(workload.scenario, seed=seed,
                                     overrides=params, use_cache=False)
        merged, shards = result, [result]
    wall = time.perf_counter() - start
    speed = probe.take()
    cpu = time.process_time() - cpu0
    lru1 = _lru_infos(caches)
    counters = merged.events.get("counters", {})
    return {
        "seed": seed,
        "wall_s": wall,
        # Probe time (0 while tracing) and the CPU speed the run got.
        **speed,
        "cpu_s": cpu,
        "events": counters.get("sim.events", 0),
        "retransmits": sum(counters.get(name, 0)
                           for name in layers.RETRANSMIT_COUNTERS),
        "shard_walls": [r.wall_time for r in shards],
        "sha256": hashlib.sha256(result.canonical_bytes()).hexdigest(),
        "lru": {layer: {k: lru1[layer][k] - lru0[layer][k] for k in ("hits", "misses")}
                for layer in lru1},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    runner = _import_repro()
    print("ready " + json.dumps(probe.take()), flush=True)
    if args.setup_only:
        probe.stop()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = spec.WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    caches = _lru_caches()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Probe ticks would land in the self time of whichever layer runs.
        probe.stop()
        tracer.install(layers.TARGETS)
    phases = []
    try:
        for seed in seeds:
            if tracer is not None:
                tracer.reset()
            try:
                phase = _run_phase(runner, caches, probe, workload, seed,
                                   smoke=args.smoke)
            except Exception:
                phase = {"seed": seed,
                         "error": traceback.format_exc(limit=-3).strip()}
            if tracer is not None:
                phase["trace"] = tracer.totals()
            phases.append(phase)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.stop()
    print(json.dumps({
        "workload": workload.name,
        "phases": phases,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "leftover_wrappers": leftover_wrappers() if tracer is not None else [],
        "missing_targets": tracer.missing if tracer is not None else [],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
