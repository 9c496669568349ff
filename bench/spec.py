"""What the repository benchmark runs, and what each layer metric should move.

``BENCHMARK.json`` at the repository root is the contract: workload
names, metric names, units, directions and regression bounds.  This
module holds what the contract leaves to the benchmark: the scenario and
parameters behind each workload (full size and ``--smoke`` size), the
pinned output digests, and the layer -> end-to-end map that says which
end-to-end metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"
DIGESTS = BENCH / "digests.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registered scenario at fixed parameters.

    ``shards`` selects ``run_sharded`` with the shards run one after
    another in-process (``jobs=1``); ``None`` selects ``run_scenario``.
    """

    name: str
    scenario: str
    overrides: Mapping[str, Any]
    smoke: Mapping[str, Any]
    shards: Optional[int] = None

    def params(self, smoke: bool) -> Dict[str, Any]:
        return dict(self.smoke if smoke else self.overrides)


# Sizes are chosen so one cold run takes 1.1-2.2 s on a 2-core x86
# host: a 25 s run then holds four to nine rounds, whose median
# rejects a round that caught a sudden change of CPU speed (README.md,
# "Time at reference CPU speed").
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # §3.1: 5 libev pairs + 1 Outline pair, 900 ChaCha20-Poly1305
    # connections over 3.5 simulated days under the passive detector,
    # the prober fleet and 11 analyzers.  Pristine links, so both batched
    # datapaths run and sealed records are reopened (record memo hits).
    Workload(
        name="tunnel",
        scenario="shadowsocks",
        overrides={"libev_pairs": 5, "connections_per_pair": 150,
                   "duration": 3.5 * 24 * 3600.0},
        smoke={"libev_pairs": 1, "connections_per_pair": 24,
               "duration": 4 * 3600.0},
    ),
    # The same proxy stack on an impaired path: no rx bursts, TCP
    # retransmission and reassembly do the work.  (Not `quickstart`: its
    # client RNG is fixed for every seed, so a warm run reuses memo
    # entries of the cold one.)
    Workload(
        name="lossy-tunnel",
        scenario="impairment-matrix",
        overrides={"loss_rates": [0.02], "reorder_rates": [0.05],
                   "connections": 750, "interval": 20.0,
                   "duration": 18600.0},
        smoke={"loss_rates": [0.02], "reorder_rates": [0.05],
               "connections": 40, "interval": 20.0, "duration": 1800.0},
    ),
    # §5.1 / Figure 10: short random probes against every compatible
    # (profile, cipher) row; every AEAD open fails authentication.
    Workload(
        name="probe-battery",
        scenario="probesim-grid",
        overrides={"trials": 16},
        smoke={"trials": 2, "lengths": [1, 50, 221]},
    ),
    # The censor's flow-scale hot path: 64 blocks of 192 flows through
    # FlowTable, the entropy stage and FlowCensus, partitioned into two
    # shards (64 blocks split 30/34; fewer split far less evenly) and
    # merged.  The shards run in one process: as two worker processes on
    # a 2-core host they measured the other core and the scheduler.
    Workload(
        name="census",
        scenario="scale-1m",
        overrides={"flows": 12288, "block_size": 192},
        smoke={"flows": 8192, "block_size": 1024},
        shards=2,
    ),
)}


# Per-layer metric -> (end-to-end metric it should move, workloads where
# it should move it).  Written down before measuring (see README.md).
_TCP_PATH = ("tunnel", "lossy-tunnel")
_ALL = tuple(WORKLOADS)
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    **{f"net.sim.{m}": ("events_per_s", ("census", "probe-battery"))
       for m in ("self_s", "events", "callbacks")},
    **{f"net.network.{m}": ("events_per_s", _TCP_PATH)
       for m in ("self_s", "segments", "burst_share")},
    "net.host.self_s": ("events_per_s", _TCP_PATH),
    **{f"net.tcp.{m}": ("events_per_s", _TCP_PATH)
       for m in ("self_s", "segments", "burst_share", "retransmits")},
    "gfw.self_s": ("events_per_s", ("census",)),
    **{f"gfw.flowtable.{m}": ("events_per_s", ("census",))
       for m in ("self_s", "tracked")},
    **{f"gfw.stages.{m}": ("events_per_s", ("census",))
       for m in ("self_s", "evals", "flag_share")},
    **{f"gfw.entropy.{m}": ("events_per_s", ("census",))
       for m in ("self_s", "calls", "repeat_share")},
    **{f"gfw.probing.{m}": ("events_per_s", ("tunnel",))
       for m in ("self_s", "probes")},
    **{f"crypto.aead.{m}": ("events_per_s", _TCP_PATH)
       for m in ("self_s", "calls", "bytes", "open_fail_share")},
    **{f"crypto.stream.{m}": ("events_per_s", ("probe-battery",))
       for m in ("self_s", "bytes")},
    "crypto.record_memo.hit_rate": ("events_per_s", _TCP_PATH),
    "crypto.record_memo.warm_hit_rate": ("warm_events_per_s", _TCP_PATH),
    **{f"crypto.setup.{m}": ("events_per_s", ("probe-battery",))
       for m in ("self_s", "calls")},
    **{f"crypto.kdf.{m}": ("events_per_s", ("probe-battery",))
       for m in ("self_s", "calls", "hit_rate")},
    "crypto.kdf.warm_hit_rate": ("warm_events_per_s", _ALL),
    "crypto.chacha_block.hit_rate": ("events_per_s", ("probe-battery",)),
    "crypto.chacha_block.warm_hit_rate": ("warm_events_per_s", _ALL),
    **{f"shadowsocks.{m}": ("events_per_s", ("tunnel", "probe-battery"))
       for m in ("self_s", "sessions")},
    "probesim.self_s": ("events_per_s", ("probe-battery",)),
    **{f"analysis.{m}": ("events_per_s", ("tunnel", "census"))
       for m in ("self_s", "records")},
    "runtime.events.self_s": ("events_per_s", ("tunnel", "census")),
    **{f"runtime.{m}": ("events_per_s", ("census",))
       for m in ("self_s", "shard_imbalance", "shard_merge_s")},
    "workloads.self_s": ("events_per_s", ("tunnel", "lossy-tunnel", "census")),
    # Measurement health, not layers: they qualify every events_per_s.
    "trace.wall_s": ("events_per_s", _ALL),
    "trace.overhead_frac": ("events_per_s", _ALL),
    "host.cpu_busy_frac": ("events_per_s", _ALL),
}


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT) as fh:
        return json.load(fh)


def load_digests() -> Dict[str, Dict[str, str]]:
    """Pinned sha256 of ``canonical_bytes()`` per workload and seed."""
    with open(DIGESTS) as fh:
        return json.load(fh)
