"""Deterministic flow partitioning: one world, N disjoint shards.

A *shard* is one slice of a single scenario's client/flow space,
executed in its own worker process with its own Simulator, GFW flow
table, and analyzer set, then recombined into results byte-identical
with the serial run.  Everything here is the arithmetic that makes that
recombination safe:

* :func:`flow_key` — a seed-stable 64-bit key of an arbitrary
  JSON-able label.  Built on BLAKE2b over a canonical encoding, *never*
  on Python's ``hash()``: the builtin is randomized per interpreter
  (``PYTHONHASHSEED``), which would scatter flows across different
  shards on every run.  The runner's unit partitioner keys on it, and
  so do the per-flow shapes of the scale harness
  (:mod:`repro.runtime.scale`), so a flow looks the same in every shard
  subset.
* :func:`shard_of` / :func:`partition` — key → shard index, and the
  full assignment of an ordered unit list onto ``count`` shards.
* :func:`derive_seed` — a stable per-unit seed from (seed, label), so
  a unit simulates identically whether it runs in the serial world or
  inside any shard subset.  (Index-derived seeds like ``seed + i``
  break under restriction: dropping one unit would reseed every later
  one.)
* :class:`Sharder` — the declaration a :class:`~repro.runtime.scenario.
  Scenario` carries to make itself shardable: how its workload splits
  into ordered units, how to restrict its params to a unit subset, and
  how per-shard results recombine (``cases`` vs ``flows`` mode).

The module deliberately imports nothing from the net/gfw stack so both
sides of the runtime can use it without cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "Sharder",
    "ShardingError",
    "derive_seed",
    "flow_key",
    "fold_snapshots",
    "partition",
    "shard_of",
]


class ShardingError(RuntimeError):
    """A sharded execution request that cannot be honoured."""


def _canonical_bytes(part: Any) -> bytes:
    """A type-tagged, platform-stable byte encoding of one key part.

    Type tags keep ``1``, ``"1"`` and ``(1,)`` distinct; recursion
    covers the nested tuples connection keys are made of.
    """
    if isinstance(part, bytes):
        return b"b:" + part
    if isinstance(part, str):
        return b"s:" + part.encode("utf-8")
    if isinstance(part, bool):
        return b"B:1" if part else b"B:0"
    if isinstance(part, int):
        return b"i:%d" % part
    if isinstance(part, float):
        return b"f:" + repr(part).encode("ascii")
    if part is None:
        return b"n:"
    if isinstance(part, (tuple, list)):
        return b"t:" + b"\x1e".join(_canonical_bytes(p) for p in part)
    raise TypeError(f"flow_key part {part!r} is not canonically hashable")


def flow_key(*parts: Any) -> int:
    """Seed-stable 64-bit key of the canonical encoding of ``parts``.

    Identical across interpreter restarts, platforms, and
    ``PYTHONHASHSEED`` values (property-tested), which is the contract
    that lets shard assignment live in cache keys and on-disk manifests.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(_canonical_bytes(part))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


def shard_of(key: int, count: int) -> int:
    """Which of ``count`` shards owns ``key``."""
    if count < 1:
        raise ShardingError(f"shard count must be >= 1, got {count}")
    return key % count


def partition(labels: Sequence[str], count: int) -> List[List[str]]:
    """Assign ordered unit labels onto ``count`` shards, order-preserving.

    Each shard's list keeps the global unit order restricted to its own
    members, so a shard can rebuild its slice of the workload in exactly
    the order the serial run would have executed it.
    """
    shards: List[List[str]] = [[] for _ in range(max(count, 1))]
    if count < 1:
        raise ShardingError(f"shard count must be >= 1, got {count}")
    for label in labels:
        shards[shard_of(flow_key(label), count)].append(label)
    return shards


def fold_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold bus snapshots in order, with ``EventBus.absorb`` arithmetic.

    Counters are integer sums.  Scalar aggregates fold exactly the way
    a live aggregator bus folds per-unit buses — first occurrence
    copied, later ones ``count``/``sum`` added and ``min``/``max``
    compared *in fold order* — so a shard merge that replays the serial
    unit order reproduces the serial floats bit-for-bit, non-associative
    float addition included.
    """
    counters: Dict[str, int] = {}
    scalars: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        for name, n in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(n)
        for name, agg in (snap.get("scalars") or {}).items():
            mine = scalars.get(name)
            if mine is None:
                scalars[name] = {"count": agg["count"], "sum": agg["sum"],
                                 "min": agg["min"], "max": agg["max"]}
            else:
                mine["count"] += agg["count"]
                mine["sum"] += agg["sum"]
                mine["min"] = min(mine["min"], agg["min"])
                mine["max"] = max(mine["max"], agg["max"])
    return {
        "counters": dict(sorted(counters.items())),
        "scalars": {name: scalars[name] for name in sorted(scalars)},
    }


def derive_seed(seed: int, *parts: Any) -> int:
    """A stable per-unit RNG seed from the run seed and the unit label.

    Bounded to 31 bits so it stays a plain (JSON-able, cross-platform)
    int wherever it lands in params or manifests.
    """
    return flow_key(int(seed), *parts) % (1 << 31)


@dataclass(frozen=True)
class Sharder:
    """How one scenario's workload splits into shardable units.

    ``mode`` selects the recombination law:

    * ``"cases"`` — every unit is an independent sub-experiment (its own
      world, its own bus) whose label keys a slice of the payload and a
      per-unit bus snapshot under ``events["units"]``.  The merge unions
      payload/analysis slices and re-folds per-unit bus snapshots in
      global unit order — the same arithmetic, in the same order, as the
      serial builder's ``bus.absorb`` fold, so floats land identically.
    * ``"flows"`` — units are blocks of independent flows sharing one
      world per shard.  Counters are integer sums; analyzer states merge
      through :meth:`~repro.analysis.pipeline.Analyzer.merge`; the
      payload is re-derived from the merged analyzer outputs via
      ``payload_from_analysis`` (the same function the serial summarizer
      uses).  Scalar (float) bus series are rejected in this mode —
      their fold order would not be reproducible.
    """

    mode: str
    units: Callable[[Any], List[str]]
    restrict: Callable[[Any, Sequence[str]], Dict[str, Any]]
    payload_from_analysis: Optional[
        Callable[[Mapping[str, Any]], Dict[str, Any]]
    ] = None

    def __post_init__(self) -> None:
        if self.mode not in ("cases", "flows"):
            raise ValueError(f"unknown sharder mode {self.mode!r}")
