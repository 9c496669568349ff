"""Process-wide memos belong to one unit of work.

A memo is module-level state that remembers results computed from run
data (payload bytes, keys, nonces, sealed records), so that a later call
can skip the work.  Each memo registers here with
``register(name, clear, size)``, and the runner calls ``clear_all()``
right before it builds each unit of work (one scenario, one seed, one
shard), in process and in pool workers alike.  So a run never depends on
what ran before it in the same interpreter, and a memo only pays for
itself with what its own unit reads again.

Module-level state that is not a per-unit memo is declared in
``PROCESS_LIFETIME``, each entry with the reason it may outlive a unit.
``tests/test_memos.py`` walks ``src/`` and fails on module-level
containers, ``lru_cache`` functions and ``global`` names that are
neither registered nor declared.

This module imports nothing from ``repro``: crypto code imports it, and
``repro.runtime`` imports the runner, so a home under ``repro.runtime``
would close an import cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

__all__ = ["PROCESS_LIFETIME", "clear_all", "register", "sizes"]

# Qualified name ("module.attribute") -> (clear, size).
_MEMOS: Dict[str, Tuple[Callable[[], None], Callable[[], int]]] = {}


def register(name: str, clear: Callable[[], None],
             size: Callable[[], int]) -> None:
    """Register the memo ``name``: ``clear()`` empties it, ``size()``
    counts its entries.  Registering a name again replaces it."""
    _MEMOS[name] = (clear, size)


def clear_all() -> None:
    """Empty every registered memo."""
    for clear, _ in _MEMOS.values():
        clear()


def sizes() -> Dict[str, int]:
    """Entries held by each registered memo, by name."""
    return {name: size() for name, (_, size) in sorted(_MEMOS.items())}


_TABLE = "constant table, filled at import and only read after"
_KINDS = "registry of kinds, filled by register calls at import"

# Module-level state that lives as long as the process, and why.
PROCESS_LIFETIME: Dict[str, str] = {
    "repro.memos._MEMOS": "the memo registry itself",
    "repro.memos.PROCESS_LIFETIME": "this table",
    # Memos that outlive a unit.
    "repro.crypto.kdf.hkdf_sha1":
        "bench/child.py reads its cache_info() as per-phase deltas, which "
        "cache_clear() would reset; a pure function, 1,024 entries",
    "repro.crypto.chacha20.chacha20_block":
        "bench/child.py reads its cache_info() as per-phase deltas; a pure "
        "function that no run calls",
    "repro.gfw.entropy._TERMS":
        "keyed by (payload length, byte count) only, no run data; capped "
        "at 65,536 terms, and a clear per unit only redoes log2 calls",
    "repro.gfw.entropy._terms_stored": "the term count of _TERMS",
    # Switches and process facts.
    "repro.crypto.recordcache._enabled":
        "a switch (set_enabled), not a memo",
    "repro.runtime.cache._FINGERPRINT_CACHE":
        "a hash of the source tree, fixed while the process runs",
    "repro.runtime.events._RECORD_TAPS":
        "the service installs its tap around a whole job and removes it "
        "after; a test checks that none is left",
    # Registries.
    "repro.analysis.pipeline._ANALYZERS": _KINDS,
    "repro.gfw.probing._BEHAVIORS": _KINDS,
    "repro.gfw.stages._STAGES": _KINDS,
    "repro.protocols.base._PROTOCOLS": _KINDS,
    "repro.runtime.scenario._REGISTRY": _KINDS,
    "repro.shadowsocks.implementations.registry.PROFILES": _KINDS,
    # Constant tables.
    "repro.analysis.classify._SIGNATURES": _TABLE,
    "repro.analysis.overlap.PAPER_FIG4_REGIONS": _TABLE,
    "repro.crypto.aead._AEADS": _TABLE,
    "repro.crypto.aes._RCON": _TABLE,
    "repro.crypto.aes._SHIFT_DOWN": _TABLE,
    "repro.crypto.aes._SHIFT_UP": _TABLE,
    "repro.crypto.registry.CIPHERS": _TABLE,
    "repro.crypto.registry._ALL_SPECS": _TABLE,
    "repro.experiments.shadowsocks_exp.CURL_SITES": _TABLE,
    "repro.experiments.sink_exp.TABLE4_EXPERIMENTS": _TABLE,
    "repro.gfw.blocking.SENSITIVE_PERIODS_2019": _TABLE,
    "repro.gfw.delays.FIG7_ANCHORS": _TABLE,
    "repro.gfw.probes._MUTATIONS": _TABLE,
    "repro.gfw.probing.FT_TOR_ANCHORS": _TABLE,
    "repro.net.asdb.AS_TABLE": _TABLE,
    "repro.net.asdb.PAPER_AS_COUNTS": _TABLE,
    "repro.net.asdb._BY_ASN": _TABLE,
    "repro.runtime.scenarios._DEFENSE_CASES_BY_LABEL": _TABLE,
    "repro.service.server._REASONS": _TABLE,
    "repro.workloads.httpgen.SITES": _TABLE,
    "repro.workloads.httpgen._SUITES": _TABLE,
    "repro.workloads.httpgen._USER_AGENTS": _TABLE,
}
