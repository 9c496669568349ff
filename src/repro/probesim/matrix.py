"""Reaction matrices: the machinery behind Figure 10 and Table 5.

A *cell* aggregates the server's reactions to repeated random probes of
one length; a *row* sweeps lengths for one (implementation, cipher)
pair.  Rows render to the same compact notation the paper's figure uses
("TIMEOUT", "RST", "RST (above 13/16) or TIMEOUT/FIN-ACK (below 3/16)").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto import get_spec
from ..gfw.probes import ProbeType
from .reactions import ReactionKind
from .simulator import ProberSimulator

__all__ = ["ReactionCell", "ReactionRow", "build_random_probe_row",
           "build_replay_table", "summarize_transitions"]


@dataclass
class ReactionCell:
    """Reactions observed for one probe length."""

    length: int
    counts: Counter = field(default_factory=Counter)

    def add(self, reaction: str) -> None:
        self.counts[reaction] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, reaction: str) -> float:
        return self.counts.get(reaction, 0) / self.total if self.total else 0.0

    @property
    def dominant(self) -> str:
        return self.counts.most_common(1)[0][0] if self.counts else "-"

    def label(self) -> str:
        """Figure-10-style cell label."""
        if not self.counts:
            return "-"
        if len(self.counts) == 1:
            return next(iter(self.counts))
        parts = [f"{r} ({c}/{self.total})" for r, c in self.counts.most_common()]
        return " or ".join(parts)


@dataclass
class ReactionRow:
    """One sweep row: (implementation, method) over many probe lengths."""

    profile: str
    method: str
    nonce_len: int  # IV or salt length
    cells: Dict[int, ReactionCell] = field(default_factory=dict)

    def cell(self, length: int) -> ReactionCell:
        if length not in self.cells:
            self.cells[length] = ReactionCell(length)
        return self.cells[length]

    def first_length_with(self, reaction: str, min_fraction: float = 0.5) -> Optional[int]:
        for length in sorted(self.cells):
            if self.cells[length].fraction(reaction) >= min_fraction:
                return length
        return None


def build_random_probe_row(
    profile: str,
    method: str,
    lengths: Iterable[int],
    trials: int = 8,
    seed: int = 0,
    bus=None,
) -> ReactionRow:
    """Probe a fresh server model with random payloads of each length.

    ``bus`` (an :class:`repro.runtime.events.EventBus`) absorbs the
    sweep's instrumentation tallies when provided.
    """
    spec = get_spec(method)
    profile_name = profile if isinstance(profile, str) else profile.name
    row = ReactionRow(profile=profile_name, method=method, nonce_len=spec.iv_len)
    simulator = ProberSimulator(profile, method, seed=seed)
    for length in lengths:
        for t in range(trials):
            result = simulator.send_random_probe(length)
            row.cell(length).add(result.reaction)
    if bus is not None:
        bus.absorb(simulator.sim.bus)
    return row


def build_replay_table(
    profiles_methods: Sequence[Tuple[str, str]],
    trials: int = 6,
    seed: int = 0,
    bus=None,
) -> Dict[Tuple[str, str], Dict[str, Counter]]:
    """Table 5: reactions to identical vs byte-changed replays.

    Returns ``{(profile, method): {"identical": Counter, "byte-changed":
    Counter}}``.  ``bus`` absorbs per-world instrumentation when given.
    """
    table: Dict[Tuple[str, str], Dict[str, Counter]] = {}
    for profile, method in profiles_methods:
        identical: Counter = Counter()
        changed: Counter = Counter()
        for t in range(trials):
            sim = ProberSimulator(profile, method, seed=seed + 101 * t)
            payload = sim.record_legitimate_payload()
            results = sim.replay_battery(payload)
            identical[results[ProbeType.R1].reaction] += 1
            for probe_type in (ProbeType.R2, ProbeType.R3, ProbeType.R5):
                changed[results[probe_type].reaction] += 1
            # R4 behaves differently by construction (byte 16 may sit inside
            # or beyond the nonce) — still a byte-changed replay.
            changed[results[ProbeType.R4].reaction] += 1
            if bus is not None:
                bus.absorb(sim.sim.bus)
        table[(profile, method)] = {"identical": identical, "byte-changed": changed}
    return table


def summarize_transitions(row: ReactionRow) -> List[Tuple[int, str]]:
    """Compress a row into (threshold_length, label) change points."""
    out: List[Tuple[int, str]] = []
    last_label = None
    for length in sorted(row.cells):
        label = row.cells[length].dominant
        if label != last_label:
            out.append((length, label))
            last_label = label
    return out
