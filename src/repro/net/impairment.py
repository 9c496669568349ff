"""Path impairment model: loss, reordering, duplication, jitter, flaps.

The paper's measurements ran over the real China↔abroad Internet, where
packet loss, reordering, and link churn perturb exactly the feature the
GFW keys on — the *first data-carrying packet* of a flow.  An
:class:`Impairment` describes one path's fault profile; the
:class:`~repro.net.network.Network` applies it at delivery scheduling
time, drawing every random decision from the network's dedicated,
seed-derived RNG so impaired runs stay byte-reproducible.

Semantics (all independent per segment):

* ``loss`` — probability the segment is silently dropped in flight;
* ``reorder`` / ``reorder_skew`` — probability the segment is held back
  by an extra ``reorder_skew`` seconds, letting later segments overtake
  it (the classic multi-path reordering mechanism);
* ``duplicate`` — probability the segment is delivered twice (the copy
  trails by ``duplicate_gap`` seconds);
* ``jitter`` — uniform extra latency in ``[0, jitter)`` seconds;
* ``flaps`` — scheduled ``[start, end)`` blackout windows during which
  the link delivers nothing (link-level outages and prober churn).

An impairment with every rate at zero and no flap windows is *inactive*
and is treated exactly like no impairment at all: the network takes the
pristine fast path, draws nothing from its RNG, and TCP endpoints keep
their no-retransmission machinery — so zero-impairment runs are
byte-identical to runs that never heard of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Impairment"]


@dataclass(frozen=True)
class Impairment:
    """Fault profile of one network path (probabilities per segment)."""

    loss: float = 0.0
    reorder: float = 0.0
    reorder_skew: float = 0.03      # seconds a reordered segment is held back
    duplicate: float = 0.0
    duplicate_gap: float = 0.001    # seconds between a segment and its copy
    jitter: float = 0.0             # uniform extra latency in [0, jitter)
    flaps: Tuple[Tuple[float, float], ...] = ()  # [start, end) blackouts

    def __post_init__(self) -> None:
        for name in ("loss", "reorder", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        for name in ("reorder_skew", "duplicate_gap", "jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for window in self.flaps:
            start, end = window
            if not start < end:
                raise ValueError(f"bad flap window {window!r}")

    @property
    def active(self) -> bool:
        """Whether this impairment can affect any segment at all."""
        return bool(
            self.loss or self.reorder or self.duplicate or self.jitter
            or self.flaps
        )

    def is_down(self, t: float) -> bool:
        """Whether the link is inside a blackout window at time ``t``."""
        if not self.flaps:
            return False
        return any(start <= t < end for start, end in self.flaps)
