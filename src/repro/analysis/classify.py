"""Measurement-side probe classification (the method behind §3.2).

A probe's first payload is typed R1–R6 / NR1–NR3 by diffing it against
the recorded legitimate payloads — exactly how the paper's authors
decided "replay with byte 0 changed" etc.
:class:`~repro.analysis.pipeline.CaptureProbeClassifier` streams a
server capture, picks out the connections that did not come from the
experimenter's own clients, and types them with :func:`classify_payload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..gfw.probes import NR1_LENGTHS, NR2_LENGTH, NR3_LENGTHS, ProbeType

__all__ = ["ObservedProbe", "classify_payload"]

# Offset-set signatures for the byte-changed replay types.
_SIGNATURES: List[Tuple[str, Set[int]]] = [
    (ProbeType.R2, {0}),
    (ProbeType.R3, set(range(8)) | {62, 63}),
    (ProbeType.R4, {16}),
    (ProbeType.R5, {6, 16}),
    (ProbeType.R6, set(range(16, 33))),
]
# Every signature offset is below this, so a replay matches its
# original from this offset on.
_SIGNED_BYTES = 1 + max(max(signature) for _, signature in _SIGNATURES)


@dataclass
class ObservedProbe:
    """One probe connection reconstructed from a capture."""

    time: float
    src_ip: str
    src_port: int
    dst_port: int
    payload: bytes
    probe_type: str
    matched_payload: Optional[bytes] = None  # the legit payload it replays
    syn_tsval: Optional[int] = None
    syn_ttl: Optional[int] = None


def classify_payload(payload: bytes,
                     legit_payloads: Sequence[bytes]) -> Tuple[str, Optional[bytes]]:
    """Type one probe payload against the recorded legitimate payloads
    (only those of its length can match; the first match wins)."""
    tail = payload[_SIGNED_BYTES:]
    for candidate in legit_payloads:
        if len(candidate) != len(payload) or candidate[_SIGNED_BYTES:] != tail:
            continue
        if candidate == payload:
            return ProbeType.R1, candidate
        diff = {i for i, (a, b) in enumerate(zip(payload[:_SIGNED_BYTES], candidate))
                if a != b}
        for probe_type, signature in _SIGNATURES:
            effective = {off for off in signature if off < len(payload)}
            if diff and diff <= effective:
                return probe_type, candidate
    if len(payload) in NR1_LENGTHS:
        return ProbeType.NR1, None
    if len(payload) == NR2_LENGTH:
        return ProbeType.NR2, None
    if len(payload) in NR3_LENGTHS:
        return ProbeType.NR3, None
    return "UNKNOWN", None

