"""Detector stages: the pluggable middle layer of the censor pipeline.

The paper's hand-built length/entropy classifier (:mod:`.detector`) is
one point in a space of passive detectors the real censor plausibly runs
side by side — related work documents entropy-threshold attacks,
packet-length-distribution classifiers, and per-protocol detectors for
VMess-style proxies.  This module makes that space first-class:

* :class:`DetectorStage` — the in-path protocol: ``evaluate`` one
  feature packet (a :class:`DetectorContext`) to a :class:`StageResult`,
  or ``evaluate_batch`` a sequence of them in order;
* a **registry** (:func:`register_stage` / :func:`build_stage`) that
  constructs stages from JSON-able specs, so scenario configs and the
  CLI (``--detectors``) can swap and compose detectors without code;
* **ensemble combinators** — ``any`` / ``all`` / ``weighted`` — that
  compose member stages into one in-path detector, which is how
  detector-ensemble ablations run against the full probing/blocking
  pipeline instead of offline payload sets.

Determinism contract: a stage must draw from ``ctx.rng`` either *never*
or *exactly once per evaluation*, regardless of the payload.  Ensembles
always evaluate every member (no short-circuiting), so the RNG stream
consumed by a composed pipeline is independent of individual member
outcomes — the property that keeps seeded runs reproducible when
detectors are ablated in and out.

Spec grammar (JSON-able, canonicalizable into scenario params)::

    "passive"                                     # bare kind
    {"kind": "passive", "base_rate": 1.0}         # kind + constructor args
    {"kind": "any", "members": ["passive", {"kind": "entropy"}]}
    {"kind": "weighted", "members": [...], "weights": [...], "threshold": 0.5}
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from .altdetectors import EntropyClassifier, LengthDistributionClassifier
from .detector import DetectorConfig, PassiveDetector
from .entropy import shannon_entropy

__all__ = [
    "DetectorContext",
    "DetectorStage",
    "EnsembleStage",
    "EntropyStage",
    "LengthDistStage",
    "PassiveStage",
    "StageResult",
    "TorStage",
    "VmessStage",
    "build_stage",
    "register_stage",
    "stage_kinds",
    "training_corpus",
]

DetectorSpec = Union[str, Mapping[str, Any]]


@dataclass(frozen=True)
class StageResult:
    """One stage's decision on one feature packet."""

    flagged: bool
    score: float        # the probability / likelihood behind the decision
    stage: str          # kind of the deciding stage ("passive", "any", ...)
    # Protocol classification of the flagged traffic, selecting the
    # censor's probing playbook downstream (None -> default, i.e. the
    # paper's Shadowsocks model).  Stages that recognize a specific
    # protocol (vmess, tor) set it; generic stages leave it None.
    protocol: Optional[str] = None


class DetectorContext:
    """Everything a stage may inspect about one feature packet.

    Shared across every stage of an ensemble so derived features are
    computed once: :attr:`entropy` is lazy and memoized, which keeps an
    ensemble of three entropy-consuming stages at one histogram pass.
    ``flow`` is the sensor-layer :class:`~repro.gfw.flowtable.FlowState`
    (``None`` for offline corpus evaluation); stateful stages keep
    per-connection scratch in ``flow.scratchpad()``.  Without a caller
    RNG, :attr:`rng` is a ``Random(0)`` built on first use, so stages
    that never draw cost nothing for it.
    """

    __slots__ = ("payload", "now", "_rng", "flow", "_entropy")

    def __init__(self, payload: bytes, *, now: float = 0.0,
                 rng: Optional[random.Random] = None, flow: Any = None):
        self.payload = payload
        self.now = now
        self._rng = rng
        self.flow = flow
        self._entropy: Optional[float] = None

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(0)
        return self._rng

    @property
    def entropy(self) -> float:
        if self._entropy is None:
            self._entropy = shannon_entropy(self.payload)
        return self._entropy


class DetectorStage:
    """In-path detector protocol; subclasses register with a ``kind``."""

    kind: str = ""

    def spec(self) -> Dict[str, Any]:
        """JSON-able ``{"kind": ..., **params}`` rebuilding this stage."""
        raise NotImplementedError

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        raise NotImplementedError

    def evaluate_batch(self, ctxs: Sequence[DetectorContext]) -> List[StageResult]:
        """Evaluate a sequence of feature packets.

        Maps :meth:`evaluate` over ``ctxs`` in order.  The censor calls
        it with the one feature packet it is deciding.
        """
        return [self.evaluate(ctx) for ctx in ctxs]


_STAGES: Dict[str, Callable[..., DetectorStage]] = {}


def register_stage(cls):
    """Class decorator: make a stage constructible from its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    _STAGES[cls.kind] = cls
    return cls


def stage_kinds() -> List[str]:
    return sorted(_STAGES)


def build_stage(spec: DetectorSpec) -> DetectorStage:
    """Construct a stage tree from a JSON-able spec (see module doc)."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping):
        raise TypeError(f"detector spec must be a string or mapping, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError(f"detector spec {spec!r} has no 'kind'")
    try:
        cls = _STAGES[kind]
    except KeyError:
        known = ", ".join(stage_kinds()) or "(none)"
        raise KeyError(f"unknown detector kind {kind!r}; registered: {known}")
    if "members" in params:
        params["members"] = [build_stage(m) for m in params["members"]]
    return cls(**params)


# -------------------------------------------------------------- leaf stages


@register_stage
class PassiveStage(DetectorStage):
    """The paper's generative length/entropy classifier, in-path.

    Wraps :class:`~repro.gfw.detector.PassiveDetector` and samples its
    flag probability with exactly one ``ctx.rng`` draw per packet — the
    same draw the monolithic firewall made, which is what keeps the
    default pipeline byte-identical to the pre-refactor censor.
    """

    kind = "passive"

    def __init__(self, detector: Optional[PassiveDetector] = None, **config: Any):
        if detector is not None and config:
            raise ValueError("pass either a detector or config fields, not both")
        self.detector = detector or PassiveDetector(DetectorConfig(**config))

    def spec(self) -> Dict[str, Any]:
        cfg, defaults = self.detector.config, DetectorConfig()
        params = {
            name: getattr(cfg, name)
            for name in cfg.__dataclass_fields__
            if getattr(cfg, name) != getattr(defaults, name)
        }
        return {"kind": self.kind, **params}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        probability = self.detector.flag_probability(ctx.payload)
        return StageResult(ctx.rng.random() < probability, probability, self.kind)


@register_stage
class EntropyStage(DetectorStage):
    """Entropy-threshold detector (§8's sssniff family), in-path.

    Deterministic: flags every first packet at or above the threshold.
    """

    kind = "entropy"

    def __init__(self, threshold: float = 7.0, min_length: int = 16):
        self.classifier = EntropyClassifier(threshold=threshold,
                                            min_length=min_length)

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "threshold": self.classifier.threshold,
                "min_length": self.classifier.min_length}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        if len(ctx.payload) < self.classifier.min_length:
            return StageResult(False, 0.0, self.kind)
        return StageResult(ctx.entropy >= self.classifier.threshold,
                           ctx.entropy / 8.0, self.kind)


@register_stage
class LengthDistStage(DetectorStage):
    """Packet-length likelihood-ratio detector (Madeye's sssniff), in-path.

    Wraps a :class:`~repro.gfw.altdetectors.LengthDistributionClassifier`
    fitted on a deterministic synthetic corpus (Shadowsocks first packets
    vs plaintext HTTP/TLS first packets) derived from ``train_seed``, so
    the fitted stage is reproducible from its spec alone.  The score is
    the likelihood ratio, which makes this stage a natural member of
    ``weighted`` ensembles.
    """

    kind = "length-dist"

    def __init__(self, bin_width: int = 32, ratio_threshold: float = 1.0,
                 train_seed: int = 7, train_samples: int = 400,
                 train_method: str = "chacha20-ietf-poly1305"):
        self.train_seed = train_seed
        self.train_samples = train_samples
        self.train_method = train_method
        positives, negatives = training_corpus(
            seed=train_seed, samples=train_samples, method=train_method)
        self.classifier = LengthDistributionClassifier(
            bin_width=bin_width, ratio_threshold=ratio_threshold,
        ).fit(positives, negatives)

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "bin_width": self.classifier.bin_width,
                "ratio_threshold": self.classifier.ratio_threshold,
                "train_seed": self.train_seed,
                "train_samples": self.train_samples,
                "train_method": self.train_method}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        ratio = self.classifier.likelihood_ratio(ctx.payload)
        return StageResult(ratio > self.classifier.ratio_threshold, ratio,
                           self.kind)


# VMess legacy header geometry (see repro.vmess.protocol): 16-byte
# HMAC-MD5 auth + AES-128-CFB command section of 45 fixed bytes, plus
# the address (4 for IPv4, 1+len for hostnames) and 0-15 padding bytes.
VMESS_AUTH_LEN = 16
VMESS_COMMAND_FIXED = 45
VMESS_MIN_FIRST = VMESS_AUTH_LEN + VMESS_COMMAND_FIXED + 4          # IPv4, no pad
VMESS_MAX_HEADER = VMESS_AUTH_LEN + VMESS_COMMAND_FIXED + 1 + 255 + 15


@register_stage
class VmessStage(DetectorStage):
    """VMess-aware length/entropy detector (the paper's §9 outlook).

    A legacy VMess first packet is an HMAC-MD5 tag followed by AES-CFB
    ciphertext — indistinguishable from random, like Shadowsocks — but
    its *length* is confined to the header geometry above (plus any
    coalesced first data chunk).  The stage flags first packets that are
    both high-entropy and long enough to carry a VMess handshake,
    mirroring how the random-data trigger would extend to VMess.
    """

    kind = "vmess"

    def __init__(self, entropy_min: float = 7.0, min_length: int = VMESS_MIN_FIRST,
                 max_length: int = 0):
        self.entropy_min = entropy_min
        self.min_length = min_length
        # 0 = unbounded: first packets may coalesce header + data.
        self.max_length = max_length

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "entropy_min": self.entropy_min,
                "min_length": self.min_length, "max_length": self.max_length}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        length = len(ctx.payload)
        if length < self.min_length:
            return StageResult(False, 0.0, self.kind)
        if self.max_length and length > self.max_length:
            return StageResult(False, 0.0, self.kind)
        return StageResult(ctx.entropy >= self.entropy_min, ctx.entropy / 8.0,
                           self.kind)


# Tor cell wire constants (see repro.obfs.wire): a VERSIONS cell is
# CIRCID(2) | CMD(1)=7 | LEN(2) | LEN/2 u16 versions.
TOR_VERSIONS_PREFIX = b"\x00\x00\x07"


@register_stage
class TorStage(DetectorStage):
    """Tor/obfs bridge detector (Winter & Lindskog's DPI trigger).

    Two triggers, both deterministic:

    * **Vanilla Tor** — the first packet parses as a Tor VERSIONS cell
      (the DPI fingerprint the GFW was observed to match);
    * **obfs-style fully encrypted** — the first packet is
      near-maximum-entropy for its length with no printable structure,
      in a handshake-sized band.  Entropy is compared as a *ratio* of
      the per-length maximum (``log2(n)`` caps the observable entropy of
      an ``n``-byte packet), so short obfs handshakes are not missed the
      way an absolute 7-bit threshold would.

    Flagged packets carry ``protocol="tor"``, routing the endpoint to
    the Tor probing playbook instead of the Shadowsocks replay model.
    """

    kind = "tor"

    def __init__(self, min_length: int = 32, max_length: int = 16384,
                 entropy_efficiency: float = 0.9):
        self.min_length = min_length
        self.max_length = max_length
        self.entropy_efficiency = entropy_efficiency

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "min_length": self.min_length,
                "max_length": self.max_length,
                "entropy_efficiency": self.entropy_efficiency}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        payload = ctx.payload
        length = len(payload)
        if length >= 5 and payload.startswith(TOR_VERSIONS_PREFIX):
            body_len = int.from_bytes(payload[3:5], "big")
            if body_len % 2 == 0 and length >= 5 + body_len:
                return StageResult(True, 1.0, self.kind, protocol="tor")
        if length < self.min_length or length > self.max_length:
            return StageResult(False, 0.0, self.kind)
        cap = min(8.0, math.log2(length))
        efficiency = ctx.entropy / cap if cap > 0 else 0.0
        flagged = efficiency >= self.entropy_efficiency
        return StageResult(flagged, efficiency, self.kind,
                           protocol="tor" if flagged else None)


# ---------------------------------------------------------------- ensembles


class EnsembleStage(DetectorStage):
    """Common machinery for stages composed of member stages."""

    def __init__(self, members: Sequence[DetectorStage]):
        if not members:
            raise ValueError(f"{self.kind!r} ensemble needs at least one member")
        self.members = list(members)

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "members": [m.spec() for m in self.members]}

    def _evaluate_members(self, ctx: DetectorContext) -> List[StageResult]:
        # Every member always runs: the RNG stream consumed must not
        # depend on earlier members' outcomes (see module doc).
        return [member.evaluate(ctx) for member in self.members]

    @staticmethod
    def _protocol_of(results: Sequence[StageResult]) -> Optional[str]:
        """Propagate the first flagged member's protocol classification."""
        for r in results:
            if r.flagged and r.protocol is not None:
                return r.protocol
        return None


@register_stage
class AnyStage(EnsembleStage):
    """Flag when *any* member flags (union of detectors)."""

    kind = "any"

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        results = self._evaluate_members(ctx)
        return StageResult(any(r.flagged for r in results),
                           max(r.score for r in results), self.kind,
                           protocol=self._protocol_of(results))


@register_stage
class AllStage(EnsembleStage):
    """Flag only when *every* member flags (intersection)."""

    kind = "all"

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        results = self._evaluate_members(ctx)
        return StageResult(all(r.flagged for r in results),
                           min(r.score for r in results), self.kind,
                           protocol=self._protocol_of(results))


@register_stage
class WeightedStage(EnsembleStage):
    """Flag when the weighted member-score sum reaches ``threshold``.

    Scores, not booleans, are combined: probabilistic members contribute
    their flag probability, deterministic members their normalized
    feature score, so the ensemble is a calibrated linear vote.
    """

    kind = "weighted"

    def __init__(self, members: Sequence[DetectorStage],
                 weights: Optional[Sequence[float]] = None,
                 threshold: float = 0.5):
        super().__init__(members)
        self.weights = list(weights) if weights is not None else [1.0] * len(self.members)
        if len(self.weights) != len(self.members):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.members)} members")
        self.threshold = threshold

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "weights": list(self.weights),
                "threshold": self.threshold}

    def evaluate(self, ctx: DetectorContext) -> StageResult:
        results = self._evaluate_members(ctx)
        score = sum(w * r.score for w, r in zip(self.weights, results))
        return StageResult(score >= self.threshold, score, self.kind,
                           protocol=self._protocol_of(results))


# ---------------------------------------------------------- training corpus


def training_corpus(seed: int = 7, samples: int = 400,
                    method: str = "chacha20-ietf-poly1305"):
    """Deterministic (positives, negatives) first-packet sets.

    Positives are Shadowsocks AEAD first packets (salt + encrypted
    target + request); negatives are plaintext HTTP GETs and TLS
    ClientHellos — the same generators the detector-feature ablation
    uses.  Everything derives from ``seed``, so trainable stages built
    from a spec are reproducible across processes.
    """
    # Imported lazily: repro.workloads/shadowsocks must not become
    # import-time dependencies of the gfw package.
    from ..shadowsocks import encode_target
    from ..shadowsocks.aead_session import AeadEncryptor, aead_master_key
    from ..workloads import SITES, http_get_request, site_request, tls_client_hello

    rng = random.Random(seed)
    master = aead_master_key("pw", method)
    positives = []
    for _ in range(samples):
        site = rng.choice(SITES)
        payload = encode_target(site, 443) + site_request(site, rng)
        enc = AeadEncryptor(method, master, rng=rng)
        positives.append(enc.encrypt(payload))
    negatives = []
    for _ in range(samples):
        site = rng.choice(SITES)
        if rng.random() < 0.5:
            negatives.append(http_get_request(site, rng))
        else:
            negatives.append(tls_client_hello(site, rng))
    return positives, negatives
