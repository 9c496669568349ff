"""Builtin scenario registrations: every paper harness, one registry.

Importing this module registers the four ``repro.experiments`` harnesses
(§3.1 shadowsocks, §4.1 sink, §7.1 brdgrd, §6 blocking), the §5.1
prober-simulator sweeps (Figure 10 grid and Table 5 replay battery), and
the two ablation matrices the benchmarks exercise — all runnable as

    python -m repro run <name> --seeds N --jobs M [--set key=value ...]

Builders reuse the existing experiment configs as their typed params
(the runner injects the seed), and summarizers reduce each rich result
object to the JSON payload that drives the corresponding figure/table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    AnalysisPipeline,
    FlaggedConnections,
    ProbeBlockDelays,
    ProbeTally,
    VerdictRecords,
)
from ..defense import Brdgrd, harden
from ..experiments import (
    BlockingExperimentConfig,
    BrdgrdExperimentConfig,
    ShadowsocksExperimentConfig,
    SinkExperimentConfig,
    run_blocking_experiment,
    run_brdgrd_experiment,
    run_shadowsocks_experiment,
    run_sink_experiment,
)
from ..gfw import BlockingPolicy, DetectorConfig, PassiveDetector, Reaction
from ..gfw.stages import training_corpus
from ..net import Impairment
from ..probesim import PROBE_LENGTH_SCHEDULE, build_random_probe_row, build_replay_table
from ..protocols import build_protocol
from ..shadowsocks import get_profile
from ..workloads import CurlDriver, http_get_request
from .events import EventBus
from .scenario import Scenario, register
from .sharding import Sharder, derive_seed, fold_snapshots
from .topology import World, build_world

# Registering imports its module; the scale-1m scenario lives there.
from . import scale  # noqa: F401  (registers on import)

# Importing this module registers the builtin scenarios.
__all__ = ["QuickstartConfig", "quickstart_world"]


def _analysis_payload(result) -> Dict[str, object]:
    """Scenario ``analysis_of`` hook for pipeline-bearing experiment results."""
    return result.pipeline.payload()


def _unit_events(unit_buses: Sequence[Tuple[str, EventBus]]) -> Dict[str, object]:
    """Events document for case-sharded scenarios: fold + per-unit detail.

    Each case (sub-experiment) runs against its own bus; the top-level
    ``counters``/``scalars`` are the :func:`fold_snapshots` of the
    per-unit snapshots in unit order — the same arithmetic, in the same
    order, as the old shared-bus ``absorb`` chain — and ``units`` keeps
    the per-unit snapshots so a sharded run can replay the exact fold
    when it recombines (see :func:`repro.runtime.runner.run_sharded`).
    """
    snaps = [(label, bus.snapshot()) for label, bus in unit_buses]
    events = fold_snapshots([snap for _, snap in snaps])
    events["units"] = {label: snap for label, snap in snaps}
    return events


# --------------------------------------------------------------- §3.1


def _summarize_shadowsocks(result) -> Dict[str, object]:
    a = result.pipeline.outputs()
    return {
        "connections": result.connections_made,
        "flagged": a["flagged"]["count"],
        "probes": a["probes"]["count"],
        "probes_by_type": a["probes"]["by_type"],
        "unique_prober_ips": a["probes"]["unique_src_ips"],
        "control_probes": a["control_syns"]["count"],
        "first_replay_delays": a["replay_delays"]["first"],
        "all_replay_delays": a["replay_delays"]["all"],
        "server_probes": {name[len("server:"):]: out["count"]
                          for name, out in sorted(a.items())
                          if name.startswith("server:")},
    }


register(Scenario(
    name="shadowsocks",
    title="§3.1 Shadowsocks measurement (Figures 2-7, Tables 2-3)",
    params_type=ShadowsocksExperimentConfig,
    build=run_shadowsocks_experiment,
    summarize=_summarize_shadowsocks,
    analysis_of=_analysis_payload,
    description="libev + Outline client/server pairs behind the GFW; "
                "probe log and server captures.",
    tags=("experiment", "gfw", "shadowsocks"),
))


# ---------------------------------------------------------- quickstart


@dataclass
class QuickstartConfig:
    """The README/CLI quickstart world as registered-scenario params."""

    seed: int = 7
    connections: int = 40
    profile: str = "outline-1.0.7"
    method: str = "chacha20-ietf-poly1305"
    loss: float = 0.0
    reorder: float = 0.0


@dataclass
class _QuickstartResult:
    world: object
    connections: int


def quickstart_world(params: QuickstartConfig, *,
                     detectors: Any = None) -> World:
    """Build the quickstart world and run its workload to completion.

    One client tunnels ``params.connections`` fetches through a
    Shadowsocks server while the censor watches.  ``detectors`` (a
    detector-stage spec) is the CLI's ``--detectors``; it stays out of
    :class:`QuickstartConfig`, so the registered scenario's params and
    its golden digest do not depend on it.
    """
    impairment = Impairment(loss=params.loss, reorder=params.reorder)
    world = build_world(
        seed=params.seed,
        detector_config=DetectorConfig(base_rate=0.9),
        detectors=detectors,
        websites=["example.com", "gfw.report"],
        impairment=impairment if impairment.active else None)
    server_host = world.add_server("ss-server", region="uk")
    client_host = world.add_client("client")
    proto = build_protocol({"kind": "shadowsocks", "password": "pw",
                            "method": params.method,
                            "profile": params.profile})
    proto.make_server(server_host, 8388)
    client = proto.make_client(client_host, server_host.ip, 8388)
    CurlDriver(client, rng=random.Random(params.seed),
               sites=["example.com", "gfw.report"]).run_schedule(
                   params.connections, 60.0)
    world.sim.run(until=params.connections * 60.0 + 3600)
    return world


def _build_quickstart(params: QuickstartConfig) -> _QuickstartResult:
    return _QuickstartResult(world=quickstart_world(params),
                             connections=params.connections)


def _summarize_quickstart(result: _QuickstartResult) -> Dict[str, object]:
    gfw = result.world.gfw  # type: ignore[attr-defined]
    by_type: Dict[str, int] = {}
    for record in gfw.probe_log:
        by_type[record.probe_type] = by_type.get(record.probe_type, 0) + 1
    return {
        "connections": result.connections,
        "flagged": gfw.flagged_connections,
        "probes": len(gfw.probe_log),
        "probes_by_type": dict(sorted(by_type.items())),
        "unique_prober_ips": len({r.src_ip for r in gfw.probe_log}),
    }


register(Scenario(
    name="quickstart",
    title="Tunnel a Shadowsocks workload under the GFW (README quickstart)",
    params_type=QuickstartConfig,
    build=_build_quickstart,
    summarize=_summarize_quickstart,
    description="The `python -m repro quickstart` world as a registered, "
                "cacheable, service-submittable scenario: one client "
                "tunnels `connections` fetches through a Shadowsocks "
                "server while the paper's passive detector and prober "
                "fleet watch (emits flow.flagged/probe records live).",
    tags=("quickstart", "gfw", "shadowsocks"),
))


# --------------------------------------------------------------- §4.1


def _summarize_sink(result) -> Dict[str, object]:
    a = result.pipeline.outputs()
    rd = a["random_data"]
    return {
        "connections": rd["connections"],
        "probes": a["probes"]["count"],
        "probes_by_type": a["probes"]["by_type"],
        "replays": rd["replays"],
        "replay_lengths": rd["replay_lengths"],
        "trigger_lengths": rd["trigger_lengths"],
        "replay_ratio_by_entropy": rd["ratio_by_entropy"],
    }


register(Scenario(
    name="sink",
    title="§4.1 random-data experiments (Table 4, Figures 8-9)",
    params_type=SinkExperimentConfig,
    build=run_sink_experiment,
    summarize=_summarize_sink,
    analysis_of=_analysis_payload,
    description="Bare TCP client sends controlled (length, entropy) "
                "payloads to a sink/responding server.",
    tags=("experiment", "gfw"),
))


# --------------------------------------------------------------- §7.1


def _summarize_brdgrd(result) -> Dict[str, object]:
    a = result.pipeline.outputs()
    guarded, control = a["guarded"], a["control"]
    return {
        "probe_syns": guarded["count"],
        "control_syns": control["count"],
        "hourly_counts": guarded["hourly"],
        "control_hourly_counts": control["hourly"],
        "rate_active": guarded["rate_active"],
        "rate_inactive": guarded["rate_inactive"],
    }


register(Scenario(
    name="brdgrd",
    title="§7.1 brdgrd defense (Figure 11)",
    params_type=BrdgrdExperimentConfig,
    build=run_brdgrd_experiment,
    summarize=_summarize_brdgrd,
    analysis_of=_analysis_payload,
    description="Probing rate at a brdgrd-guarded server vs a control "
                "as brdgrd toggles on a schedule.",
    tags=("experiment", "defense"),
))


# ----------------------------------------------------------------- §6


def _summarize_blocking(result) -> Dict[str, object]:
    a = result.pipeline.outputs()
    events = a["blocks"]["events"]
    blocked = {e["ip"]: e for e in events}
    profiles = result.server_profiles
    servers = [
        {
            "ip": ip,
            "profile": profile,
            "probes": a["probes"]["by_server"].get(ip, 0),
            "blocked": ip in blocked,
            "blocked_at": blocked[ip]["time"] if ip in blocked else None,
            "by_ip": blocked[ip]["port"] is None if ip in blocked else None,
        }
        for ip, profile in sorted(profiles.items())
    ]
    blocked_ips = {e["ip"] for e in events}
    return {
        "servers": servers,
        "blocked_fraction": len(blocked_ips) / len(profiles),
        "blocked_profiles": sorted(profiles[e["ip"]] for e in events
                                   if e["ip"] in profiles),
        "block_events": len(events),
        "probes": a["probes"]["count"],
    }


register(Scenario(
    name="blocking",
    title="§6 blocking observations",
    params_type=BlockingExperimentConfig,
    build=run_blocking_experiment,
    summarize=_summarize_blocking,
    analysis_of=_analysis_payload,
    description="Vantage fleet of implementations under a human-gated "
                "blocking policy with sensitive windows.",
    tags=("experiment", "blocking"),
))


# ----------------------------------------------- Tor/obfs active probing


@dataclass
class TorProbingConfig:
    """GFW active probing of Tor bridges with graded probe resistance.

    Three bridges run side by side behind the entropy/VERSIONS detector:
    vanilla Tor (DPI fingerprint + answers the forged handshake), obfs3
    (random-looking but answers any correctly-sized block), and obfs4
    (answers nothing it cannot authenticate).  The censor routes flagged
    flows to the ``"tor"`` probing playbook: garbage + forged-VERSIONS
    probes, confirmation bursts, and batched block rollout.
    """

    seed: int = 11
    # Proxy-protocol spec (see repro.protocols) — a bare kind or a
    # {"kind": ..., **params} mapping; per-bridge transports override
    # its profile.  CLI shorthand: `run tor-probing --protocol SPEC`.
    protocol: object = "obfs"
    connections: int = 10
    interval: float = 120.0
    duration: float = 4 * 3600.0
    batch_interval: float = 900.0
    bridge_port: int = 443
    bridges: Tuple[Tuple[str, str], ...] = (
        ("vanilla", "tor-vanilla"),
        ("obfs3", "obfs3"),
        ("obfs4", "obfs4"),
    )


@dataclass
class _TorProbingResult:
    world: object
    pipeline: AnalysisPipeline
    bridges: Dict[str, Dict[str, str]]   # server ip -> {label, transport}


def _build_tor_probing(config: TorProbingConfig) -> _TorProbingResult:
    world = build_world(
        seed=config.seed,
        detectors="tor",
        websites=["example.com"],
        probe_behaviors={"tor": {"kind": "tor",
                                 "batch_interval": config.batch_interval}},
    )
    pipeline = AnalysisPipeline({
        "flagged": FlaggedConnections(),
        "probes": ProbeTally(),
        "delays": ProbeBlockDelays(),
    })
    pipeline.attach(world.bus)
    spec = config.protocol
    spec = {"kind": spec} if isinstance(spec, str) else dict(spec)
    bridges: Dict[str, Dict[str, str]] = {}
    for label, transport in config.bridges:
        proto = build_protocol({**spec, "profile": transport})
        server_host = world.add_server(f"{label}-bridge", region="uk")
        client_host = world.add_client(f"{label}-client")
        seed = derive_seed(config.seed, label)
        proto.make_server(server_host, config.bridge_port,
                          rng=random.Random(seed + 1))
        client = proto.make_client(client_host, server_host.ip,
                                   config.bridge_port,
                                   rng=random.Random(seed + 2))
        CurlDriver(client, rng=random.Random(seed + 3),
                   sites=["example.com"]).run_schedule(config.connections,
                                                       config.interval)
        bridges[server_host.ip] = {"label": label, "transport": transport}
    world.sim.run(until=config.duration)
    return _TorProbingResult(world=world, pipeline=pipeline, bridges=bridges)


def _summarize_tor_probing(result: _TorProbingResult) -> Dict[str, object]:
    a = result.pipeline.outputs()
    delays = a["delays"]
    endpoints = delays["endpoints"]
    counters = result.world.bus.counters  # type: ignore[attr-defined]
    bridges = [
        {
            "label": info["label"],
            "transport": info["transport"],
            "ip": ip,
            "probes": a["probes"]["by_server"].get(ip, 0),
            "flagged_at": endpoints.get(ip, {}).get("flagged_at"),
            "first_probe_at": endpoints.get(ip, {}).get("first_probe_at"),
            "blocked": endpoints.get(ip, {}).get("blocked_at") is not None,
            "blocked_at": endpoints.get(ip, {}).get("blocked_at"),
        }
        for ip, info in sorted(result.bridges.items())
    ]
    return {
        "bridges": bridges,
        "flagged": a["flagged"]["count"],
        "probes": a["probes"]["count"],
        "probes_by_type": a["probes"]["by_type"],
        "confirmed": counters.get("scheduler.tor.confirmed", 0),
        "blocks_scheduled": counters.get("scheduler.tor.block_scheduled", 0),
        "blocked": delays["blocked"],
        "flag_to_probe": delays["flag_to_probe"],
        "probe_to_block": delays["probe_to_block"],
        "flag_to_block": delays["flag_to_block"],
    }


register(Scenario(
    name="tor-probing",
    title="GFW Tor/obfs active probing (Winter & Lindskog timelines)",
    params_type=TorProbingConfig,
    build=_build_tor_probing,
    summarize=_summarize_tor_probing,
    analysis_of=_analysis_payload,
    description="Vanilla Tor, obfs3, and obfs4 bridges under the Tor "
                "detector and the per-protocol probing engine: garbage + "
                "forged-VERSIONS probes, confirmation bursts, and batched "
                "block rollout; reports flag->probe->block delay series.",
    tags=("gfw", "tor", "probing", "protocol"),
))


# ------------------------------------------------- §5.1 probesim sweeps


@dataclass
class ProbesimGridConfig:
    """Figure 10 sweep: random probes of many lengths per (impl, cipher)."""

    seed: int = 0
    profiles: Tuple[str, ...] = ("ss-libev-3.1.3", "ss-libev-3.3.1",
                                 "outline-1.0.7")
    methods: Tuple[str, ...] = ("aes-256-ctr", "aes-128-gcm",
                                "chacha20-ietf-poly1305")
    lengths: Tuple[int, ...] = PROBE_LENGTH_SCHEDULE
    trials: int = 4
    # Sharding restriction: which compatible (profile, method) pairs
    # this run covers.  None (the default, and the serial run) means
    # every compatible pair of the profiles x methods grid.
    pairs: Optional[Tuple[Tuple[str, str], ...]] = None


class _GridArtifact:
    def __init__(self, rows, unit_buses):
        self.rows = rows
        self.unit_buses = unit_buses


def _grid_pairs(config: ProbesimGridConfig) -> List[Tuple[str, str]]:
    """Compatible (profile, method) pairs, honouring a pairs restriction."""
    from ..crypto import get_spec
    from ..crypto.registry import CipherKind

    pairs: List[Tuple[str, str]] = []
    for profile_name in config.profiles:
        profile = get_profile(profile_name)
        for method in config.methods:
            kind = get_spec(method).kind
            if kind == CipherKind.STREAM and not profile.supports_stream:
                continue
            if kind == CipherKind.AEAD and not profile.supports_aead:
                continue
            pairs.append((profile_name, method))
    if config.pairs is not None:
        wanted = {tuple(pair) for pair in config.pairs}
        unknown = wanted - set(pairs)
        if unknown:
            raise ValueError(
                f"pairs not in the compatible grid: {sorted(unknown)}")
        pairs = [pair for pair in pairs if pair in wanted]
    return pairs


def _build_probesim_grid(config: ProbesimGridConfig) -> _GridArtifact:
    # One bus per (profile, method) row: rows are independent (each row
    # reseeds from config.seed), so per-row buses cost nothing and give
    # the sharded merge the per-unit snapshots it replays.
    rows = {}
    unit_buses: List[Tuple[str, EventBus]] = []
    for profile_name, method in _grid_pairs(config):
        bus = EventBus()
        row = build_random_probe_row(
            profile_name, method, config.lengths,
            trials=config.trials, seed=config.seed, bus=bus,
        )
        rows[(profile_name, method)] = row
        unit_buses.append((f"{profile_name}|{method}", bus))
    return _GridArtifact(rows, unit_buses)


def _summarize_probesim_grid(artifact: _GridArtifact) -> Dict[str, object]:
    return {
        "rows": {
            f"{profile}|{method}": {
                str(length): row.cells[length].label()
                for length in sorted(row.cells)
            }
            for (profile, method), row in sorted(artifact.rows.items())
        },
    }


register(Scenario(
    name="probesim-grid",
    title="§5.1 random-probe reaction grid (Figure 10)",
    params_type=ProbesimGridConfig,
    build=_build_probesim_grid,
    summarize=_summarize_probesim_grid,
    events_of=lambda artifact: _unit_events(artifact.unit_buses),
    description="Length sweep of random probes against server models; "
                "incompatible (impl, cipher) combos are skipped.",
    tags=("probesim", "sweep"),
    sharder=Sharder(
        mode="cases",
        units=lambda config: [f"{p}|{m}" for p, m in _grid_pairs(config)],
        restrict=lambda config, labels: {
            "pairs": tuple(tuple(label.split("|", 1)) for label in labels)},
    ),
))


class _ReplayArtifact:
    def __init__(self, table, unit_buses):
        self.table = table
        self.unit_buses = unit_buses


@dataclass
class ProbesimReplayConfig:
    """Table 5 battery: identical vs byte-changed replays per pair."""

    seed: int = 41
    pairs: Tuple[Tuple[str, str], ...] = (
        ("ss-libev-3.1.3", "aes-256-ctr"),
        ("ss-libev-3.1.3", "aes-256-gcm"),
        ("ss-libev-3.3.1", "aes-256-ctr"),
        ("ss-libev-3.3.1", "aes-256-gcm"),
        ("outline-1.0.7", "chacha20-ietf-poly1305"),
    )
    trials: int = 4


def _build_probesim_replay(config: ProbesimReplayConfig) -> _ReplayArtifact:
    # One bus per pair: every trial reseeds from (seed, trial) alone, so
    # a pair's row is identical whether it runs with the full battery or
    # restricted to a shard's subset.
    table = {}
    unit_buses: List[Tuple[str, EventBus]] = []
    for pair in config.pairs:
        bus = EventBus()
        table.update(build_replay_table([tuple(pair)], trials=config.trials,
                                        seed=config.seed, bus=bus))
        unit_buses.append((f"{pair[0]}|{pair[1]}", bus))
    return _ReplayArtifact(table, unit_buses)


def _summarize_probesim_replay(artifact: _ReplayArtifact) -> Dict[str, object]:
    return {
        "rows": {
            f"{profile}|{method}": {
                mode: dict(sorted(counter.items()))
                for mode, counter in modes.items()
            }
            for (profile, method), modes in sorted(artifact.table.items())
        },
    }


register(Scenario(
    name="probesim-replay",
    title="§5.1 replay battery (Table 5)",
    params_type=ProbesimReplayConfig,
    build=_build_probesim_replay,
    summarize=_summarize_probesim_replay,
    events_of=lambda artifact: _unit_events(artifact.unit_buses),
    description="Identical vs byte-changed replay reactions per "
                "(implementation, cipher) pair.",
    tags=("probesim", "sweep"),
    sharder=Sharder(
        mode="cases",
        units=lambda config: [f"{p}|{m}" for p, m in config.pairs],
        restrict=lambda config, labels: {
            "pairs": tuple(tuple(label.split("|", 1)) for label in labels)},
    ),
))


# ------------------------------------------------------ ablation matrices


@dataclass
class DetectorFeaturesConfig:
    """Which passive-detector feature does the work?"""

    seed: int = 61
    samples: int = 400
    method: str = "chacha20-ietf-poly1305"


_DETECTOR_VARIANTS: Tuple[Tuple[str, Dict[str, bool]], ...] = (
    ("full detector", {}),
    ("no length filter", {"length_filter": False}),
    ("no entropy filter", {"entropy_filter": False}),
    ("neither filter", {"length_filter": False, "entropy_filter": False}),
)


def _build_detector_features(config: DetectorFeaturesConfig) -> Dict[str, object]:
    ss_packets, plain_packets = training_corpus(
        seed=config.seed, samples=config.samples, method=config.method)
    rows = {}
    for label, toggles in _DETECTOR_VARIANTS:
        detector = PassiveDetector(DetectorConfig(base_rate=1.0, **toggles))
        ss_rate = sum(detector.flag_probability(p) for p in ss_packets)
        plain_rate = sum(detector.flag_probability(p) for p in plain_packets)
        rows[label] = {
            "ss_rate": ss_rate / len(ss_packets),
            "plain_rate": plain_rate / len(plain_packets),
        }
    return {"rows": rows}


register(Scenario(
    name="ablation-detector-features",
    title="Ablation: passive-detector feature contributions",
    params_type=DetectorFeaturesConfig,
    build=_build_detector_features,
    summarize=lambda artifact: artifact,
    events_of=lambda artifact: {},
    description="Flag rates on Shadowsocks vs plaintext first packets "
                "with length/entropy filters toggled.",
    tags=("ablation", "detector"),
))


_DEFENSE_CASES: Tuple[Tuple[str, str, str, bool, bool], ...] = (
    # (label, method, profile, hardened, brdgrd)
    ("stream, no defenses (ssr)", "aes-256-ctr", "ssr", False, False),
    ("AEAD, old libev", "aes-256-gcm", "ss-libev-3.1.3", False, False),
    ("AEAD, hardened + replay filter", "chacha20-ietf-poly1305",
     "outline-1.0.7", True, False),
    ("hardened + brdgrd", "chacha20-ietf-poly1305", "outline-1.0.7",
     True, True),
)

_DEFENSE_CASES_BY_LABEL = {case[0]: case for case in _DEFENSE_CASES}


@dataclass
class DefenseMatrixConfig:
    """§7 defense configurations against the full GFW pipeline."""

    seed: int = 300
    connections: int = 30
    interval: float = 20.0
    duration: float = 12 * 3600.0
    server_port: int = 8388
    # Which defense cases run (shard restriction); labels index
    # _DEFENSE_CASES.
    cases: Tuple[str, ...] = tuple(case[0] for case in _DEFENSE_CASES)


class _DefenseArtifact:
    def __init__(self, cases, unit_buses):
        self.cases = cases
        self.unit_buses = unit_buses


def _run_defense_case(config: DefenseMatrixConfig, method: str, profile_name: str,
                      hardened: bool, use_brdgrd: bool, seed: int,
                      bus: EventBus) -> Dict[str, object]:
    profile = harden(get_profile(profile_name)) if hardened else profile_name
    world = build_world(
        seed=seed,
        detector_config=DetectorConfig(base_rate=1.0),
        blocking_policy=BlockingPolicy(human_gated=False,
                                       block_probability=1.0),
        websites=["example.com"],
    )
    server_host = world.add_server("server", region="uk")
    client_host = world.add_client("client")
    if use_brdgrd:
        world.net.add_middlebox(Brdgrd(server_host.ip, config.server_port,
                                       rng=random.Random(seed)))
    proto = build_protocol({"kind": "shadowsocks", "password": "pw",
                            "method": method, "profile": profile_name})
    proto.make_server(server_host, config.server_port, profile=profile,
                      rng=random.Random(seed + 1))
    client = proto.make_client(client_host, server_host.ip,
                               config.server_port,
                               rng=random.Random(seed + 2))
    CurlDriver(client, rng=random.Random(seed + 3),
               sites=["example.com"]).run_schedule(config.connections,
                                                   config.interval)
    world.sim.run(until=config.duration)
    bus.absorb(world.bus)
    replay_data = sum(
        1 for r in world.gfw.probe_log
        if r.probe.is_replay and r.reaction == Reaction.DATA
    )
    return {
        "flagged": world.gfw.flagged_connections,
        "probes": len(world.gfw.probe_log),
        "replay_data": replay_data,
        "blocked": world.gfw.blocking.is_blocked(server_host.ip,
                                                 config.server_port),
    }


def _build_defense_matrix(config: DefenseMatrixConfig) -> _DefenseArtifact:
    # Per-case seeds derive from (seed, label), not the case's position,
    # so a case simulates identically inside any shard subset; per-case
    # buses carry the unit snapshots the sharded merge replays.
    cases = {}
    unit_buses: List[Tuple[str, EventBus]] = []
    for label in config.cases:
        try:
            _, method, profile, hardened, brdgrd = _DEFENSE_CASES_BY_LABEL[label]
        except KeyError:
            known = ", ".join(sorted(_DEFENSE_CASES_BY_LABEL))
            raise ValueError(f"unknown defense case {label!r}; known: {known}")
        bus = EventBus()
        cases[label] = _run_defense_case(
            config, method, profile, hardened, brdgrd,
            seed=derive_seed(config.seed, label), bus=bus,
        )
        unit_buses.append((label, bus))
    return _DefenseArtifact(cases, unit_buses)


@dataclass
class ImpairmentMatrixConfig:
    """Loss/reorder grid over the full pipeline (detect, probe, block)."""

    seed: int = 97
    loss_rates: Tuple[float, ...] = (0.0, 0.01, 0.05)
    reorder_rates: Tuple[float, ...] = (0.0, 0.05)
    reorder_skew: float = 0.03
    duplicate: float = 0.0
    jitter: float = 0.0
    connections: int = 30
    interval: float = 20.0
    duration: float = 6 * 3600.0
    method: str = "chacha20-ietf-poly1305"
    profile: str = "ss-libev-3.3.1"
    server_port: int = 8388
    # Sharding restriction: which grid-cell labels run.  None (the
    # default, and the serial run) means the full loss x reorder grid.
    cells: Optional[Tuple[str, ...]] = None


class _ImpairmentArtifact:
    def __init__(self, cells, unit_buses):
        self.cells = cells
        self.unit_buses = unit_buses


def _impairment_labels(config: ImpairmentMatrixConfig) -> List[str]:
    """Grid-cell labels in grid order, honouring a cells restriction."""
    labels = [f"loss={loss:g}|reorder={reorder:g}"
              for loss in config.loss_rates
              for reorder in config.reorder_rates]
    if config.cells is not None:
        wanted = set(config.cells)
        unknown = wanted - set(labels)
        if unknown:
            raise ValueError(f"cells not in the grid: {sorted(unknown)}")
        labels = [label for label in labels if label in wanted]
    return labels


def _run_impairment_cell(config: ImpairmentMatrixConfig, loss: float,
                         reorder: float, seed: int,
                         bus: EventBus) -> Dict[str, object]:
    impairment = Impairment(loss=loss, reorder=reorder,
                            reorder_skew=config.reorder_skew,
                            duplicate=config.duplicate,
                            jitter=config.jitter)
    world = build_world(
        seed=seed,
        detector_config=DetectorConfig(base_rate=1.0),
        blocking_policy=BlockingPolicy(human_gated=False,
                                       block_probability=1.0),
        websites=["example.com"],
        impairment=impairment if impairment.active else None,
    )
    server_host = world.add_server("server", region="uk")
    client_host = world.add_client("client")
    proto = build_protocol({"kind": "shadowsocks", "password": "pw",
                            "method": config.method,
                            "profile": config.profile})
    proto.make_server(server_host, config.server_port,
                      rng=random.Random(seed + 1))
    client = proto.make_client(client_host, server_host.ip,
                               config.server_port,
                               rng=random.Random(seed + 2))
    CurlDriver(client, rng=random.Random(seed + 3),
               sites=["example.com"]).run_schedule(config.connections,
                                                   config.interval)
    world.sim.run(until=config.duration)
    bus.absorb(world.bus)
    counters = world.bus.counters
    inspected = world.gfw.inspected_connections
    flagged = world.gfw.flagged_connections
    return {
        "loss": loss,
        "reorder": reorder,
        "inspected": inspected,
        "flagged": flagged,
        "hit_rate": flagged / inspected if inspected else 0.0,
        "probes": len(world.gfw.probe_log),
        "blocked": world.gfw.blocking.is_blocked(server_host.ip,
                                                 config.server_port),
        "tcp_retransmits": (counters.get("tcp.retransmit", 0)
                            + counters.get("tcp.syn.retry", 0)),
        "net_losses": counters.get("net.loss", 0),
        "net_reorders": counters.get("net.reorder", 0),
        "impairment_drops": world.net.impairment_drops,
    }


def _build_impairment_matrix(config: ImpairmentMatrixConfig) -> _ImpairmentArtifact:
    # Per-cell seeds derive from (seed, label), not the cell's grid
    # position, so a cell simulates identically inside any shard subset.
    wanted = set(_impairment_labels(config))
    cells = {}
    unit_buses: List[Tuple[str, EventBus]] = []
    for loss in config.loss_rates:
        for reorder in config.reorder_rates:
            label = f"loss={loss:g}|reorder={reorder:g}"
            if label not in wanted:
                continue
            bus = EventBus()
            cells[label] = _run_impairment_cell(
                config, loss, reorder,
                seed=derive_seed(config.seed, label), bus=bus,
            )
            unit_buses.append((label, bus))
    return _ImpairmentArtifact(cells, unit_buses)


register(Scenario(
    name="impairment-matrix",
    title="Ablation: path impairments vs detection and blocking",
    params_type=ImpairmentMatrixConfig,
    build=_build_impairment_matrix,
    summarize=lambda artifact: {"cells": artifact.cells},
    events_of=lambda artifact: _unit_events(artifact.unit_buses),
    description="Loss/reorder sweep over the full GFW pipeline: detector "
                "hit-rate, probe volume, TCP retransmissions, and blocking "
                "outcome per grid cell.",
    tags=("ablation", "impairment", "net"),
    sharder=Sharder(
        mode="cases",
        units=_impairment_labels,
        restrict=lambda config, labels: {"cells": tuple(labels)},
    ),
))


# ------------------------------------------ detector-ensemble ablation


# (label, detector-stage spec) — the spec grammar of repro.gfw.stages.
_ENSEMBLE_CASES: Tuple[Tuple[str, object], ...] = (
    ("passive", {"kind": "passive", "base_rate": 1.0}),
    ("entropy", {"kind": "entropy", "threshold": 7.2}),
    ("vmess", "vmess"),
    ("length-dist", {"kind": "length-dist", "train_samples": 200}),
    ("entropy-or-vmess", {"kind": "any",
                          "members": [{"kind": "entropy", "threshold": 7.2},
                                      "vmess"]}),
    ("weighted-vote", {"kind": "weighted", "threshold": 0.55,
                       "weights": [0.5, 0.5],
                       "members": [{"kind": "entropy", "threshold": 7.2},
                                   {"kind": "length-dist",
                                    "train_samples": 200}]}),
)


@dataclass
class DetectorEnsembleConfig:
    """Swap the in-path detector pipeline; keep probing/blocking fixed."""

    seed: int = 83
    connections: int = 20
    interval: float = 30.0
    duration: float = 3 * 3600.0
    method: str = "chacha20-ietf-poly1305"
    profile: str = "ss-libev-3.3.1"
    server_port: int = 8388
    cases: Tuple[Tuple[str, object], ...] = _ENSEMBLE_CASES


class _EnsembleArtifact:
    def __init__(self, cases, analysis, unit_buses):
        self.cases = cases
        self.analysis = analysis
        self.unit_buses = unit_buses


def _run_ensemble_case(config: DetectorEnsembleConfig, spec: object,
                       seed: int, bus: EventBus):
    world = build_world(
        seed=seed,
        detectors=spec,
        websites=["example.com"],
    )
    pipeline = AnalysisPipeline({"verdicts": VerdictRecords(),
                                 "flagged": FlaggedConnections()})
    pipeline.attach(world.bus)
    server_host = world.add_server("server", region="uk")
    ss_client = world.add_client("ss-client")
    web_client = world.add_client("web-client", residential=True)
    proto = build_protocol({"kind": "shadowsocks", "password": "pw",
                            "method": config.method,
                            "profile": config.profile})
    proto.make_server(server_host, config.server_port,
                      rng=random.Random(seed + 1))
    client = proto.make_client(ss_client, server_host.ip, config.server_port,
                               rng=random.Random(seed + 2))
    CurlDriver(client, rng=random.Random(seed + 3),
               sites=["example.com"]).run_schedule(config.connections,
                                                   config.interval)

    # Plaintext background: direct border-crossing HTTP fetches, so the
    # ablation measures false positives alongside detection hits.
    web_ip = world.hosts["web-example.com"].ip
    web_rng = random.Random(seed + 4)

    def browse() -> None:
        conn = web_client.connect(web_ip, 80)
        conn.on_connected = lambda: conn.send(
            http_get_request("example.com", web_rng))
        conn.on_data = lambda data: conn.close()
        conn.on_remote_fin = conn.close

    for i in range(config.connections):
        world.sim.schedule(i * config.interval + config.interval / 2, browse)

    world.sim.run(until=config.duration)
    bus.absorb(world.bus)
    out = pipeline.outputs()
    summary = {
        "spec": world.gfw.pipeline.spec(),
        "flagged": out["flagged"]["count"],
        "verdicts": out["verdicts"]["count"],
        "by_stage": out["verdicts"]["by_stage"],
        "scores": out["verdicts"]["scores"],
        "probes": len(world.gfw.probe_log),
        "ss_connections": config.connections,
        "plaintext_connections": config.connections,
    }
    return summary, pipeline.payload()


def _build_detector_ensemble(config: DetectorEnsembleConfig) -> _EnsembleArtifact:
    # Per-case seeds derive from (seed, label), not the case's position,
    # so ablating cases in and out (or sharding them) never reseeds the
    # survivors; per-case buses carry the unit snapshots shards replay.
    cases: Dict[str, object] = {}
    analysis: Dict[str, object] = {}
    unit_buses: List[Tuple[str, EventBus]] = []
    for label, spec in config.cases:
        bus = EventBus()
        summary, payload = _run_ensemble_case(
            config, spec, seed=derive_seed(config.seed, label), bus=bus)
        cases[label] = summary
        for name, section in payload.items():
            analysis[f"{label}:{name}"] = section
        unit_buses.append((label, bus))
    return _EnsembleArtifact(cases, analysis, unit_buses)


register(Scenario(
    name="ablation-detector-ensemble",
    title="Ablation: in-path detector pipelines vs the full censor",
    params_type=DetectorEnsembleConfig,
    build=_build_detector_ensemble,
    summarize=lambda artifact: {"cases": artifact.cases},
    analysis_of=lambda artifact: artifact.analysis,
    events_of=lambda artifact: _unit_events(artifact.unit_buses),
    description="Shadowsocks + plaintext traffic against swapped detector "
                "pipelines (passive, entropy, vmess, length-dist, and "
                "ensembles); per-case verdict records on the analysis "
                "channel.",
    tags=("ablation", "detector", "gfw"),
    sharder=Sharder(
        mode="cases",
        units=lambda config: [label for label, _ in config.cases],
        restrict=lambda config, labels: {
            "cases": tuple(case for case in config.cases
                           if case[0] in set(labels))},
    ),
))


register(Scenario(
    name="ablation-defense-matrix",
    title="Ablation: defense configurations vs the full GFW pipeline",
    params_type=DefenseMatrixConfig,
    build=_build_defense_matrix,
    summarize=lambda artifact: {"cases": artifact.cases},
    events_of=lambda artifact: _unit_events(artifact.unit_buses),
    description="Stream/AEAD/hardened/brdgrd server configurations under "
                "an aggressive GFW with blocking enabled.",
    tags=("ablation", "defense"),
    sharder=Sharder(
        mode="cases",
        units=lambda config: list(config.cases),
        restrict=lambda config, labels: {"cases": tuple(labels)},
    ),
))
