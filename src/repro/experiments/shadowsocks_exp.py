"""The §3.1 Shadowsocks server experiment, end to end.

Recreates the paper's four-month measurement at configurable scale:
Shadowsocks-libev client/server pairs (Tencent Beijing -> Digital Ocean
UK) driven by curl, plus an OutlineVPN pair (China residential -> US
university) driven by automated browsing, plus a never-contacted control
host.  The GFW middlebox watches the border; its probe log and the
server-side captures feed Figures 2-7 and Tables 2-3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..analysis import (
    AnalysisPipeline,
    Analyzer,
    CaptureProbeClassifier,
    FlaggedConnections,
    ObservedProbe,
    ProbeTally,
    ProberFingerprint,
    ReplayDelays,
    SynCount,
)
from ..gfw import DetectorConfig, ProbeRecord, SchedulerConfig
from ..runtime.topology import World, build_world, settle
from ..protocols import build_protocol
from ..shadowsocks import ShadowsocksServer
from ..workloads import SITES, CurlDriver

__all__ = ["ShadowsocksExperimentConfig", "ShadowsocksExperimentResult",
           "run_shadowsocks_experiment"]

CURL_SITES = ["www.wikipedia.org", "example.com", "gfw.report"]


@dataclass
class ShadowsocksExperimentConfig:
    """Scaled-down §3.1 run; crank the numbers for paper-scale output."""

    seed: int = 0
    connections_per_pair: int = 600
    duration: float = 14 * 24 * 3600.0       # simulated seconds
    libev_pairs: int = 2                      # paper used 5; 2 keeps runs fast
    libev_method: str = "chacha20-ietf-poly1305"
    libev_profiles: Tuple[str, ...] = ("ss-libev-3.1.3", "ss-libev-3.3.1")
    outline_pairs: int = 1
    outline_profile: str = "outline-1.0.7"
    # Detection is boosted so a scaled-down workload still yields a rich
    # probe log; the *relative* probe statistics are scale-invariant.
    base_rate: float = 0.6
    nr1_flag_threshold: int = 10
    # JSON-able detector-stage spec (see repro.gfw.stages); None keeps
    # the paper's passive classifier configured by base_rate.
    detectors: Optional[Any] = None
    server_port: int = 8388
    # Streaming mode: captures stay enabled for the analysis taps but
    # buffer nothing, so long runs are constant-memory.
    stream_captures: bool = False


def declared_analyzers(
    config: ShadowsocksExperimentConfig,
    server_clients: Dict[str, str],
) -> Dict[str, Analyzer]:
    """The experiment's analyzer set (``server_clients``: name -> client IP)."""
    analyzers: Dict[str, Analyzer] = {
        "probes": ProbeTally(),
        "flagged": FlaggedConnections(),
        "replay_delays": ReplayDelays(),
        "fingerprint": ProberFingerprint(),
        "control_syns": SynCount(),
    }
    for name, client_ip in server_clients.items():
        analyzers[f"server:{name}"] = CaptureProbeClassifier(
            server_port=config.server_port, client_ips=[client_ip]
        )
    return analyzers


@dataclass
class ShadowsocksExperimentResult:
    world: World
    config: ShadowsocksExperimentConfig
    probe_log: List[ProbeRecord]
    control_probe_count: int
    connections_made: int
    pipeline: AnalysisPipeline

    @cached_property
    def server_probes(self) -> Dict[str, List[ObservedProbe]]:
        """Per server name, the probes its capture classifier found.

        Built when first read: a scenario run reads only the counts of
        the pipeline's finalize pass, which classifies the probes once.
        """
        out: Dict[str, List[ObservedProbe]] = {}
        for name, analyzer in self.pipeline.analyzers.items():
            if name.startswith("server:"):
                assert isinstance(analyzer, CaptureProbeClassifier)
                out[name[len("server:"):]] = analyzer.probes()
        return out

    @property
    def probes_by_type(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.probe_log:
            counts[record.probe_type] = counts.get(record.probe_type, 0) + 1
        return counts

    @property
    def prober_ips(self) -> List[str]:
        return [record.src_ip for record in self.probe_log]

    @property
    def replay_delays(self) -> Tuple[List[float], List[float]]:
        """(first-occurrence delays, all delays) as in Figure 7."""
        first: Dict[bytes, float] = {}
        all_delays: List[float] = []
        for record in sorted(self.probe_log, key=lambda r: r.time_sent):
            if record.delay is None:
                continue
            all_delays.append(record.delay)
            key = record.probe.payload
            if key not in first:
                first[key] = record.delay
        return list(first.values()), all_delays


def run_shadowsocks_experiment(
    config: Optional[ShadowsocksExperimentConfig] = None,
) -> ShadowsocksExperimentResult:
    config = config or ShadowsocksExperimentConfig()
    rng = random.Random(config.seed)
    world = build_world(
        seed=config.seed,
        detector_config=DetectorConfig(base_rate=config.base_rate),
        detectors=config.detectors,
        scheduler_config=SchedulerConfig(nr1_flag_threshold=config.nr1_flag_threshold),
        websites=sorted(set(CURL_SITES) | set(SITES)),
        stream_captures=config.stream_captures,
    )
    drivers: List[CurlDriver] = []
    servers: List[Tuple[str, ShadowsocksServer]] = []

    def add_pair(name: str, region: str, profile: str, method: str,
                 sites: List[str], residential: bool) -> None:
        server_host = world.add_server(f"{name}-server", region=region)
        client_host = world.add_client(f"{name}-client", residential=residential)
        proto = build_protocol({"kind": "shadowsocks",
                                "password": f"pw-{name}",
                                "method": method, "profile": profile})
        server = proto.make_server(server_host, config.server_port,
                                   rng=random.Random(rng.randrange(1 << 30)))
        client = proto.make_client(client_host, server_host.ip,
                                   config.server_port,
                                   rng=random.Random(rng.randrange(1 << 30)))
        driver = CurlDriver(client, sites=sites,
                            rng=random.Random(rng.randrange(1 << 30)))
        drivers.append(driver)
        servers.append((f"{name}-server", server))

    for i in range(config.libev_pairs):
        profile = config.libev_profiles[i % len(config.libev_profiles)]
        add_pair(f"libev{i}", "uk", profile, config.libev_method,
                 CURL_SITES, residential=False)
    for i in range(config.outline_pairs):
        add_pair(f"outline{i}", "us", config.outline_profile,
                 "chacha20-ietf-poly1305", SITES, residential=True)

    control = world.add_server("control", region="uk")

    server_clients = {
        name: world.hosts[name.replace("-server", "-client")].ip
        for name, _server in servers
    }
    pipeline = AnalysisPipeline(declared_analyzers(config, server_clients))
    pipeline.attach(world.bus)
    for name, _server in servers:
        pipeline.tap_capture(world.hosts[name].capture, host=name,
                             names=[f"server:{name}"])
    pipeline.tap_capture(control.capture, host="control",
                         names=["control_syns"])

    interval = config.duration / max(1, config.connections_per_pair)
    for driver in drivers:
        # Deterministic per-driver phase offset spreads the load.
        start = rng.uniform(0, interval)
        driver.run_schedule(config.connections_per_pair, interval, start=start)

    # Run past the nominal duration so delayed replays drain.
    settle(world, config.duration, drain=1.25)

    control_syns = pipeline.analyzers["control_syns"]
    assert isinstance(control_syns, SynCount)

    return ShadowsocksExperimentResult(
        world=world,
        config=config,
        probe_log=list(world.gfw.probe_log),
        control_probe_count=control_syns.count,
        connections_made=len(drivers) * config.connections_per_pair,
        pipeline=pipeline,
    )
