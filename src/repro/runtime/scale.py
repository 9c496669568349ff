"""The ``scale-1m`` scenario: a million distinct client flows.

The ROADMAP's north star is censorship at backbone scale — the paper's
censor watches *all* border-crossing traffic, not forty connections from
one client.  Full TCP emulation at 10^6 flows is out of reach for one
event loop, so this scenario drives the censor's actual hot path
directly: synthetic border-crossing segments (SYN, the feature packet,
FIN) per flow through a real :class:`~repro.gfw.flowtable.FlowTable`
and a real deterministic detector stage, with a streaming
:class:`~repro.analysis.pipeline.FlowCensus` analyzer reducing the
verdict stream to integer sufficient statistics.

The flow space partitions into fixed-size *blocks* (the shardable
units).  Every per-flow quantity — addresses, class, payload bytes,
start time — derives from :func:`~repro.runtime.sharding.flow_key`
``(seed, flow_id)`` alone, never from enumeration order or shared RNG
state, so a flow simulates identically inside any block subset.  Flows
open and close within one simulator event (the table entry is reclaimed
at FIN), which keeps the run constant-memory and keeps the flow table's
cap/sweep hygiene out of the byte-identity equation.  The scenario
deliberately runs no prober fleet: probing draws from a shared
per-world RNG stream and emits float scalar series, both of which
would make a partitioned run diverge from the serial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.pipeline import AnalysisPipeline, FlowCensus
from ..gfw.flowtable import FlowKey, FlowState, FlowTable
from ..gfw.stages import DetectorContext, build_stage
from ..net.packet import Flags, Segment
from ..net.sim import Simulator
from .scenario import Scenario, register
from .sharding import Sharder, flow_key

__all__ = ["ScaleFlowsConfig", "scale_payload"]

# Responder endpoints: one Shadowsocks-like high-entropy service, one
# plaintext web service.  Class is decided per flow from its key.
SS_RESPONDER = ("203.0.113.5", 8388)
WEB_RESPONDER = ("198.18.0.10", 443)

_WEB_TEMPLATE = (b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
                 b"Accept: text/html,application/xhtml+xml\r\n"
                 b"Accept-Language: en-US,en;q=0.9\r\n\r\n")


@dataclass
class ScaleFlowsConfig:
    """Parameters of the million-flow census."""

    seed: int = 0
    flows: int = 1_000_000
    block_size: int = 4096          # flows per shardable unit
    block_period: float = 5.0       # sim-seconds between block starts
    flow_spacing: float = 0.001     # sim-seconds between flows of a block
    ss_fraction: float = 0.5        # probability a flow is Shadowsocks-like
    ss_min_len: int = 600           # feature-packet length range, SS class
    ss_max_len: int = 1200
    web_min_len: int = 80           # feature-packet length range, web class
    web_max_len: int = 600
    entropy_threshold: float = 7.2
    census_bins: int = 16
    max_flows: int = 1 << 18        # flow-table hard cap (never hit here)
    # Sharding restriction: which block labels this world simulates.
    # None (the default, and the serial run) means every block.
    blocks: Optional[Tuple[str, ...]] = None


def _block_labels(config: ScaleFlowsConfig) -> List[str]:
    count = (config.flows + config.block_size - 1) // config.block_size
    return [f"block-{i:05d}" for i in range(count)]


def _selected_blocks(config: ScaleFlowsConfig) -> List[int]:
    labels = _block_labels(config)
    if config.blocks is None:
        selected = labels
    else:
        wanted = set(config.blocks)
        unknown = wanted - set(labels)
        if unknown:
            raise ValueError(f"unknown scale-1m blocks: {sorted(unknown)}")
        selected = [label for label in labels if label in wanted]
    return [int(label.split("-", 1)[1]) for label in selected]


def _flow_shape(config: ScaleFlowsConfig, flow_id: int,
                ) -> Tuple[str, int, Tuple[str, int], bytes]:
    """(src_ip, src_port, responder, feature payload) for one flow.

    Every field is a pure function of ``flow_key(seed, flow_id)``; the
    source address encodes ``flow_id`` directly so connection keys are
    collision-free and serial/sharded tables can never interact through
    accidental 4-tuple reuse.
    """
    key = flow_key(config.seed, flow_id)
    src_ip = (f"10.{(flow_id >> 16) & 0xFF}."
              f"{(flow_id >> 8) & 0xFF}.{flow_id & 0xFF}")
    src_port = 1024 + (key & 0xFFFF) % 60000
    if (key >> 16) % 1000 < int(config.ss_fraction * 1000):
        span = max(1, config.ss_max_len - config.ss_min_len + 1)
        length = config.ss_min_len + (key >> 26) % span
        payload = random.Random(key).randbytes(length)
        responder = SS_RESPONDER
    else:
        span = max(1, config.web_max_len - config.web_min_len + 1)
        length = config.web_min_len + (key >> 26) % span
        repeats = length // len(_WEB_TEMPLATE) + 1
        payload = (_WEB_TEMPLATE * repeats)[:length]
        responder = WEB_RESPONDER
    return src_ip, src_port, responder, payload


class _ScaleWorld:
    """One shard's (or the serial run's) sensor + detector + census."""

    def __init__(self, config: ScaleFlowsConfig):
        self.config = config
        self.sim = Simulator()
        self.bus = self.sim.bus
        self.table = FlowTable(self.sim, max_flows=config.max_flows)
        self.stage = build_stage({"kind": "entropy",
                                  "threshold": config.entropy_threshold})
        self.pipeline = AnalysisPipeline(
            {"census": FlowCensus(bins=config.census_bins)}
        ).attach(self.bus)
        self.table.on_first_initiator_data = self._feature_packet

    # ------------------------------------------------------------ detector

    def _feature_packet(self, key: FlowKey, flow: FlowState,
                        seg: Segment) -> None:
        ctx = DetectorContext(seg.payload, now=self.sim.now)
        result = self.stage.evaluate_batch([ctx])[0]
        if result.flagged:
            self.bus.incr("gfw.conn.flagged")
        if self.bus.wants_records:
            self.bus.emit("scale.flow", {
                "port": flow.responder_port,
                "length": len(seg.payload),
                "entropy": ctx.entropy,
                "flagged": result.flagged,
                "stage": result.stage,
            })

    # -------------------------------------------------------------- driving

    def _process_flow(self, flow_id: int) -> None:
        src_ip, src_port, (dst_ip, dst_port), payload = _flow_shape(
            self.config, flow_id)
        # The whole flow lifetime is one same-connection burst: the
        # table computes the connection key once for all three segments.
        # Positional fields (src_ip, dst_ip, src_port, dst_port, flags,
        # seq, ack, payload): keyword plumbing would more than double
        # the cost of building the three segments.
        self.table.track_burst([
            Segment(src_ip, dst_ip, src_port, dst_port, Flags.SYN),
            Segment(src_ip, dst_ip, src_port, dst_port,
                    Flags.ACK | Flags.PSH, 0, 0, payload),
            Segment(src_ip, dst_ip, src_port, dst_port, Flags.FIN | Flags.ACK),
        ])
        self.bus.incr("scale.segments", 3)

    def _drive_block(self, block: int) -> None:
        config = self.config
        start = block * config.block_size
        stop = min(start + config.block_size, config.flows)
        flows: Iterator[int] = iter(range(start, stop))

        def step(flow_id: int) -> None:
            self._process_flow(flow_id)
            nxt = next(flows, None)
            if nxt is not None:
                self.sim.schedule(config.flow_spacing, step, nxt)

        first = next(flows, None)
        if first is not None:
            self.sim.schedule(block * config.block_period, step, first)

    def run(self) -> "_ScaleWorld":
        for block in _selected_blocks(self.config):
            self._drive_block(block)
        self.sim.run()
        return self


def scale_payload(outputs: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """The scenario payload from finalized analyzer outputs.

    Shared by the serial summarizer and the flows-mode shard merge, so
    both derive the payload from census output with identical
    arithmetic.
    """
    census = outputs["census"]
    flows = int(census["flows"])           # type: ignore[arg-type]
    flagged = int(census["flagged"])       # type: ignore[arg-type]
    return {
        "flows": flows,
        "flagged": flagged,
        "flag_rate": flagged / flows if flows else 0.0,
        "by_port": census["by_port"],
        "by_stage": census["by_stage"],
        "entropy_hist": census["entropy_hist"],
    }


def _build_scale(config: ScaleFlowsConfig) -> _ScaleWorld:
    return _ScaleWorld(config).run()


def _restrict_blocks(params: ScaleFlowsConfig,
                     labels: Sequence[str]) -> Dict[str, object]:
    return {"blocks": tuple(labels)}


register(Scenario(
    name="scale-1m",
    title="Scale: 10^6 distinct client flows through the censor hot path",
    params_type=ScaleFlowsConfig,
    build=_build_scale,
    summarize=lambda world: scale_payload(world.pipeline.outputs()),
    analysis_of=lambda world: world.pipeline.payload(),
    description="Synthetic border-crossing flows (SYN, feature packet, "
                "FIN) through a real flow table and entropy detector; "
                "block-sharded, census-analyzed, probe-free.",
    tags=("scale", "gfw", "shard"),
    sharder=Sharder(
        mode="flows",
        units=_block_labels,
        restrict=_restrict_blocks,
        payload_from_analysis=scale_payload,
    ),
))
