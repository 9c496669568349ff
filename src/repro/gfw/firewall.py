"""The Great Firewall as an on-path middlebox (thin orchestrator).

The censor is three explicit layers threaded together here:

* **sensor** — the border predicate plus the first-class
  :class:`~repro.gfw.flowtable.FlowTable`, which owns flow creation,
  eviction, flag dedup, and surfaces the feature packet (first
  initiator data) and first responder data;
* **detector** — a :class:`~repro.gfw.stages.DetectorStage` pipeline
  built from a JSON-able ``detectors`` spec (default: the paper's
  passive length/entropy classifier), evaluated per feature packet;
* **reaction** — a :class:`~repro.gfw.reaction.ReactionPolicy`
  consuming typed :class:`~repro.gfw.reaction.Verdict` records and
  driving the staged probe scheduler and the blocking module.

Triggering is bidirectional (§4.2): the initiator may be on either side
of the border.  With no ``detectors`` spec the pipeline is byte-identical
to the pre-refactor monolith (property-tested): same RNG draws, same
counter emissions, same probe schedule.
"""

from __future__ import annotations

import random
from typing import Any, List, Mapping, Optional, Union

from ..net.host import Host
from ..net.ipaddr import ip_to_int, parse_cidr
from ..net.network import Middlebox, Network
from ..net.packet import Segment
from .blocking import BlockingPolicy
from .delays import ReplayDelayModel
from .detector import DetectorConfig, PassiveDetector
from .fleet import FleetConfig, ProberFleet
from .flowtable import FlowKey, FlowState, FlowTable
from .probes import ProbeForge
from .prober import ProberRunner
from .reaction import ReactionPolicy, Verdict
from .scheduler import SchedulerConfig
from .stages import DetectorContext, DetectorStage, PassiveStage, build_stage

__all__ = ["GreatFirewall", "FlowState"]

FLEET_HOST_IP = "100.64.0.1"  # the fleet's anchor address (never a probe source)

DetectorsSpec = Union[str, Mapping[str, Any], DetectorStage]


class GreatFirewall(Middlebox):
    """On-path censor: sensor → detector → reaction."""

    def __init__(
        self,
        sim,
        network: Network,
        inside_cidrs: List[str],
        *,
        rng: Optional[random.Random] = None,
        detector_config: Optional[DetectorConfig] = None,
        detectors: Optional[DetectorsSpec] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        fleet_config: Optional[FleetConfig] = None,
        blocking_policy: Optional[BlockingPolicy] = None,
        probe_behaviors: Optional[Mapping[str, Any]] = None,
        max_flows: int = 1 << 18,
        inside_cache_max: int = 1 << 16,
    ):
        self.sim = sim
        self.network = network
        self.inside_cidrs = list(inside_cidrs)
        # Precompile the border predicate: it runs on every segment.
        self._inside_masks = []
        for cidr in self.inside_cidrs:
            base, prefix = parse_cidr(cidr)
            mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0
            self._inside_masks.append((base, mask))
        self._inside_cache: dict = {}
        self.rng = rng or random.Random(0x6F0)

        # Detector layer: the spec wins when given; otherwise the
        # classic passive classifier (kept as ``self.detector`` for
        # introspection either way, when the pipeline is passive).
        self.detector = PassiveDetector(detector_config)
        if detectors is None:
            self.pipeline: DetectorStage = PassiveStage(detector=self.detector)
        elif isinstance(detectors, DetectorStage):
            self.pipeline = detectors
        else:
            self.pipeline = build_stage(detectors)
        if isinstance(self.pipeline, PassiveStage):
            self.detector = self.pipeline.detector

        self.fleet_host = Host(sim, network, FLEET_HOST_IP, "gfw-fleet",
                               rng=random.Random(self.rng.randrange(1 << 30)))
        self.fleet = ProberFleet(self.fleet_host,
                                 rng=random.Random(self.rng.randrange(1 << 30)),
                                 config=fleet_config)
        self.runner = ProberRunner(self.fleet,
                                   rng=random.Random(self.rng.randrange(1 << 30)))
        self.forge = ProbeForge(random.Random(self.rng.randrange(1 << 30)))
        self.reactions = ReactionPolicy.default(
            sim, self.runner,
            forge=self.forge,
            delay_model=ReplayDelayModel(),
            rng=random.Random(self.rng.randrange(1 << 30)),
            scheduler_config=scheduler_config,
            blocking_policy=blocking_policy,
            blocking_rng=random.Random(self.rng.randrange(1 << 30)),
            probe_behaviors=probe_behaviors,
            flag_hook=lambda flow, payload: self.on_flag(flow, payload),
        )

        # Fused per-segment blocking probe: alias the blocking module's
        # tables (stable dict attributes, mutated in place and never
        # rebound), so the drop check is two dict-membership tests rather
        # than two delegating calls.  Blocking is unidirectional null
        # routing: only segments *from* a blocked IP or (IP, port) drop.
        self._blocked_ips = self.reactions.blocking._blocked_ips
        self._blocked_ports = self.reactions.blocking._blocked_ports

        # (src_ip, dst_ip) -> "does the sensor care" (border-crossing and
        # not fleet traffic).  Fleet IPs can grow (minting), so entries
        # are validated against the fleet address-set size.
        self._pair_cache: dict = {}
        self._pair_cache_ver = -1

        # Sensor layer: the flow table owns connection state + hygiene.
        self.flow_table = FlowTable(sim, max_flows=max_flows)
        self.flow_table.on_first_initiator_data = self._first_initiator_data
        self.flow_table.on_first_responder_data = self._first_responder_data
        self.inside_cache_max = inside_cache_max
        self.flagged_connections = 0
        self.dropped_segments = 0
        # Hook for tests/experiments: called on every flag decision.
        self.on_flag = lambda flow, payload: None
        network.add_middlebox(self)

    # ------------------------------------------------------------- geometry

    def is_inside(self, ip: str) -> bool:
        cached = self._inside_cache.get(ip)
        if cached is None:
            value = ip_to_int(ip)
            cached = any((value & mask) == base for base, mask in self._inside_masks)
            if len(self._inside_cache) >= self.inside_cache_max:
                # Pure cache: dropping it costs recomputation, never
                # correctness, and bounds memory against address churn.
                self._inside_cache.clear()
                self.sim.bus.incr("gfw.cache.inside_cleared")
            self._inside_cache[ip] = cached
        return cached

    # ------------------------------------------------------------ main path

    def _interesting(self, src_ip: str, dst_ip: str) -> bool:
        """Memoized "does the sensor care about this IP pair" predicate
        (border-crossing and not the probing fleet's own traffic)."""
        ver = len(self.fleet_host.extra_ips)
        cache = self._pair_cache
        if ver != self._pair_cache_ver:
            cache.clear()
            self._pair_cache_ver = ver
        key = (src_ip, dst_ip)
        interesting = cache.get(key)
        if interesting is None:
            inside = self._inside_cache
            src = inside.get(src_ip)
            if src is None:
                src = self.is_inside(src_ip)
            dst = inside.get(dst_ip)
            if dst is None:
                dst = self.is_inside(dst_ip)
            fleet_ips = self.fleet_host.extra_ips
            interesting = (src != dst
                           and src_ip != FLEET_HOST_IP
                           and dst_ip != FLEET_HOST_IP
                           and src_ip not in fleet_ips
                           and dst_ip not in fleet_ips)
            if len(cache) >= self.inside_cache_max:
                cache.clear()
            cache[key] = interesting
        return interesting

    def process(self, seg: Segment, network: Network) -> List[Segment]:
        # Inlined blocking probe (see __init__): two dict membership
        # tests in place of two delegating calls per segment.
        if (seg.src_ip in self._blocked_ips
                or (seg.src_ip, seg.src_port) in self._blocked_ports):
            self.dropped_segments += 1
            self.sim.bus.incr("gfw.segment.dropped")
            return []
        # Inlined warm probe of the ``_interesting`` pair memo.
        if len(self.fleet_host.extra_ips) == self._pair_cache_ver:
            interesting = self._pair_cache.get((seg.src_ip, seg.dst_ip))
            if interesting is None:
                interesting = self._interesting(seg.src_ip, seg.dst_ip)
        else:
            interesting = self._interesting(seg.src_ip, seg.dst_ip)
        if not interesting:
            return [seg]
        self.flow_table.track_keyed(seg, seg.conn_key(),
                                    reliable=self.network.reliable)
        return [seg]

    def process_burst(self, segs: List[Segment],
                      network: Network) -> List[Segment]:
        """Batched sensor entry: one burst, one border/flow-key lookup.

        All segments in a burst share one directional flow, so the
        border predicate, the fleet check, and the connection key are
        hoisted out of the loop.  Everything order-sensitive stays
        per-segment and in order: the blocking probe is re-checked before
        every segment (an earlier segment's verdict may have installed a
        blocking rule that must catch the rest of the burst) and
        ``track`` side effects (sweeps, callbacks, verdicts) interleave
        exactly as in the sequential path.
        """
        first = segs[0]
        interesting = self._interesting(first.src_ip, first.dst_ip)
        bips = self._blocked_ips
        bports = self._blocked_ports
        bus = self.sim.bus
        forwarded: List[Segment] = []
        if not interesting:
            for seg in segs:
                if seg.src_ip in bips or (seg.src_ip, seg.src_port) in bports:
                    self.dropped_segments += 1
                    bus.incr("gfw.segment.dropped")
                else:
                    forwarded.append(seg)
            return forwarded
        track_keyed = self.flow_table.track_keyed
        key = first.conn_key()
        reliable = self.network.reliable
        for seg in segs:
            if seg.src_ip in bips or (seg.src_ip, seg.src_port) in bports:
                self.dropped_segments += 1
                bus.incr("gfw.segment.dropped")
                continue
            track_keyed(seg, key, reliable=reliable)
            forwarded.append(seg)
        return forwarded

    # --------------------------------------------------- sensor → detector

    def _first_responder_data(self, flow: FlowState) -> None:
        self.reactions.on_server_data(flow.responder_ip, flow.responder_port)

    def _first_initiator_data(self, key: FlowKey, flow: FlowState,
                              seg: Segment) -> None:
        """The feature packet: first data from the connection's initiator."""
        now = self.sim.now
        if self.flow_table.recently_flagged(key, now):
            # A retransmitted SYN re-created the flow entry after a
            # teardown and the feature packet arrived again: one
            # connection, one flag decision.
            self.sim.bus.incr("gfw.conn.reflag.suppressed")
            return
        ctx = DetectorContext(seg.payload, now=now, rng=self.rng, flow=flow)
        # A one-context batch: every stage draws RNG exactly as
        # ``evaluate`` does.
        result = self.pipeline.evaluate_batch([ctx])[0]
        if not result.flagged:
            return
        self.flagged_connections += 1
        self.sim.bus.incr("gfw.conn.flagged")
        self.flow_table.note_flagged(key, now)
        self.reactions.on_verdict(
            Verdict(
                time=now,
                initiator_ip=flow.initiator_ip,
                initiator_port=flow.initiator_port,
                responder_ip=flow.responder_ip,
                responder_port=flow.responder_port,
                length=len(seg.payload),
                flagged=True,
                score=result.score,
                stage=result.stage,
                protocol=result.protocol,
            ),
            flow,
            seg.payload,
        )

    # ----------------------------------------------- back-compat shortcuts

    @property
    def scheduler(self):
        return self.reactions.scheduler

    @property
    def blocking(self):
        return self.reactions.blocking

    @property
    def probe_log(self):
        return self.runner.log

    @property
    def flows(self):
        return self.flow_table.flows

    @property
    def inspected_connections(self) -> int:
        return self.flow_table.opened
