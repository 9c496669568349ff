"""Shared world-building for the paper's experiments (canonical home).

A *world* is a simulated Internet split at the Chinese border: client
hosts inside China, measurement servers outside (or vice versa, for the
§4.2 directionality experiment), and a :class:`GreatFirewall` middlebox
on the path.  The inside address space covers the Table 3 prober ASes,
the fleet anchor, and the experiment's own client subnets, so the GFW
sees exactly the border-crossing traffic it should.

This module is deliberately *not* imported from
``repro.runtime.__init__`` — it pulls in :mod:`repro.net` and
:mod:`repro.gfw`, which themselves import :mod:`repro.runtime.events`,
and eagerly importing it from the package root would create a cycle.
Import it as ``repro.runtime.topology`` directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..gfw import (
    BlockingPolicy,
    DetectorConfig,
    FleetConfig,
    GreatFirewall,
    SchedulerConfig,
)
from ..net import AS_TABLE, Host, Impairment, Network, Simulator

__all__ = ["CHINA_CIDRS", "World", "build_world", "settle", "subnet_prefix"]

# Inside-China address space: every prober AS prefix, the fleet anchor
# block, and the subnets we place experiment clients in.
CLIENT_SUBNET_BEIJING = "192.0.2.0/24"      # Tencent Beijing datacenter stand-in
CLIENT_SUBNET_RESIDENTIAL = "192.88.99.0/24"  # residential network stand-in
FLEET_BLOCK = "100.64.0.0/10"

CHINA_CIDRS: List[str] = (
    [prefix for info in AS_TABLE for prefix in info.prefixes]
    + [CLIENT_SUBNET_BEIJING, CLIENT_SUBNET_RESIDENTIAL, FLEET_BLOCK]
)

# Outside-world addressing.
SERVER_SUBNET_UK = "198.51.100."      # Digital Ocean UK stand-in
SERVER_SUBNET_US = "203.0.113."       # US datacenter / university stand-in
WEB_SUBNET = "198.18.0."              # the public web sites being browsed


def subnet_prefix(subnet: str) -> str:
    """Normalize a /24 spec to its dotted prefix.

    Accepts ``"192.0.2.0/24"``, ``"192.0.2.0"`` or ``"192.0.2."`` and
    returns ``"192.0.2."``.
    """
    subnet = subnet.split("/", 1)[0]
    if subnet.endswith("."):
        return subnet
    return subnet.rsplit(".", 1)[0] + "."


@dataclass
class World:
    sim: Simulator
    net: Network
    gfw: GreatFirewall
    rng: random.Random
    hosts: Dict[str, Host] = field(default_factory=dict)
    _next_ip: Dict[str, int] = field(default_factory=dict)
    # Streaming (the default): host captures stay enabled, so analysis
    # taps fire, but buffer nothing, keeping long runs constant-memory.
    # Reading such a host's log raises; a caller that reads one builds
    # the world with ``stream_captures=False``.
    stream_captures: bool = True

    # Host indices run 10..254: below 10 is reserved for infrastructure
    # conventions, 255 would be the broadcast address.
    FIRST_HOST_INDEX = 10
    LAST_HOST_INDEX = 254

    @property
    def bus(self):
        """The world's instrumentation bus (lives on the simulator)."""
        return self.sim.bus

    def add_host(self, name: str, subnet: str, **kwargs) -> Host:
        """Attach a host on the given /24 (e.g. "198.51.100." or a CIDR)."""
        prefix = subnet_prefix(subnet)
        index = self._next_ip.get(prefix, self.FIRST_HOST_INDEX)
        if index > self.LAST_HOST_INDEX:
            raise ValueError(
                f"subnet {prefix}0/24 is exhausted: host index {index} exceeds "
                f"{self.LAST_HOST_INDEX} (cannot mint a valid /24 address for "
                f"host {name!r}); spread hosts over more subnets"
            )
        self._next_ip[prefix] = index + 1
        host = Host(self.sim, self.net, f"{prefix}{index}", name, **kwargs)
        if self.stream_captures:
            host.capture.buffering = False
        self.hosts[name] = host
        return host

    def add_client(self, name: str, residential: bool = False) -> Host:
        subnet = (
            CLIENT_SUBNET_RESIDENTIAL if residential else CLIENT_SUBNET_BEIJING
        )
        return self.add_host(name, subnet)

    def add_server(self, name: str, region: str = "uk") -> Host:
        subnet = {"uk": SERVER_SUBNET_UK, "us": SERVER_SUBNET_US,
                  "web": WEB_SUBNET}[region]
        return self.add_host(name, subnet)

    def add_website(self, hostname: str) -> Host:
        """Attach a public web server and register its DNS name."""
        host = self.add_server(f"web-{hostname}", region="web")
        self.net.register_name(hostname, host.ip)

        def web_app(conn):
            conn.on_data = lambda data: conn.send(
                b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n" + b"x" * 64
            )
            conn.on_remote_fin = conn.close

        host.listen(80, web_app)
        host.listen(443, web_app)
        return host


def build_world(
    seed: int = 0,
    *,
    detector_config: Optional[DetectorConfig] = None,
    detectors: Optional[Any] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    fleet_config: Optional[FleetConfig] = None,
    blocking_policy: Optional[BlockingPolicy] = None,
    probe_behaviors: Optional[Dict[str, Any]] = None,
    websites: Optional[List[str]] = None,
    impairment: Optional[Impairment] = None,
    stream_captures: bool = True,
) -> World:
    """Build a bordered world with a GFW on the path.

    ``detectors`` is a JSON-able detector-stage spec (see
    :mod:`repro.gfw.stages`) selecting the in-path detector pipeline;
    ``None`` keeps the paper's passive classifier configured by
    ``detector_config``.

    ``probe_behaviors`` maps protocol names to probing-behaviour specs
    (see :mod:`repro.gfw.probing`), overriding the playbook the censor
    runs against flagged flows classified as that protocol.

    ``impairment`` attaches a network-wide fault profile (loss,
    reordering, duplication, jitter, flaps); an inactive (all-zero)
    profile is equivalent to ``None`` and leaves the fabric pristine.
    The network's fault RNG is derived from ``seed`` directly — not
    drawn from the world RNG — so enabling impairments never shifts the
    seed derivations of the GFW, hosts, or workloads.

    ``stream_captures`` (on by default) disables capture *buffering*
    on every host (including the fleet anchor) while leaving captures
    enabled, so streaming-analysis taps still see every segment but
    nothing accumulates in memory.  Reading such a host's log
    (``capture.records``, its query helpers, ``export_capture``) raises
    :class:`RuntimeError`; a caller that reads a log passes
    ``stream_captures=False`` to keep one.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, impairment=impairment,
                  rng=random.Random((seed << 4) ^ 0x1A7E7))
    gfw = GreatFirewall(
        sim, net, CHINA_CIDRS,
        rng=random.Random(rng.randrange(1 << 30)),
        detector_config=detector_config,
        detectors=detectors,
        scheduler_config=scheduler_config,
        fleet_config=fleet_config,
        blocking_policy=blocking_policy,
        probe_behaviors=probe_behaviors,
    )
    world = World(sim=sim, net=net, gfw=gfw, rng=rng,
                  stream_captures=stream_captures)
    if stream_captures:
        gfw.fleet_host.capture.buffering = False
    for hostname in websites or []:
        world.add_website(hostname)
    return world


def settle(world: World, duration: float, drain: float = 1.25) -> None:
    """Run the world past ``duration`` so in-flight activity drains.

    Every experiment ends the same way: run the event loop ``drain``
    times longer than the nominal measurement window so late probes,
    retransmissions, and connection teardowns complete.  Centralizing
    the idiom here keeps the drain factor a visible, auditable choice.
    """
    world.sim.run(until=duration * drain)
