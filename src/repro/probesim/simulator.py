"""The paper's prober simulator (§5.1).

Builds a minimal world around a single Shadowsocks server, sends it any
of the seven probe types (plus arbitrary-length random probes), and
records the server's reaction using the same taxonomy as Figure 10:
TIMEOUT / RST / FIN/ACK / DATA.

Unlike the GFW model, the simulator is an *experimenter's tool*: probes
are sent deterministically, not sampled, so every implementation corner
case can be exercised locally and efficiently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..gfw.probes import NR1_LENGTHS, Probe, ProbeForge, ProbeType
from ..net import CaptureRecord, Host, Network, Simulator
from ..shadowsocks import ShadowsocksClient, ShadowsocksServer
from .reactions import ReactionKind, classify_reaction

__all__ = ["ProbeResult", "ProberSimulator"]

SERVER_IP = "198.51.100.77"
CLIENT_IP = "192.0.2.77"
PROBER_IP = "192.0.2.99"
WEB_IP = "198.18.0.77"
SS_PORT = 8388
PROBER_TIMEOUT = 10.0  # the GFW gives up in <10 s; we match that horizon


@dataclass
class ProbeResult:
    probe: Probe
    reaction: str              # ReactionKind value
    elapsed: float             # time from probe data sent to reaction
    response_bytes: int = 0

    def __repr__(self):
        return f"<{self.probe.probe_type} len={len(self.probe.payload)} -> {self.reaction}>"


class ProberSimulator:
    """Probe one (implementation profile, cipher method) server model."""

    def __init__(self, profile: str, method: str, *, password: str = "pw",
                 seed: int = 0, timed_replay_window: Optional[float] = None):
        self.profile = profile  # registry name or a BehaviorProfile object
        self.profile_name = profile if isinstance(profile, str) else profile.name
        self.method = method
        self.password = password
        self.seed = seed
        self.timed_replay_window = timed_replay_window
        self.rng = random.Random(seed)
        self.forge = ProbeForge(random.Random(seed + 1))
        self._build()

    def _build(self) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.server_host = Host(self.sim, self.net, SERVER_IP, "server")
        self.client_host = Host(self.sim, self.net, CLIENT_IP, "client")
        self.prober_host = Host(self.sim, self.net, PROBER_IP, "prober")
        self.web_host = Host(self.sim, self.net, WEB_IP, "web")
        # Nothing reads these logs; record_legitimate_payload taps the
        # client's capture for the one segment it needs.
        for host in (self.server_host, self.client_host, self.prober_host,
                     self.web_host):
            host.capture.buffering = False
        self.net.register_name("target.example", WEB_IP)

        def web_app(conn):
            conn.on_data = lambda data: conn.send(b"HTTP/1.1 200 OK\r\n\r\nresponse")

        self.web_host.listen(80, web_app)
        self.server = ShadowsocksServer(
            self.server_host, SS_PORT, self.password, self.method,
            self.profile, rng=random.Random(self.seed + 2),
            timed_replay_window=self.timed_replay_window,
        )
        self.client = ShadowsocksClient(
            self.client_host, SERVER_IP, SS_PORT, self.password, self.method,
            rng=random.Random(self.seed + 3),
        )

    # ------------------------------------------------------------- recording

    def record_legitimate_payload(self, app_payload: bytes = b"GET / HTTP/1.1\r\n\r\n",
                                  target: Tuple[str, int] = ("target.example", 80)) -> bytes:
        """Run one legitimate connection; return its first wire payload.

        This is the payload the GFW would have recorded for replaying.
        """
        first: List[CaptureRecord] = []

        def tap(rec: CaptureRecord) -> None:
            if (not first and rec.sent and rec.segment.is_data
                    and rec.segment.dst_port == SS_PORT):
                first.append(rec)

        capture = self.client_host.capture
        capture.subscribe(tap)
        try:
            self.client.open(target[0], target[1], app_payload)
            self.sim.run(until=self.sim.now + 5.0)
        finally:
            capture.taps.remove(tap)
        if not first:
            raise RuntimeError("legitimate connection produced no data packet")
        rec = first[0]
        payload = bytes(rec.segment.payload)
        # Register the original send time so TimedReplayFilter can
        # model the client-embedded timestamp (see server engine).
        registry = getattr(self.server, "timestamp_registry", None)
        if registry is None:
            registry = {}
            self.server.timestamp_registry = registry
        spec = self.server.cipher_spec
        registry[payload[: spec.iv_len]] = rec.time
        return payload

    # ---------------------------------------------------------------- probing

    def send_probe(self, probe: Probe) -> ProbeResult:
        """Send one probe and classify the server's reaction."""
        conn = self.prober_host.connect(SERVER_IP, SS_PORT)
        events: List[Tuple[float, str]] = []
        start_holder = {}

        def on_connected():
            start_holder["t"] = self.sim.now
            conn.send(probe.payload)

        def on_data(data: bytes):
            events.append((self.sim.now, "data:%d" % len(data)))

        def on_fin():
            events.append((self.sim.now, "fin"))
            conn.close()

        def on_reset():
            events.append((self.sim.now, "rst"))

        conn.on_connected = on_connected
        conn.on_data = on_data
        conn.on_remote_fin = on_fin
        conn.on_reset = on_reset

        deadline = self.sim.now + PROBER_TIMEOUT + 5.0
        self.sim.run(until=deadline)
        if conn.state not in ("CLOSED",):
            conn.close()
            self.sim.run(until=self.sim.now + 2.0)
        start = start_holder.get("t", deadline)
        reaction, elapsed = classify_reaction(events, start, PROBER_TIMEOUT)
        response_bytes = sum(
            int(tag.split(":")[1]) for _, tag in events if tag.startswith("data:")
        )
        return ProbeResult(probe=probe, reaction=reaction, elapsed=elapsed,
                           response_bytes=response_bytes)

    def send_random_probe(self, length: int) -> ProbeResult:
        payload = self.forge.random_payload(length)
        return self.send_probe(Probe(ProbeType.NR1 if length in NR1_LENGTHS
                                     else ProbeType.NR2, payload))

    def replay_battery(self, payload: bytes,
                       types=(ProbeType.R1, ProbeType.R2, ProbeType.R3,
                              ProbeType.R4, ProbeType.R5)) -> Dict[str, ProbeResult]:
        """One probe of each replay type forged from ``payload``."""
        return {t: self.send_probe(self.forge.replay(payload, t)) for t in types}
