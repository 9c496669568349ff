"""Browsing workloads that drive a Shadowsocks client (§3.1).

* :class:`CurlDriver` — the Shadowsocks-libev setup: constantly fetch one
  of a small set of sites at a fixed frequency (the paper used curl
  against wikipedia.org / example.com / gfw.report).
* :class:`BrowserDriver` — the OutlineVPN setup: Firefox automatically
  browsing a list of (censored) sites, with think-time jitter.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..randutil import choice_draw
from ..shadowsocks.client import ShadowsocksClient
from .httpgen import SITES, site_request

__all__ = ["CurlDriver", "BrowserDriver"]


class CurlDriver:
    """Fixed-frequency fetches of a fixed site list through the tunnel."""

    def __init__(self, client: ShadowsocksClient, *, sites: Optional[List[str]] = None,
                 rng: Optional[random.Random] = None, target_port: int = 443):
        self.client = client
        self.sites = list(sites or SITES[:3])
        self.rng = rng or random.Random(0xCAFE)
        self.target_port = target_port

    def fetch_once(self):
        """Start one fetch and return its client session."""
        site = choice_draw(self.rng, self.sites)
        payload = site_request(site, self.rng)
        self.client.host.sim.bus.incr("workload.fetch")
        return self.client.open(site, self.target_port, payload)

    def run_schedule(self, count: int, interval: float, start: float = 0.0) -> None:
        for i in range(count):
            self.client.host.sim.schedule(start + i * interval, self.fetch_once)


class BrowserDriver:
    """Jittered automatic browsing of a larger site list."""

    def __init__(self, client: ShadowsocksClient, *, sites: Optional[List[str]] = None,
                 rng: Optional[random.Random] = None,
                 think_time_low: float = 2.0, think_time_high: float = 30.0,
                 target_port: int = 443):
        self.client = client
        self.sites = list(sites or SITES)
        self.rng = rng or random.Random(0xB0B)
        self.think_low = think_time_low
        self.think_high = think_time_high
        self.target_port = target_port
        self._stopped = False

    def start(self, duration: float) -> None:
        """Browse until ``duration`` seconds from now."""
        self._deadline = self.client.host.sim.now + duration
        self._visit()

    def stop(self) -> None:
        self._stopped = True

    def _visit(self) -> None:
        sim = self.client.host.sim
        if self._stopped or sim.now >= self._deadline:
            return
        site = self.rng.choice(self.sites)
        payload = site_request(site, self.rng)
        self.client.open(site, self.target_port, payload)
        sim.schedule(self.rng.uniform(self.think_low, self.think_high), self._visit)
