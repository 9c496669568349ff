"""The prober fleet: thousands of source IPs, a handful of real processes.

Fingerprints reproduced from §3.3–§3.4:

* **IP pool** (Figure 3, Table 2, Table 3): probes come from a large,
  churning pool of Chinese addresses drawn from the Table 3 AS mix.
  New addresses keep appearing (≈24% of probes mint a fresh IP), but
  reuse is preferential, so >75% of addresses recur and the most common
  ones accumulate ~30–45 probes.
* **TCP timestamps** (Figure 6): despite the many IPs, TSvals fall on a
  small number of shared linear sequences — at least seven processes,
  six ticking at 250 Hz (one of which dominates) and one small cluster
  at ~1000 Hz.  Sequences wrap at 2^32.
* **Source ports** (Figure 5): ~90% in the Linux default ephemeral range
  32768–60999, the rest spread above 1024 (minimum observed 1212).
* **TTL**: probe SYNs arrive with TTL 46–50.
* **IP ID**: no discernible pattern (modeled as random).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.asdb import ASDatabase

__all__ = ["TsvalProcess", "ProberFleet", "FleetConfig"]


@dataclass
class TsvalProcess:
    """One centralized probing process with its own TSval clock."""

    name: str
    rate_hz: float
    offset: int  # TSval at simulation time 0

    def tsval_at(self, now: float) -> int:
        return int(self.offset + self.rate_hz * now) & 0xFFFFFFFF

    def source(self):
        """A per-connection tsval callable for TcpConnection."""
        return self.tsval_at


@dataclass
class FleetConfig:
    new_ip_probability: float = 0.237   # 12,300 unique IPs / 51,837 probes
    linux_port_share: float = 0.90
    min_port: int = 1024
    ttl_low: int = 46                   # arrival TTL range at the server
    ttl_high: int = 50
    initial_ttl: int = 64
    dominant_process_share: float = 0.80
    n_250hz_processes: int = 6
    probe_timeout_low: float = 5.0      # GFW probers give up in <10 s
    probe_timeout_high: float = 9.5
    process_share_1000hz: float = 0.002  # the tiny 22-probe 1000 Hz cluster


class ProberFleet:
    """Allocates prober identities (IP, port, TTL, TSval process)."""

    def __init__(self, host, rng: Optional[random.Random] = None,
                 config: Optional[FleetConfig] = None,
                 asdb: Optional[ASDatabase] = None):
        self.host = host
        self.rng = rng or random.Random(0xF1EE7)
        self.config = config or FleetConfig()
        self.asdb = asdb or ASDatabase()
        self._pool: List[str] = []            # pool of minted prober IPs
        self._use_counts: Dict[str, int] = {}
        self.processes = self._spawn_processes()

    def _spawn_processes(self) -> List[TsvalProcess]:
        procs = []
        for i in range(self.config.n_250hz_processes):
            procs.append(TsvalProcess(
                name=f"proc-250hz-{i}",
                rate_hz=250.0,
                offset=self.rng.randrange(1 << 32),
            ))
        procs.append(TsvalProcess(
            name="proc-1000hz-0",
            rate_hz=1009.0,  # the paper measures the small cluster at ~1009 Hz
            offset=self.rng.randrange(1 << 32),
        ))
        return procs

    # ------------------------------------------------------------ identity

    def pick_ip(self) -> str:
        """Mint-or-reuse (reproduces Figure 3 / Table 2).

        Reuse is uniform over the pool.  With mint probability p, the
        fraction of addresses used exactly once converges to p itself
        (~24%), giving the paper's ">75% of addresses sent more than one
        probe", and the earliest-minted addresses accumulate
        O(((1-p)/p)·ln(pool)) ≈ 30-45 probes — the Table 2 head.
        """
        if not self._pool or self.rng.random() < self.config.new_ip_probability:
            ip = self._mint_ip()
        else:
            ip = self.rng.choice(self._pool)
        self._use_counts[ip] += 1
        return ip

    def _mint_ip(self) -> str:
        while True:
            ip = self.asdb.sample_ip(self.rng)
            if ip not in self._use_counts:
                break
        self._pool.append(ip)
        self._use_counts[ip] = 0
        self.host.network.register_extra_ip(self.host, ip)
        # Path length fixed per address so its arrival TTL is stable.
        hops = self.config.initial_ttl - self.rng.randint(
            self.config.ttl_low, self.config.ttl_high
        )
        self.host.network.set_hops(ip, "*", hops)
        return ip

    def pick_port(self) -> int:
        if self.rng.random() < self.config.linux_port_share:
            return self.rng.randint(32768, 60999)
        # Outside the Linux default range but never below 1024.
        while True:
            port = self.rng.randint(self.config.min_port, 65237)
            if not 32768 <= port <= 60999:
                return port

    def pick_process(self) -> TsvalProcess:
        roll = self.rng.random()
        if roll < self.config.process_share_1000hz:
            return self.processes[-1]
        if roll < self.config.process_share_1000hz + self.config.dominant_process_share:
            return self.processes[0]
        return self.rng.choice(self.processes[1:-1])

    def pick_timeout(self) -> float:
        return self.rng.uniform(self.config.probe_timeout_low,
                                self.config.probe_timeout_high)

    @property
    def unique_ips(self) -> int:
        return len(self._pool)

    @property
    def use_counts(self) -> Dict[str, int]:
        return dict(self._use_counts)
