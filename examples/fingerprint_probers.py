#!/usr/bin/env python3
"""Fingerprinting the probing infrastructure (§3.3-3.4).

Runs the §3.1 experiment, then plays measurement researcher: classifies
the probes seen at one server's capture, recovers the shared TSval
processes behind the thousands of source addresses, summarizes source
ports / TTLs / ASes, and exports the probe packets to a real .pcap you
can open in Wireshark.

Run:  python examples/fingerprint_probers.py
"""

import collections
import tempfile

from repro.analysis import (
    cluster_tsval_sequences,
    ip_id_statistics,
    port_statistics,
    render_table,
    ttl_statistics,
)
from repro.experiments import ShadowsocksExperimentConfig, run_shadowsocks_experiment
from repro.net import export_capture, lookup_asn


def main():
    print("Running the Shadowsocks experiment (scaled to ~7 days)...\n")
    result = run_shadowsocks_experiment(ShadowsocksExperimentConfig(
        connections_per_pair=300, duration=7 * 24 * 3600.0, seed=12))
    log = result.probe_log
    print(f"{len(log)} probes from {len(set(result.prober_ips))} source IPs\n")

    # 1. Probe classification at one server's capture.
    name = "outline0-server"
    probes = result.server_probes[name]
    counts = collections.Counter(p.probe_type for p in probes)
    print(f"probe types observed at {name} (classified from its capture):")
    for probe_type, n in counts.most_common():
        print(f"  {probe_type:<4} {n}")

    # 2. Shared TSval processes (Figure 6).
    clusters = cluster_tsval_sequences([(r.time_sent, r.tsval) for r in log])
    big = [c for c in clusters if c.size >= 5]
    print(f"\nTSval processes recovered: {len(big)} "
          f"(vs {len(set(result.prober_ips))} source IPs)")
    for i, cluster in enumerate(big):
        print(f"  process {i + 1}: {cluster.size} probes, "
              f"slope {cluster.measured_rate():.1f} Hz")

    # 3. Port / TTL / IP-ID fingerprints.
    ports = port_statistics([r.src_port for r in log])
    server_host = result.world.hosts[name]
    ttls = ttl_statistics([
        rec.segment.ttl for rec in server_host.capture.syns_received()
        if lookup_asn(rec.segment.src_ip) is not None
    ])
    ip_ids = ip_id_statistics([
        rec.segment.ip_id for rec in server_host.capture.received()
        if lookup_asn(rec.segment.src_ip) is not None
    ])
    print(f"\nsource ports: {ports['linux_range_share']:.0%} in 32768-60999, "
          f"min {ports['min']}")
    print(f"SYN TTLs at server: {ttls['min']}-{ttls['max']} (paper: 46-50)")
    print(f"IP IDs: {ip_ids['distinct_fraction']:.0%} distinct, "
          f"lag-1 autocorrelation {ip_ids['lag1_autocorr']:.3f}")

    # 4. AS attribution.
    per_as = collections.Counter(lookup_asn(ip) for ip in set(result.prober_ips))
    rows = [(f"AS{asn}", n) for asn, n in per_as.most_common(5)]
    print("\nprober IPs per AS (top 5):")
    print(render_table(["AS", "unique IPs"], rows))

    # 5. Export the probe traffic for Wireshark.
    with tempfile.NamedTemporaryFile(suffix=".pcap", delete=False) as f:
        path = f.name
    n = export_capture(path, server_host.capture, received_only=True)
    print(f"\nwrote {n} packets to {path} (open with wireshark/tcpdump)")


if __name__ == "__main__":
    main()
