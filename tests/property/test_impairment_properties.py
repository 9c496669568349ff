"""Impairment invariants: determinism across processes, zero == absent."""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.runtime.topology import build_world
from repro.gfw import DetectorConfig
from repro.net import Impairment
from repro.runtime import JobSpec, execute_job
from repro.shadowsocks import ShadowsocksClient, ShadowsocksServer
from repro.workloads import CurlDriver

ROOT = pathlib.Path(__file__).resolve().parents[2]
# sha256 of ``_trace`` per fault profile (a loss x reorder x duplicate
# grid at fixed jitter), pinned from the batched datapath and checked
# equal to the per-segment one (``tests/net_reference.py``).
GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "impaired_trace_golden.json").read_text())

SMALL_GRID = {
    "loss_rates": (0.0, 0.02),
    "reorder_rates": (0.0, 0.1),
    "connections": 6,
    "interval": 15.0,
    "duration": 900.0,
}


def test_impaired_sweep_serial_equals_parallel():
    # Any impairment configuration with a fixed seed must be
    # byte-identical whether run serially or fanned out over processes.
    serial = execute_job(JobSpec("impairment-matrix", (0, 1), SMALL_GRID,
                                 jobs=1, use_cache=False))
    parallel = execute_job(JobSpec("impairment-matrix", (0, 1), SMALL_GRID,
                                   jobs=2, use_cache=False))
    assert serial.canonical_bytes() == parallel.canonical_bytes()


def _trace(world):
    """A byte-comparable rendition of everything observable in a world."""
    segments = [
        (rec.time, rec.sent, rec.segment.flags, rec.segment.seq,
         rec.segment.ack, rec.segment.payload, rec.segment.ttl,
         rec.segment.ip_id, rec.segment.tsval)
        for host in world.hosts.values()
        for rec in host.capture
    ]
    return (segments, world.bus.snapshot(), world.gfw.flagged_connections,
            len(world.gfw.probe_log), world.net.segments_delivered,
            world.net.segments_dropped)


def trace_digest(trace) -> str:
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def _run_workload(impairment):
    world = build_world(seed=5,
                        detector_config=DetectorConfig(base_rate=1.0),
                        websites=["example.com"],
                        impairment=impairment,
                        stream_captures=False)
    server_host = world.add_server("server", region="uk")
    client_host = world.add_client("client")
    ShadowsocksServer(server_host, 8388, "pw", "chacha20-ietf-poly1305",
                      "ss-libev-3.3.1", rng=random.Random(6))
    client = ShadowsocksClient(client_host, server_host.ip, 8388, "pw",
                               "chacha20-ietf-poly1305", rng=random.Random(7))
    CurlDriver(client, rng=random.Random(8),
               sites=["example.com"]).run_schedule(5, 30.0)
    world.sim.run(until=1800.0)
    return _trace(world)


def test_zero_impairment_reproduces_pristine_traces():
    # An all-zero Impairment must be indistinguishable from no
    # impairment at all: same segments, same timing, same bus counters.
    assert _run_workload(None) == _run_workload(Impairment())


def test_impaired_workload_reproducible_per_seed():
    imp = Impairment(loss=0.03, reorder=0.05, jitter=0.002)
    assert _run_workload(imp) == _run_workload(imp)


@pytest.mark.parametrize(
    "profile", GOLDEN["profiles"],
    ids=lambda p: f"loss{p['loss']}-reorder{p['reorder']}-dup{p['duplicate']}")
def test_impaired_trace_matches_pinned_digest(profile):
    # Every retransmission, reordering and duplicate of the seeded world
    # under this fault profile, byte for byte.
    imp = Impairment(loss=profile["loss"], reorder=profile["reorder"],
                     duplicate=profile["duplicate"], jitter=GOLDEN["jitter"])
    assert trace_digest(_run_workload(imp)) == profile["sha256"]


def test_trace_independent_of_hash_seed():
    # Host RNGs must not be seeded from ``hash()``, which changes with
    # PYTHONHASHSEED: two interpreters running one seed give one trace.
    code = ("from tests.property.test_impairment_properties import "
            "_run_workload, trace_digest; "
            "from repro.net import Impairment; "
            "print(trace_digest(_run_workload("
            "Impairment(loss=0.03, reorder=0.05, jitter=0.002))))")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
