"""Benchmark suites for the crypto, simulator, analysis, detector and
shard layers.

Every measurement is emitted as a :class:`BenchEntry` with the schema

    {name, unit, value, params, host_fingerprint, git_rev}

where ``value`` is always higher-is-better (MB/s, events/s, packets/s),
so a single tolerance rule — ``current >= tolerance * baseline`` —
covers every entry in :mod:`repro.perf.compare`.

Timing discipline: the layer suites run each measurement ``repeats``
times and keep the *best* wall-clock (the standard way to suppress
scheduler noise for throughput numbers); buffers are deterministic
pseudo-random bytes so runs are comparable across hosts and revisions.
The shard suite times one run.  End-to-end throughput is not measured
here: ``bench/run.py`` times whole workloads cold, in fresh
interpreters.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "BenchEntry",
    "bench_analysis",
    "bench_crypto",
    "bench_detector",
    "bench_shard",
    "bench_sim",
    "git_rev",
    "host_fingerprint",
    "write_entries",
]


@dataclass
class BenchEntry:
    """One benchmark measurement (higher ``value`` is always better)."""

    name: str
    unit: str
    value: float
    params: Dict[str, Any] = field(default_factory=dict)
    host_fingerprint: str = ""
    git_rev: str = ""

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "value": self.value,
            "params": self.params,
            "host_fingerprint": self.host_fingerprint,
            "git_rev": self.git_rev,
        }


def host_fingerprint() -> str:
    """Coarse host identity so baselines aren't compared across machines."""
    return "|".join([
        platform.system(),
        platform.machine(),
        platform.python_implementation(),
        platform.python_version(),
    ])


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=str(Path(__file__).resolve().parent),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_entries(path, entries: Iterable[BenchEntry]) -> None:
    """Write one BENCH_*.json file: a JSON array of entry objects."""
    doc = [e.to_json_dict() for e in entries]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _best_of(fn: Callable[[], int], repeats: int) -> float:
    """Run ``fn`` (returning a work count) ``repeats`` times; best rate.

    Each repeat starts from a collected heap and runs with the cyclic GC
    paused, so collection pauses land between measurements instead of
    inside them — standard hygiene for wall-clock throughput numbers.
    """
    best = 0.0
    for _ in range(max(1, repeats)):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            work = fn()
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        if elapsed > 0:
            best = max(best, work / elapsed)
    return best


def _stamp(entries: List[BenchEntry]) -> List[BenchEntry]:
    host = host_fingerprint()
    rev = git_rev()
    for e in entries:
        e.host_fingerprint = host
        e.git_rev = rev
    return entries


# ------------------------------------------------------------------ crypto


def bench_crypto(*, size: int = 262144, repeats: int = 3,
                 only: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 ) -> List[BenchEntry]:
    """Throughput of every registered cipher through the public factories.

    Stream ciphers report ``encrypt`` and ``decrypt`` MB/s; AEADs report
    ``seal`` and ``open`` MB/s (AEAD messages are sealed in 16 KiB
    chunks, the shape of Shadowsocks AEAD tunnel traffic at max payload).
    ``seal_chunks`` seals ChaCha20-Poly1305 chunks of 64-576 B with their
    length records, the shape of the simulated tunnels' traffic.  Two
    entries have the shape of the §5.1 random probes a server answers:
    ``probe_keystreams``, AES-256-CTR sessions of 1-13 blocks sharing one
    key schedule (MB/s), and ``probe_opens``, AES-128-GCM opens of an
    18-byte ``[len][tag]`` record under a fresh key that fail (opens/s).
    ``only`` substring-filters cipher names.

    The AEAD record memo is disabled for the duration: this suite reports
    primitive throughput, and 16 KiB chunks would otherwise become dict
    hits after the first repeat.
    """
    from repro.crypto import (
        AESGCM,
        CIPHERS,
        AuthenticationError,
        CipherKind,
        new_aead,
        new_stream_cipher,
        stream_key,
    )
    from repro.crypto import recordcache

    rng = random.Random(0xBE7C4)
    data = rng.randbytes(size)
    entries: List[BenchEntry] = []
    memo_was = recordcache.enabled()
    recordcache.set_enabled(False)
    try:
        for spec in CIPHERS.values():
            if only and only not in spec.name:
                continue
            if progress:
                progress(f"crypto: {spec.name}")
            key = rng.randbytes(spec.key_len)
            params = {"size": size}
            if spec.kind == CipherKind.STREAM:
                iv = rng.randbytes(spec.iv_len)

                def enc() -> int:
                    cipher = new_stream_cipher(spec.name, key, iv, True)
                    cipher.process(data)
                    return size

                def dec() -> int:
                    cipher = new_stream_cipher(spec.name, key, iv, False)
                    cipher.process(data)
                    return size

                for op, fn in (("encrypt", enc), ("decrypt", dec)):
                    entries.append(BenchEntry(
                        name=f"crypto.{spec.name}.{op}", unit="MB/s",
                        value=_best_of(fn, repeats) / 1e6, params=dict(params)))
            else:
                nonce = rng.randbytes(12)
                chunk = 16384
                chunks = [data[i : i + chunk] for i in range(0, size, chunk)]
                aead_params = dict(params, chunk=chunk)

                def seal() -> int:
                    aead = new_aead(spec.name, key)
                    for piece in chunks:
                        aead.seal(nonce, piece)
                    return size

                sealed = [new_aead(spec.name, key).seal(nonce, piece)
                          for piece in chunks]

                def opener() -> int:
                    aead = new_aead(spec.name, key)
                    for piece in sealed:
                        aead.open(nonce, piece)
                    return size

                for op, fn in (("seal", seal), ("open", opener)):
                    entries.append(BenchEntry(
                        name=f"crypto.{spec.name}.{op}", unit="MB/s",
                        value=_best_of(fn, repeats) / 1e6,
                        params=dict(aead_params)))
        if not only or only in "chacha20-ietf-poly1305":
            # Tunnel-shaped chunks: each call seals a 2-byte length
            # record and a 64-576 B payload record under consecutive
            # nonces, as ``AeadEncryptor.encrypt`` does.  That is 4-12
            # keystream blocks a call, the size the tunnels make; the
            # 16 KiB chunks above are 257-block calls.
            if progress:
                progress("crypto: chacha20-ietf-poly1305 tunnel chunks")
            chunk_rng = random.Random(0xC4C4)
            aead = new_aead("chacha20-ietf-poly1305", chunk_rng.randbytes(32))
            calls = []
            pos = 0
            while pos < size:
                piece = data[pos : pos + chunk_rng.randint(64, 576)]
                nonce = 2 * len(calls)
                calls.append([(nonce.to_bytes(12, "little"),
                               len(piece).to_bytes(2, "big")),
                              ((nonce + 1).to_bytes(12, "little"), piece)])
                pos += len(piece)

            def seal_chunks() -> int:
                for records in calls:
                    aead.seal_records(records)
                return size

            entries.append(BenchEntry(
                name="crypto.chacha20-ietf-poly1305.seal_chunks", unit="MB/s",
                value=_best_of(seal_chunks, repeats) / 1e6,
                params={"size": size, "payload": [64, 576]}))
        if not only or only in "aes-256-ctr":
            # A stream server's probe sessions: a fresh IV each, one
            # shared key schedule, 1-13 blocks (the row-lane AES loop and
            # the single-block T-table loop).
            if progress:
                progress("crypto: aes-256-ctr probe keystreams")
            probe_rng = random.Random(0x5E55)
            shared = stream_key("aes-256-ctr", probe_rng.randbytes(32))
            probes = []
            pos = 0
            while pos < size:
                piece = data[pos : pos + probe_rng.randint(1, 208)]
                probes.append((probe_rng.randbytes(16), piece))
                pos += len(piece)

            def probe_keystreams() -> int:
                for iv, piece in probes:
                    new_stream_cipher("aes-256-ctr", shared, iv, False).process(piece)
                return size

            entries.append(BenchEntry(
                name="crypto.aes-256-ctr.probe_keystreams", unit="MB/s",
                value=_best_of(probe_keystreams, repeats) / 1e6,
                params={"size": size, "payload": [1, 208]}))
        if not only or only in "aes-128-gcm":
            # An AEAD server's first open of a probe: a fresh subkey, and
            # a [len][tag] record whose tag fails (a 2-block GHASH).
            if progress:
                progress("crypto: aes-128-gcm probe opens")
            open_rng = random.Random(0x0FE2)
            opens = [(open_rng.randbytes(16), open_rng.randbytes(18))
                     for _ in range(size // 64)]
            nonce = bytes(12)

            def probe_opens() -> int:
                for key, record in opens:
                    try:
                        AESGCM(key).open(nonce, record)
                    except AuthenticationError:
                        pass
                return len(opens)

            entries.append(BenchEntry(
                name="crypto.aes-128-gcm.probe_opens", unit="opens/s",
                value=_best_of(probe_opens, repeats),
                params={"opens": len(opens), "record": 18}))
    finally:
        recordcache.set_enabled(memo_was)
    return _stamp(entries)


# --------------------------------------------------------------- simulator


def bench_sim(*, events: int = 200000, fanout: int = 4,
              repeats: int = 3,
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[BenchEntry]:
    """Raw event-loop throughput on a synthetic self-rescheduling load.

    ``fanout`` timer chains reschedule themselves with deterministic
    jittered delays until ``events`` callbacks have run — the same
    schedule/pop/dispatch path every simulated segment takes.
    """
    from repro.net.sim import Simulator

    if progress:
        progress(f"sim: {events} events, fanout={fanout}")

    def run() -> int:
        sim = Simulator()
        rng = random.Random(1234)

        def tick(chain: int) -> None:
            sim.schedule(0.001 + rng.random() * 0.01, tick, chain)

        for chain in range(fanout):
            sim.schedule(rng.random() * 0.01, tick, chain)
        return sim.run(max_events=events)

    rate = _best_of(run, repeats)
    return _stamp([BenchEntry(
        name="sim.event_loop", unit="events/s", value=rate,
        params={"events": events, "fanout": fanout})])


# ---------------------------------------------------------------- analysis


def bench_analysis(*, events: int = 200000, repeats: int = 3,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> List[BenchEntry]:
    """Streaming-analyzer throughput over a synthetic event stream.

    Pre-builds a deterministic mix of ``probe``/``payload``/
    ``flow.flagged`` records, then times a full
    :class:`~repro.analysis.pipeline.AnalysisPipeline` — bus attach,
    per-event ``observe`` across a representative analyzer set, and
    ``finalize`` — reporting analysis events/s.
    """
    from repro.analysis.pipeline import (
        AnalysisPipeline,
        EcdfAnalyzer,
        FlaggedConnections,
        ProbeTally,
        RandomDataStats,
        ReplayDelays,
    )
    from repro.runtime.events import EventBus

    if progress:
        progress(f"analysis: {events} events")

    rng = random.Random(0xA11A)
    payloads = [rng.randbytes(rng.randint(16, 220)) for _ in range(64)]
    stream = []
    for i in range(events):
        roll = rng.random()
        if roll < 0.5:
            stream.append(("payload", {
                "time": i * 0.01,
                "payload": payloads[rng.randrange(len(payloads))],
            }))
        elif roll < 0.85:
            payload = payloads[rng.randrange(len(payloads))]
            stream.append(("probe", {
                "time": i * 0.01,
                "src_ip": f"10.{rng.randrange(256)}.{rng.randrange(256)}.7",
                "src_port": rng.randrange(1024, 65536),
                "server_ip": "203.0.113.5",
                "server_port": 8388,
                "probe_type": rng.choice(["replay", "rand", "rand-len"]),
                "is_replay": rng.random() < 0.5,
                "payload": payload,
                "source_payload": payload,
                "delay": rng.random() * 400.0,
            }))
        else:
            stream.append(("flow.flagged", {"time": i * 0.01}))

    def run() -> int:
        bus = EventBus()
        pipeline = AnalysisPipeline({
            "probes": ProbeTally(),
            "flagged": FlaggedConnections(),
            "replay_delays": ReplayDelays(),
            "random_data": RandomDataStats(bins=8),
            "delay_ecdf": EcdfAnalyzer(event="probe", field="delay",
                                       quantiles=(0.5, 0.9, 0.99)),
        }).attach(bus)
        for kind, event in stream:
            bus.emit(kind, event)
        pipeline.outputs()
        pipeline.detach()
        return len(stream)

    rate = _best_of(run, repeats)
    return _stamp([BenchEntry(
        name="analysis.pipeline", unit="events/s", value=rate,
        params={"events": events, "analyzers": 5})])


# ---------------------------------------------------------------- detector


def bench_detector(*, packets: int = 20000, repeats: int = 3,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> List[BenchEntry]:
    """Detector-stage throughput over a mixed first-packet corpus.

    Builds a deterministic half-Shadowsocks / half-plaintext corpus (the
    same generators the trainable stages fit on), cycles it up to
    ``packets`` feature packets, and times each registered in-path
    pipeline shape — the paper's passive classifier, the deterministic
    entropy and VMess stages, and a three-member weighted ensemble —
    plus the passive stage fed through ``evaluate_batch``, reporting
    flagged-or-not decisions per wall-clock second (flags/s).  It also
    times ``shannon_entropy`` alone on payloads that miss its payload
    memo (calls/s).
    """
    from repro.gfw.entropy import shannon_entropy
    from repro.gfw.stages import DetectorContext, build_stage, training_corpus
    from repro.runtime.scale import ScaleFlowsConfig

    if progress:
        progress(f"detector: {packets} packets")

    positives, negatives = training_corpus(seed=0xD7, samples=128)
    mixed = [p for pair in zip(positives, negatives) for p in pair]
    corpus = [mixed[i % len(mixed)] for i in range(packets)]

    specs = {
        "passive": {"kind": "passive", "base_rate": 1.0},
        "entropy": "entropy",
        "vmess": "vmess",
        "ensemble": {"kind": "weighted", "threshold": 0.6,
                     "members": [{"kind": "passive", "base_rate": 1.0},
                                 "entropy", "vmess"]},
    }
    entries: List[BenchEntry] = []
    for label, spec in specs.items():
        stage = build_stage(spec)
        if progress:
            progress(f"detector: {label}")

        def run(stage=stage) -> int:
            rng = random.Random(0x5EED)
            evaluate = stage.evaluate
            for payload in corpus:
                evaluate(DetectorContext(payload, rng=rng))
            return len(corpus)

        entries.append(BenchEntry(
            name=f"detector.{label}", unit="flags/s",
            value=_best_of(run, repeats),
            params={"packets": packets, "spec": label}))

    batch_stage = build_stage(specs["passive"])

    def run_batch() -> int:
        rng = random.Random(0x5EED)
        ctxs = [DetectorContext(payload, rng=rng) for payload in corpus]
        batch_stage.evaluate_batch(ctxs)
        return len(corpus)

    entries.append(BenchEntry(
        name="detector.passive_batch", unit="flags/s",
        value=_best_of(run_batch, repeats),
        params={"packets": packets, "spec": "passive"}))

    # The corpus above repeats 256 payloads, so the entries above read
    # every entropy from the payload memo.  Time the computation itself
    # on census-shaped Shadowsocks feature packets that no earlier call
    # has seen: a fresh seed per repeat, each corpus built untimed.
    shape = ScaleFlowsConfig()
    lengths = (shape.ss_min_len, shape.ss_max_len)
    distinct: List[bytes] = []

    def run_distinct() -> int:
        for payload in distinct:
            shannon_entropy(payload)
        return len(distinct)

    if progress:
        progress("detector: entropy_distinct")
    best = 0.0
    for repeat in range(max(1, repeats)):
        rng = random.Random(0xE27 + repeat)
        distinct[:] = [rng.randbytes(rng.randint(*lengths))
                       for _ in range(packets)]
        best = max(best, _best_of(run_distinct, 1))
    entries.append(BenchEntry(
        name="detector.entropy_distinct", unit="calls/s", value=best,
        params={"packets": packets, "lengths": list(lengths)}))
    return _stamp(entries)


# ------------------------------------------------------------------- shard


def bench_shard(*, flows: int = 1_000_000,
                progress: Optional[Callable[[str], None]] = None,
                ) -> List[BenchEntry]:
    """Wall-clock throughput of one sharded ``scale-1m`` run.

    Runs the ``scale-1m`` scenario (``flows`` synthetic border-crossing
    flows through the censor hot path) once under ``run_sharded`` with
    one shard and one worker process per CPU, and divides its merged
    counters by the run's wall time, orchestration and merge included:

    * ``shard.events_per_s`` — simulator events per wall-clock second;
    * ``shard.packets_per_s`` — tracked segments per wall-clock second.

    The CPU count, which is also the shard and job count, is recorded
    in each entry's params.
    """
    import os

    from repro.runtime.runner import run_sharded

    cpus = os.cpu_count() or 1
    if progress:
        progress(f"shard: {flows} flows across {cpus} shard(s), jobs={cpus}")
    sharded = run_sharded("scale-1m", seed=0, overrides={"flows": flows},
                          shards=cpus, jobs=cpus, use_cache=False)
    counters = sharded.merged.events["counters"]
    params = {"flows": flows, "cpus": cpus}
    return _stamp([
        BenchEntry(name="shard.events_per_s", unit="events/s",
                   value=counters.get("sim.events", 0) / sharded.wall_time,
                   params=dict(params)),
        BenchEntry(name="shard.packets_per_s", unit="packets/s",
                   value=counters.get("scale.segments", 0) / sharded.wall_time,
                   params=dict(params)),
    ])
