"""The repository's layers as tracer targets, and the per-layer metrics.

Each target names a public entry point of one layer, by the module that
defines it.  The set is chosen at the seams where one layer hands work
to the next, so that every span's children are other layers:

  runtime         the runner entry points (the root of every trace)
  net.sim         the event loop; unwrapped event callbacks count here
  net.network     routing and delivery scheduling
  net.host        per-host receive dispatch and transmit bursting
  net.tcp         the TCP state machine
  gfw             the censor's sensor and reaction chain
  gfw.flowtable   flow tracking
  gfw.stages      detector stages
  gfw.entropy     Shannon entropy of feature packets
  gfw.probing     probe scheduling and the prober runner
  crypto.aead     AEAD seal/open, and the record memo inside them
  crypto.stream   stream-cipher keystream XOR
  crypto.setup    cipher construction
  crypto.kdf      key derivation
  shadowsocks     client/server sessions and the record layer
  probesim        the §5.1 prober simulator
  analysis        streaming analyzers
  runtime.events  structured-record dispatch on the bus
  workloads       traffic generators (curl-like drivers, flow synthesis)
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Sequence

from tracer import ONE, Target

SPAN_LAYERS = (
    "runtime", "net.sim", "net.network", "net.host", "net.tcp", "gfw",
    "gfw.flowtable", "gfw.stages", "gfw.entropy", "gfw.probing",
    "crypto.aead", "crypto.stream", "crypto.setup", "crypto.kdf",
    "shadowsocks", "probesim", "analysis", "runtime.events", "workloads",
)

# lru_cache'd functions whose hit rates are read from cache_info().
LRU_PROBES = {
    "crypto.kdf": ("repro.crypto.kdf", "hkdf_sha1"),
    "crypto.chacha_block": ("repro.crypto.chacha20", "chacha20_block"),
}

# Bus counters of a run's own snapshot that count TCP retransmissions.
RETRANSMIT_COUNTERS = ("tcp.retransmit", "tcp.syn.retry")


def _first_arg_len(state, args, result) -> int:
    return len(args[1])


def _burst_len(state, args, result) -> int:
    return len(args[1].segments)


def _consumed(state, args, result) -> int:
    return result


def _flagged(state, args, result) -> int:
    return sum(1 for r in result if r.flagged)


def _payload_len(state, args, result) -> int:
    return len(args[2])


def _repeat(state, args, result) -> int:
    # Keyed on the bytes' hash: a set of the payloads themselves would
    # hold every distinct feature packet of the run in memory.
    seen = state.setdefault("entropy.seen", set())
    key = hash(args[0])
    if key in seen:
        return 1
    seen.add(key)
    return 0


TARGETS: List[Target] = [
    Target("runtime", "repro.runtime.runner:run_scenario"),
    Target("runtime", "repro.runtime.runner:run_sharded"),

    Target("net.sim", "repro.net.sim:Simulator.run",
           (("net.sim.callbacks", _consumed),)),

    Target("net.network", "repro.net.network:Network.send_segment",
           (("net.network.segments", ONE),)),
    Target("net.network", "repro.net.network:Network.send_segment_burst",
           (("net.network.segments", _burst_len),
            ("net.network.burst_segments", _burst_len))),
    *[Target("net.network", f"repro.net.network:Network.{name}")
      for name in ("inject", "_deliver", "_deliver_pristine", "_deliver_burst",
                   "send_datagram", "_deliver_datagram")],

    *[Target("net.host", f"repro.net.host:Host.{name}")
      for name in ("deliver", "deliver_burst", "_deliver_fast", "connect",
                   "_accept", "_refuse", "deliver_datagram")],

    Target("net.tcp", "repro.net.tcp:TcpConnection.handle_segment",
           (("net.tcp.segments", ONE),)),
    Target("net.tcp", "repro.net.tcp:TcpConnection.handle_burst",
           (("net.tcp.segments", _consumed),
            ("net.tcp.burst_segments", _consumed))),
    *[Target("net.tcp", f"repro.net.tcp:TcpConnection.{name}")
      for name in ("open", "send", "close", "abort", "_on_rto")],

    *[Target("gfw", f"repro.gfw.firewall:GreatFirewall.{name}")
      for name in ("process", "process_burst", "process_datagram",
                   "_first_initiator_data", "_first_responder_data")],
    Target("gfw", "repro.gfw.reaction:ReactionPolicy.*"),
    Target("gfw", "repro.gfw.blocking:BlockingModule.*"),
    Target("gfw", "repro.runtime.scale:_ScaleWorld._feature_packet"),

    Target("gfw.flowtable", "repro.gfw.flowtable:FlowTable.track_keyed",
           (("gfw.flowtable.tracked", ONE),)),
    *[Target("gfw.flowtable", f"repro.gfw.flowtable:FlowTable.{name}")
      for name in ("track", "track_burst", "sweep", "evict_oldest")],

    Target("gfw.stages", "repro.gfw.stages:DetectorStage+.evaluate_batch",
           (("gfw.stages.evals", _first_arg_len),
            ("gfw.stages.flagged", _flagged))),
    Target("gfw.stages", "repro.gfw.stages:DetectorStage+.evaluate"),

    Target("gfw.entropy", "repro.gfw.entropy:shannon_entropy",
           (("gfw.entropy.calls", ONE), ("gfw.entropy.repeats", _repeat))),

    *[Target("gfw.probing", f"repro.gfw.scheduler:ProbeScheduler.{name}")
      for name in ("on_flagged_connection", "note_server_data", "_fire",
                   "_handle_result")],
    Target("gfw.probing", "repro.gfw.prober:ProberRunner.send_probe",
           (("gfw.probing.probes", ONE),)),

    # Every seal/open is one record-memo lookup (recordcache.cached_*),
    # and every call of the raw _seal/_open behind it is one miss.
    # Counters run only for calls that return; a failed open shows up
    # in the layer's error count instead.
    *[Target("crypto.aead", f"repro.crypto.{module}:{cls}.{name}",
             (("crypto.aead.bytes", _payload_len),
              ("crypto.record_memo.lookups", ONE),
              *((("crypto.aead.opened", ONE),) if name == "open" else ())))
      for module, cls in (("gcm", "AESGCM"), ("aead", "ChaCha20Poly1305"))
      for name in ("seal", "open")],
    *[Target("crypto.aead", f"repro.crypto.{module}:{cls}.{name}",
             (("crypto.record_memo.misses", ONE),))
      for module, cls in (("gcm", "AESGCM"), ("aead", "ChaCha20Poly1305"))
      for name in ("_seal", "_open")],

    # Stream ciphers are called through encrypt/decrypt aliases of
    # ``process``.  The IETF ChaCha20 class is left out: its keystream
    # is the inside of ChaCha20-Poly1305 and belongs to crypto.aead.
    *[Target("crypto.stream", f"repro.crypto.{module}:{cls}.{name}",
             (("crypto.stream.bytes", _first_arg_len),))
      for module, cls in (("modes", "CTRMode"), ("modes", "CFBMode"),
                          ("stream", "RC4"), ("stream", "ChaCha20DJB"))
      for name in ("process", "encrypt", "decrypt")],

    Target("crypto.setup", "repro.crypto.aead:new_aead",
           (("crypto.setup.calls", ONE),)),
    Target("crypto.setup", "repro.crypto.stream:new_stream_cipher",
           (("crypto.setup.calls", ONE),)),
    Target("crypto.setup", "repro.crypto.gcm:AESGCM.__init__"),
    Target("crypto.setup", "repro.crypto.aead:ChaCha20Poly1305.__init__"),

    Target("crypto.kdf", "repro.crypto.kdf:hkdf_sha1",
           (("crypto.kdf.calls", ONE),)),
    Target("crypto.kdf", "repro.crypto.kdf:evp_bytes_to_key",
           (("crypto.kdf.calls", ONE),)),
    Target("crypto.kdf", "repro.crypto.kdf:derive_subkey"),

    Target("shadowsocks", "repro.shadowsocks.server:ServerSession.__init__",
           (("shadowsocks.sessions", ONE),)),
    *[Target("shadowsocks", path) for path in (
        "repro.shadowsocks.server:ShadowsocksServer.*",
        "repro.shadowsocks.server:ServerSession.*",
        "repro.shadowsocks.client:ShadowsocksClient.*",
        "repro.shadowsocks.client:ClientSession.*",
        "repro.shadowsocks.aead_session:AeadEncryptor.*",
        "repro.shadowsocks.aead_session:AeadDecryptor.*",
        "repro.shadowsocks.stream_session:StreamEncryptor.*",
        "repro.shadowsocks.stream_session:StreamDecryptor.*",
    )],

    Target("probesim", "repro.probesim.simulator:ProberSimulator.*"),
    Target("probesim", "repro.probesim.matrix:build_random_probe_row"),
    Target("probesim", "repro.probesim.matrix:build_replay_table"),

    Target("analysis", "repro.analysis.pipeline:Analyzer+.observe",
           (("analysis.records", ONE),)),
    Target("analysis", "repro.analysis.pipeline:AnalysisPipeline._observe_all"),

    Target("runtime.events", "repro.runtime.events:EventBus.emit"),

    Target("workloads", "repro.workloads.browser:CurlDriver.*"),
    Target("workloads", "repro.workloads.browser:BrowserDriver.*"),
    Target("workloads", "repro.runtime.scale:_ScaleWorld._process_flow"),
]


# ----------------------------------------------------------------- metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _lru_hit_rate(delta: Mapping[str, int]) -> float:
    return _ratio(delta["hits"], delta["hits"] + delta["misses"])


def layer_metrics(traced: Sequence[Mapping[str, Any]],
                  untraced: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one workload.

    ``traced`` is the traced child's (cold, warm) phase list; ``untraced``
    the cold phases of that workload's untraced children, whose medians
    give the shard, contention and overhead numbers.  Shards run one
    after another in one process.
    """
    cold, warm = traced[0], traced[1]
    t = cold["trace"]
    c = t["counts"]
    m: Dict[str, float] = {f"{layer}.self_s": t["self_s"].get(layer, 0.0)
                           for layer in SPAN_LAYERS}

    m["net.sim.events"] = cold["events"]
    m["net.sim.callbacks"] = c.get("net.sim.callbacks", 0)
    segments = c.get("net.network.segments", 0)
    m["net.network.segments"] = segments
    m["net.network.burst_share"] = _ratio(c.get("net.network.burst_segments", 0),
                                          segments)
    tcp = c.get("net.tcp.segments", 0)
    m["net.tcp.segments"] = tcp
    m["net.tcp.burst_share"] = _ratio(c.get("net.tcp.burst_segments", 0), tcp)
    m["net.tcp.retransmits"] = cold["retransmits"]

    m["gfw.flowtable.tracked"] = c.get("gfw.flowtable.tracked", 0)
    evals = c.get("gfw.stages.evals", 0)
    m["gfw.stages.evals"] = evals
    m["gfw.stages.flag_share"] = _ratio(c.get("gfw.stages.flagged", 0), evals)
    entropy_calls = c.get("gfw.entropy.calls", 0)
    m["gfw.entropy.calls"] = entropy_calls
    m["gfw.entropy.repeat_share"] = _ratio(c.get("gfw.entropy.repeats", 0),
                                           entropy_calls)
    m["gfw.probing.probes"] = c.get("gfw.probing.probes", 0)

    m["crypto.aead.calls"] = t["calls"].get("crypto.aead", 0)
    m["crypto.aead.bytes"] = c.get("crypto.aead.bytes", 0)
    failed_opens = t["errors"].get("crypto.aead", 0)
    m["crypto.aead.open_fail_share"] = _ratio(
        failed_opens, failed_opens + c.get("crypto.aead.opened", 0))
    m["crypto.stream.bytes"] = c.get("crypto.stream.bytes", 0)
    for key, phase in (("hit_rate", cold), ("warm_hit_rate", warm)):
        pc = phase["trace"]["counts"]
        lookups = pc.get("crypto.record_memo.lookups", 0)
        m[f"crypto.record_memo.{key}"] = _ratio(
            lookups - pc.get("crypto.record_memo.misses", 0), lookups)
    m["crypto.setup.calls"] = c.get("crypto.setup.calls", 0)
    m["crypto.kdf.calls"] = c.get("crypto.kdf.calls", 0)
    for layer in LRU_PROBES:
        m[f"{layer}.hit_rate"] = _lru_hit_rate(cold["lru"][layer])
        m[f"{layer}.warm_hit_rate"] = _lru_hit_rate(warm["lru"][layer])

    m["shadowsocks.sessions"] = c.get("shadowsocks.sessions", 0)
    m["analysis.records"] = c.get("analysis.records", 0)

    m["runtime.shard_imbalance"] = statistics.median(
        max(p["shard_walls"]) / statistics.mean(p["shard_walls"])
        for p in untraced)
    m["runtime.shard_merge_s"] = statistics.median(
        p["wall_s"] - sum(p["shard_walls"]) for p in untraced)
    m["trace.wall_s"] = t["wall_s"]
    # The traced child runs no speed probe.
    untraced_wall = statistics.median(p["wall_s"] - p["probe_s"] for p in untraced)
    m["trace.overhead_frac"] = t["wall_s"] / untraced_wall - 1.0
    m["host.cpu_busy_frac"] = statistics.median(busy_frac(p) for p in untraced)
    return m


def busy_frac(phase: Mapping[str, Any]) -> float:
    """Process CPU time over wall time."""
    return phase["cpu_s"] / phase["wall_s"]
