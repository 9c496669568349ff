"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

import compare
import layers
import spec
import speed
import tracer
from tracer import ONE, Target, Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _burn(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# ------------------------------------------------------------------ tracer

_TREE = '''
def outer():
    burn(0.02)
    mid()
    mid()
    inner()

def mid():
    burn(0.01)
    helper()
    inner()

def helper():
    burn(0.005)

def inner():
    burn(0.004)
'''


def test_self_times_sum_to_wall_on_a_nested_call_tree(monkeypatch):
    fake = types.ModuleType("benchfake")
    fake.burn = _burn
    exec(_TREE, fake.__dict__)
    monkeypatch.setitem(sys.modules, "benchfake", fake)
    t = Tracer(package="benchfake")
    t.install([Target("A", "benchfake:outer"),
               Target("B", "benchfake:mid", (("mids", ONE),)),
               Target("B", "benchfake:helper"),
               Target("C", "benchfake:inner")])
    start = time.perf_counter()
    fake.outer()
    elapsed = time.perf_counter() - start
    totals = t.totals()
    t.uninstall()

    assert sum(totals["self_s"].values()) == pytest.approx(totals["wall_s"], rel=1e-9)
    assert totals["wall_s"] <= elapsed
    assert totals["wall_s"] == pytest.approx(elapsed, rel=0.05)
    assert totals["self_s"]["A"] == pytest.approx(0.02, rel=0.25)
    assert totals["self_s"]["B"] == pytest.approx(2 * (0.01 + 0.005), rel=0.25)
    assert totals["self_s"]["C"] == pytest.approx(3 * 0.004, rel=0.25)
    # helper() runs inside mid()'s layer: no span, not a call into B.
    assert totals["calls"] == {"A": 1, "B": 2, "C": 3}
    assert totals["counts"] == {"mids": 2}
    assert set(totals["edges"]) == {"->A", "A>B", "B>C", "A>C"}
    assert totals["edges"]["->A"] == totals["wall_s"]
    assert fake.mid.__name__ == "mid" and not hasattr(fake.mid, "__bench_original__")


@pytest.fixture(scope="module")
def repro_runner():
    sys.path.insert(0, str(spec.SRC))
    from repro.runtime import runner, scenario

    scenario.scenario_names()
    return runner


def _class_attrs():
    """Every attribute of every class a layer target lives on."""
    import importlib

    snapshot = {}
    for target in layers.TARGETS:
        module, _, qual = target.path.partition(":")
        if "." in qual:
            cls = getattr(importlib.import_module(module),
                          qual.rsplit(".", 1)[0].rstrip("+"))
            for owner in [cls, *tracer._subclasses(cls)]:
                snapshot[owner] = dict(vars(owner))
    return snapshot


def test_all_wrappers_are_removed_after_a_traced_run(repro_runner):
    from repro.crypto import aead, kdf
    from repro.gfw import stages

    originals = (kdf.hkdf_sha1, aead.new_aead, stages.shannon_entropy)
    before = _class_attrs()
    t = Tracer()
    assert t.install(layers.TARGETS) > 100
    assert t.missing == []
    assert kdf.hkdf_sha1 is not originals[0]
    assert stages.shannon_entropy is not originals[2]
    for name in ("tunnel", "census"):
        workload = spec.WORKLOADS[name]
        if workload.shards:
            repro_runner.run_sharded(workload.scenario, seed=0,
                                     overrides=workload.params(smoke=True),
                                     shards=workload.shards, jobs=1,
                                     use_cache=False)
        else:
            repro_runner.run_scenario(workload.scenario, seed=0,
                                      overrides=workload.params(smoke=True),
                                      use_cache=False)
    totals = t.totals()
    t.uninstall()

    assert totals["calls"]["runtime"] == 2
    assert totals["calls"]["gfw.entropy"] > 0 and totals["calls"]["crypto.aead"] > 0
    assert tracer.leftover_wrappers() == []
    assert (kdf.hkdf_sha1, aead.new_aead, stages.shannon_entropy) == originals
    assert _class_attrs() == before


def _child(name: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(spec.BENCH / "child.py"), "--workload", name,
         "--seeds", "0,1", "--smoke", *extra],
        capture_output=True, text=True, timeout=600, cwd=spec.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("ready ")
    assert json.loads(lines[0][len("ready "):])["speed"] > 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_traced_and_untraced_runs_give_equal_digests(name):
    plain = _child(name)
    traced = _child(name, "--trace")
    assert traced["leftover_wrappers"] == []
    for a, b in zip(plain["phases"], traced["phases"]):
        assert "error" not in a and "error" not in b
        assert a["sha256"] == b["sha256"]
    for phase in traced["phases"]:
        trace = phase["trace"]
        assert sum(trace["self_s"].values()) == pytest.approx(trace["wall_s"], rel=1e-6)
    metrics = layers.layer_metrics(traced["phases"], plain["phases"][:1])
    assert set(metrics) == {m["name"] for m in spec.load_contract()["per_layer"]}


# ------------------------------------------------------------------- speed


def test_speed_probe_times_its_loop_while_started_and_stops():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        _burn(0.3)
        reading = probe.take()
    finally:
        probe.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # About 2% of 0.3 s of CPU time goes to the probe.
    assert 0.001 < reading["probe_s"] < 0.05, reading
    assert reading["speed"] > 1e5, reading
    _burn(0.05)
    assert probe.take() == {"probe_s": 0.0, "speed": 0.0}
    assert speed.at_reference(2.0, speed.REF_SPEED / 2) == 1.0


def test_speed_probe_runs_its_loop_without_trace_or_profile_hooks():
    seen = []

    def hook(frame, event, arg):
        if frame.f_code is speed._loop.__code__:
            seen.append(event)
        return None

    probe = speed.SpeedProbe()
    before = (sys.gettrace(), sys.getprofile())
    sys.settrace(hook)
    sys.setprofile(hook)
    try:
        probe._tick(signal.SIGPROF, None)
        hooks = (sys.gettrace(), sys.getprofile())
    finally:
        sys.settrace(before[0])
        sys.setprofile(before[1])
    assert probe.take()["speed"] > 0
    assert seen == []
    assert hooks == (hook, hook)


# ----------------------------------------------------------------- compare


BASE = [100.0 + 0.1 * i for i in range(12)]


@pytest.mark.parametrize("change, better, expected", [
    ([x * 1.2 for x in BASE], "higher", "improved"),
    ([x * 0.8 for x in BASE], "lower", "improved"),
    ([x * 0.8 for x in BASE], "higher", "regressed"),
    ([x * 1.2 for x in BASE], "lower", "regressed"),
    (list(reversed(BASE)), "higher", "unchanged"),
    ([x * (1.0 + (0.5 if i % 2 else -0.4)) for i, x in enumerate(BASE)],
     "higher", "unresolved"),
])
def test_compare_verdicts(change, better, expected):
    pairs = list(zip(BASE, change))
    assert compare.verdict(BASE, change, pairs, better, 0.1) == expected


def test_compare_needs_ten_pairs_to_claim_a_gain():
    change = [x * 1.2 for x in BASE[:5]]
    pairs = list(zip(BASE[:5], change))
    assert compare.verdict(BASE[:5], change, pairs, "higher", 0.1) == "unchanged"


def test_quartiles_stay_within_two_samples():
    assert compare.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def _doc(failed=0, values=(1.0, 1.01), **conditions):
    contract = spec.load_contract()
    return {"seed": 0, "seconds": 25, "host": "Linux|x86_64|CPython|3.11.7",
            **conditions,
            "workloads": ["tunnel"], "attempted": {"tunnel": 4},
            "failed": {"tunnel": failed},
            "samples": {"tunnel": {m["name"]: list(values)
                                   for m in contract["end_to_end"]}}}


def test_compare_reports_fail_frac_side_by_side():
    rows = compare.compare([_doc(0)], [_doc(1)], spec.load_contract())
    fail = [r for r in rows if r["metric"] == "fail_frac"]
    assert fail == [{"metric": "fail_frac", "workload": "tunnel", "unit": "ratio",
                     "a": (0.0,) * 3, "b": (0.25,) * 3, "pairs": 0,
                     "verdict": "regressed"}]
    assert {r["verdict"] for r in rows if r["metric"] != "fail_frac"} == {"unchanged"}


def test_compare_counts_no_gain_while_more_executions_fail():
    contract = spec.load_contract()
    faster = [x * 1.2 for x in BASE]
    rows = compare.compare([_doc(0, BASE)], [_doc(0, faster)], contract)
    gained = {r["metric"] for r in rows if r["verdict"] == "improved"}
    assert "events_per_s" in gained
    rows = compare.compare([_doc(0, BASE)], [_doc(1, faster)], contract)
    assert "improved" not in {r["verdict"] for r in rows}


@pytest.mark.parametrize("key, value", [
    ("seed", 7), ("seconds", 5), ("host", "Linux|aarch64|CPython|3.12.1")])
def test_compare_refuses_files_measured_differently(key, value, tmp_path):
    with pytest.raises(ValueError, match=key):
        compare.compare([_doc()], [_doc(**{key: value})], spec.load_contract())
    paths = []
    for name, doc in (("a.json", _doc()), ("b.json", _doc(**{key: value}))):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    assert compare.main(paths) == 2


# ---------------------------------------------------------------- contract


def test_benchmark_json_follows_the_contract():
    doc = spec.load_contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    doc = spec.load_contract()
    e2e = {m["name"] for m in doc["end_to_end"]}
    assert set(spec.MOVES) == {m["name"] for m in doc["per_layer"]}
    for metric, (moves, workloads) in spec.MOVES.items():
        assert moves in e2e, metric
        assert workloads and set(workloads) <= set(spec.WORKLOADS), metric


def test_pinned_digests_cover_both_seeds_of_the_default_run():
    pins = spec.load_digests()
    assert set(pins) == set(spec.WORKLOADS)
    for seeds in pins.values():
        assert {"0", "1"} <= set(seeds)
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in seeds.values())


def test_run_fails_without_the_repository_source(tmp_path):
    shutil.copy(spec.CONTRACT, tmp_path)
    shutil.copytree(spec.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tunnel", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
