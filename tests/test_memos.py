"""Process-wide memos belong to one unit of work (``repro.memos``).

Every module-level container, ``lru_cache`` function and ``global`` name
in ``src/`` is either a memo registered with ``repro.memos`` (cleared by
the runner before each unit) or declared process-lifetime with a reason.
A same-seed rerun in one process does the same work as the first run
and gives the same bytes, and a service job leaves no record tap behind.
"""

import ast
import importlib
import socket
import threading
from pathlib import Path

import pytest

from repro import memos
from repro.crypto import aead
from repro.gfw import entropy
from repro.runtime import ResultCache, events, run_scenario, run_sharded
from repro.service.jobs import _job_worker

SRC = Path(__file__).resolve().parents[1] / "src"
_CONSTRUCTORS = {"dict", "list", "set", "bytearray", "defaultdict",
                 "OrderedDict", "Counter", "deque"}


def _is_container(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = getattr(func, "id", getattr(func, "attr", None))
        return name in _CONSTRUCTORS
    return False


def _is_lru(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) in {"lru_cache", "cache"}


def _module_state():
    """Qualified names of module-level containers (``__all__`` aside),
    ``lru_cache``/``cache`` functions and names rebound under ``global``."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                targets, value = [], None
            if _is_container(value):
                found.update(f"{module}.{t.id}" for t in targets
                             if isinstance(t, ast.Name) and t.id != "__all__")
            if isinstance(node, ast.FunctionDef) and any(map(_is_lru, node.decorator_list)):
                found.add(f"{module}.{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.update(f"{module}.{name}" for name in node.names)
    return found


def test_every_module_level_state_is_registered_or_declared():
    found = _module_state()
    for module in {name.rsplit(".", 1)[0] for name in found}:
        importlib.import_module(module)      # registers its memos
    registered = set(memos.sizes())
    declared = set(memos.PROCESS_LIFETIME)
    assert not registered & declared
    assert sorted(found - registered - declared) == []
    # No stale entry: every registered or declared name still exists.
    assert sorted((registered | declared) - found) == []
    assert all(reason.strip() for reason in memos.PROCESS_LIFETIME.values())


def test_registry_clears_and_sizes_every_memo(monkeypatch):
    monkeypatch.setattr(memos, "_MEMOS", {})
    a, b = {1: 2}, {3, 4, 5}
    memos.register("x.a", a.clear, a.__len__)
    memos.register("x.b", b.clear, b.__len__)
    assert memos.sizes() == {"x.a": 1, "x.b": 3}
    memos.clear_all()
    assert a == {} and b == set()
    assert memos.sizes() == {"x.a": 0, "x.b": 0}


def _counting_memo(monkeypatch):
    clears = []
    monkeypatch.setattr(memos, "_MEMOS", dict(memos._MEMOS))
    memos.register("test.memo", lambda: clears.append(1), lambda: 0)
    return clears


def test_runner_clears_every_memo_once_per_unit(monkeypatch, tmp_path):
    clears = _counting_memo(monkeypatch)
    cache = ResultCache(tmp_path)
    run_scenario("quickstart", seed=0, overrides={"connections": 2}, cache=cache)
    assert len(clears) == 1
    run_scenario("quickstart", seed=0, overrides={"connections": 2}, cache=cache)
    assert len(clears) == 1                         # a cache hit builds nothing
    result = run_sharded("scale-1m", seed=0, overrides={"flows": 2000, "block_size": 256},
                         shards=2, jobs=1, use_cache=False)
    assert len(result.shards) == 2
    assert len(clears) == 3                         # once per shard


def test_no_memo_entry_survives_into_the_next_unit():
    entropy._ENTROPY_CACHE[b"left over"] = 1.0
    aead._INSTANCE_CACHE[("left over", b"")] = None
    run_scenario("quickstart", seed=0, overrides={"connections": 2}, use_cache=False)
    assert b"left over" not in entropy._ENTROPY_CACHE
    assert ("left over", b"") not in aead._INSTANCE_CACHE


def test_same_seed_rerun_seals_for_real_and_gives_the_same_bytes(monkeypatch):
    sealed = []
    raw = aead.ChaCha20Poly1305._seal_records

    def counting(self, records, aad):
        sealed.append(len(records))
        return raw(self, records, aad)

    monkeypatch.setattr(aead.ChaCha20Poly1305, "_seal_records", counting)
    runs = []
    for _ in range(2):
        sealed.clear()
        result = run_scenario("shadowsocks", seed=0, use_cache=False,
                              overrides={"libev_pairs": 2, "connections_per_pair": 20})
        runs.append((sum(sealed), result.canonical_bytes()))
    assert runs[0][0] == runs[1][0] == 242
    assert runs[0][1] == runs[1][1]


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs Unix sockets")
def test_a_service_job_leaves_no_record_tap(tmp_path):
    path = str(tmp_path / "bridge.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    listener.settimeout(30)
    lines = []

    def drain():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            lines.extend(stream)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        assert events._RECORD_TAPS == ()
        outcome = _job_worker({
            "spec": {"scenario": "quickstart", "overrides": {"connections": 8}},
            "stream_path": path, "job_id": "j1"})
    finally:
        reader.join(timeout=30)
        listener.close()
    assert outcome["ok"], outcome
    assert outcome["records"]["forwarded"] > 0      # the tap was installed
    assert len(lines) > 1                           # handshake + records
    assert events._RECORD_TAPS == ()
