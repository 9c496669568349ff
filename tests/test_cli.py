"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "ss-libev-3.1.3" in out
    assert "outline-1.1.0" in out
    assert "replay_filter=yes" in out


def test_ciphers_command(capsys):
    assert main(["ciphers"]) == 0
    out = capsys.readouterr().out
    assert "chacha20-ietf-poly1305" in out
    assert "salt=32" in out


def test_probesim_command(capsys):
    assert main(["probesim", "--profile", "outline-1.0.6",
                 "--method", "chacha20-ietf-poly1305",
                 "--trials", "2", "--lengths", "49", "50", "51"]) == 0
    out = capsys.readouterr().out
    assert "FIN/ACK" in out
    assert "RST" in out


def test_identify_command(capsys):
    assert main(["identify", "--profile", "ss-libev-3.1.3",
                 "--method", "aes-128-gcm", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "construction:     aead" in out
    assert "IV/salt length:   16" in out


def test_sink_command(capsys):
    assert main(["sink", "--experiment", "1.a", "--connections", "400",
                 "--hours", "4"]) == 0
    out = capsys.readouterr().out
    assert "Exp 1.a" in out
    assert "400 connections" in out


def test_quickstart_command(capsys):
    assert main(["quickstart", "--connections", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "connections: 4" in out
    assert "flagged:" in out


def test_brdgrd_command(capsys):
    assert main(["brdgrd", "--hours", "3", "--seed", "1"]) == 0
    *hours, blank, rates = capsys.readouterr().out.splitlines()
    # One line per started hour: h0..h3, brdgrd on for the middle third.
    assert [line.split()[:2] for line in hours] == [
        ["h", "0"], ["h", "1"], ["h", "2"], ["h", "3"]]
    assert [("BRDGRD" in line) for line in hours] == [False, True, False, False]
    assert blank == ""
    assert rates.startswith("probes/hour: active=") and " inactive=" in rates


def test_blocking_command(capsys):
    assert main(["blocking", "--days", "0.5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "probes=" in out
    assert "ssr" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("run", "analyze", "quickstart", "probesim", "identify",
                    "sink", "brdgrd", "blocking", "profiles", "ciphers"):
        assert command in text


def test_run_list_scenarios(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("shadowsocks", "sink", "brdgrd", "blocking",
                 "ablation-defense-matrix"):
        assert name in out


def test_run_without_scenario_shows_list_and_fails(capsys):
    assert main(["run"]) == 2
    assert "sink" in capsys.readouterr().out


def test_run_unknown_scenario(capsys):
    assert main(["run", "no-such-scenario", "--no-cache"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_bad_override(capsys):
    assert main(["run", "sink", "--set", "oops"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_run_bad_jobs(capsys):
    assert main(["run", "sink", "--jobs", "0", "--no-cache"]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_run_executes_and_caches(tmp_path, capsys):
    argv = ["run", "ablation-detector-features", "--set", "samples=40",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "cache 0 hit / 1 miss" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache 1 hit / 0 miss" in capsys.readouterr().out


def test_run_json_output(tmp_path, capsys):
    import json

    assert main(["run", "ablation-detector-features", "--seeds", "2",
                 "--set", "samples=40", "--cache-dir", str(tmp_path),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "ablation-detector-features"
    assert doc["seeds"] == [0, 1]
    assert len(doc["runs"]) == 2


def test_run_detectors_flag_swaps_pipeline(capsys):
    import json

    assert main(["run", "sink", "--no-cache", "--json",
                 "--set", "connections=10", "--set", "duration=600.0",
                 "--detectors", '{"kind": "entropy", "threshold": 7.2}']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["params"]["detectors"] == {
        "kind": "entropy", "threshold": 7.2}


def test_run_detectors_flag_bare_kind(capsys):
    assert main(["run", "sink", "--no-cache",
                 "--set", "connections=5", "--set", "duration=300.0",
                 "--detectors", "vmess"]) == 0
    assert "sink: 1 seed(s)" in capsys.readouterr().out


def test_run_detectors_flag_rejected_without_parameter(capsys):
    assert main(["run", "ablation-detector-features", "--no-cache",
                 "--detectors", "entropy"]) == 2
    assert "no parameter 'detectors'" in capsys.readouterr().err


def test_quickstart_detectors_flag(capsys):
    assert main(["quickstart", "--connections", "3", "--seed", "3",
                 "--detectors", "entropy"]) == 0
    out = capsys.readouterr().out
    assert "connections: 3" in out
    assert "flagged: 3" in out


def test_run_shards_executes_and_merges(capsys):
    assert main(["run", "scale-1m", "--shards", "2", "--no-cache",
                 "--set", "flows=1000", "--set", "block_size=128"]) == 0
    out = capsys.readouterr().out
    assert "shards=2" in out
    assert "gfw.flow.opened" in out


def test_run_shards_matches_serial_run(tmp_path, capsys):
    import json

    argv = ["run", "scale-1m", "--set", "flows=1000",
            "--set", "block_size=128", "--cache-dir", str(tmp_path),
            "--json"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--shards", "2"]) == 0
    sharded = json.loads(capsys.readouterr().out)
    # Identical modulo the recorded shard layout in params.
    assert sharded["params"].pop("shards")["count"] == 2
    for run in sharded["runs"]:
        run["params"].pop("shards")
    assert sharded == serial


def test_run_shards_auto(capsys):
    assert main(["run", "scale-1m", "--shards", "auto", "--no-cache",
                 "--set", "flows=500", "--set", "block_size=64"]) == 0
    assert "scale-1m: 1 seed(s), shards=" in capsys.readouterr().out


def test_run_shards_bad_values(capsys):
    assert main(["run", "scale-1m", "--shards", "zero",
                 "--no-cache"]) == 2
    assert "--shards" in capsys.readouterr().err
    assert main(["run", "scale-1m", "--shards", "0", "--no-cache"]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_run_shards_non_shardable_scenario(capsys):
    assert main(["run", "sink", "--shards", "2", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "not shardable" in err
    assert "scale-1m" in err           # the error lists the alternatives


def test_bench_shard_suite(tmp_path, capsys):
    import json

    assert main(["bench", "--suite", "shard", "--quick",
                 "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_shard.json").read_text())
    names = {entry["name"] for entry in doc}
    assert names == {"shard.events_per_s", "shard.packets_per_s"}
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_shard.json"]
    assert all(entry["value"] > 0 for entry in doc)
    assert all(entry["params"]["flows"] == 20000 for entry in doc)


def test_bench_crypto_suite_only(tmp_path, capsys):
    """``--only`` keeps every entry that times the named cipher: its
    encrypt and decrypt entries."""
    import json

    assert main(["bench", "--suite", "crypto", "--quick", "--only",
                 "aes-128-cfb", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_crypto.json").read_text())
    assert sorted(entry["name"] for entry in doc) == [
        "crypto.aes-128-cfb.decrypt", "crypto.aes-128-cfb.encrypt"]
    assert all(entry["value"] > 0 for entry in doc)


def test_bench_detector_suite(tmp_path, capsys):
    import json

    assert main(["bench", "--suite", "detector", "--quick",
                 "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_detector.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in doc}
    assert units.pop("detector.entropy_distinct") == "calls/s"
    assert {"detector.passive", "detector.entropy", "detector.vmess",
            "detector.ensemble", "detector.passive_batch"} <= set(units)
    assert all(unit == "flags/s" for unit in units.values())
    assert all(entry["value"] > 0 for entry in doc)
