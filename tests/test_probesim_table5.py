"""Table 5: reactions to identical vs byte-changed replays."""

import pytest

from repro.gfw import ProbeType
from repro.probesim import ProberSimulator, ReactionKind


def battery(profile, method, seed=0, **kwargs):
    sim = ProberSimulator(profile, method, seed=seed, **kwargs)
    payload = sim.record_legitimate_payload()
    return sim, payload, sim.replay_battery(payload)


def test_libev_old_stream_identical_replay_rst():
    _, _, results = battery("ss-libev-3.1.3", "aes-256-ctr")
    assert results[ProbeType.R1].reaction == ReactionKind.RST


def test_libev_old_stream_byte_changed_mixed():
    """R2/R3/R5 change the IV -> random-probe-like reactions (R/T/F)."""
    reactions = set()
    for seed in range(8):
        _, _, results = battery("ss-libev-3.2.5", "aes-256-ctr", seed=seed)
        for t in (ProbeType.R2, ProbeType.R3, ProbeType.R5):
            reactions.add(results[t].reaction)
    assert ReactionKind.RST in reactions
    assert reactions <= {ReactionKind.RST, ReactionKind.TIMEOUT, ReactionKind.FINACK}


def test_libev_old_stream_r4_same_iv_hits_replay_filter():
    """R4 changes byte 16: within the payload for a 16-byte-IV cipher, so
    the IV is unchanged and the Bloom filter treats it as a replay."""
    _, _, results = battery("ss-libev-3.1.3", "aes-256-ctr")
    assert results[ProbeType.R4].reaction == ReactionKind.RST


def test_libev_old_aead_identical_and_changed_rst():
    _, _, results = battery("ss-libev-3.0.8", "aes-256-gcm")
    assert results[ProbeType.R1].reaction == ReactionKind.RST
    for t in (ProbeType.R2, ProbeType.R3, ProbeType.R4, ProbeType.R5):
        assert results[t].reaction == ReactionKind.RST


def test_libev_new_stream_identical_timeout():
    _, _, results = battery("ss-libev-3.3.1", "aes-128-ctr")
    assert results[ProbeType.R1].reaction == ReactionKind.TIMEOUT


def test_libev_new_stream_byte_changed_timeout_or_finack():
    reactions = set()
    for seed in range(6):
        _, _, results = battery("ss-libev-3.3.3", "aes-128-ctr", seed=seed)
        for t in (ProbeType.R2, ProbeType.R3, ProbeType.R5):
            reactions.add(results[t].reaction)
    assert ReactionKind.RST not in reactions
    assert ReactionKind.TIMEOUT in reactions


def test_libev_new_aead_all_timeout():
    _, _, results = battery("ss-libev-3.3.1", "chacha20-ietf-poly1305")
    for t in (ProbeType.R1, ProbeType.R2, ProbeType.R3, ProbeType.R4, ProbeType.R5):
        assert results[t].reaction == ReactionKind.TIMEOUT


def test_outline_identical_replay_returns_data():
    """No replay filter: Outline answers an identical replay with data."""
    _, _, results = battery("outline-1.0.7", "chacha20-ietf-poly1305")
    assert results[ProbeType.R1].reaction == ReactionKind.DATA
    assert results[ProbeType.R1].response_bytes > 0


def test_outline_byte_changed_timeout():
    _, _, results = battery("outline-1.0.8", "chacha20-ietf-poly1305")
    for t in (ProbeType.R2, ProbeType.R3, ProbeType.R4, ProbeType.R5):
        assert results[t].reaction == ReactionKind.TIMEOUT


def test_outline_106_byte_changed_rst():
    """Pre-fix Outline resets byte-changed replays (auth failure, >50 B)."""
    _, _, results = battery("outline-1.0.6", "chacha20-ietf-poly1305")
    assert results[ProbeType.R1].reaction == ReactionKind.DATA
    for t in (ProbeType.R2, ProbeType.R3, ProbeType.R4, ProbeType.R5):
        assert results[t].reaction == ReactionKind.RST


def test_outline_110_replay_defense_blocks_identical():
    """Outline v1.1.0 added replay protection: identical replays no longer
    draw data (§11, Responsible Disclosure)."""
    _, _, results = battery("outline-1.1.0", "chacha20-ietf-poly1305")
    assert results[ProbeType.R1].reaction != ReactionKind.DATA


def test_consistent_response_length_leaks_proxied_protocol():
    """§5.3: a consistent response length to the same replayed payload
    suggests the underlying protocol (e.g. a fixed HTTP response)."""
    sizes = set()
    for seed in (100, 200):
        sim, payload, _ = battery("outline-1.0.7", "chacha20-ietf-poly1305",
                                  seed=seed)
        result = sim.send_probe(sim.forge.replay(payload, ProbeType.R1))
        sizes.add(result.response_bytes)
    assert len(sizes) == 1  # same upstream response -> same encrypted length


def test_replay_after_server_restart_bypasses_bloom_filter():
    """§7.2: a nonce-only filter forgets across restarts; delayed replays
    then succeed. (The asymmetry motivating timed filters.)"""
    sim = ProberSimulator("ss-libev-3.3.1", "aes-256-gcm")
    payload = sim.record_legitimate_payload()
    before = sim.send_probe(sim.forge.replay(payload, ProbeType.R1))
    assert before.reaction == ReactionKind.TIMEOUT  # caught by the filter
    sim.server.restart()
    after = sim.send_probe(sim.forge.replay(payload, ProbeType.R1))
    assert after.reaction == ReactionKind.DATA  # filter state lost


def test_second_recording_returns_its_own_payload():
    """Each call records its own connection's first payload and salt."""
    sim = ProberSimulator("ss-libev-3.3.1", "aes-256-gcm")
    first = sim.record_legitimate_payload()
    extra = b"Host: target.example\r\n"
    second = sim.record_legitimate_payload(
        b"GET / HTTP/1.1\r\n" + extra + b"\r\n")
    assert len(second) == len(first) + len(extra)
    salt_len = sim.server.cipher_spec.iv_len
    registry = sim.server.timestamp_registry
    assert second[:salt_len] != first[:salt_len]
    assert registry[second[:salt_len]] > registry[first[:salt_len]]


def test_timed_filter_still_rejects_after_restart():
    sim = ProberSimulator("ss-libev-3.3.1", "aes-256-gcm",
                          timed_replay_window=120.0)
    payload = sim.record_legitimate_payload()
    sim.server.restart()
    # Advance beyond the freshness window before replaying.
    sim.sim.run(until=sim.sim.now + 600.0)
    result = sim.send_probe(sim.forge.replay(payload, ProbeType.R1))
    assert result.reaction != ReactionKind.DATA
