"""Wire fuzzing: every probeable server answers arbitrary bytes with a reaction.

The GFW probes suspected servers with random payloads of NR1/NR2 lengths
and with byte-changed replays of recorded connections (§5, Table 5);
Winter & Lindskog saw it send garbage binary and forged VERSIONS cells
to Tor bridges.  Whatever arrives, a modeled server must end in one of
Figure 10's reactions — TIMEOUT, RST, FIN/ACK or DATA — and never raise.
The probes go to every Shadowsocks profile under every cipher it
supports (random AES-CTR and AES-CFB payloads of two blocks or more
decrypt through the row-lane AES batch), both VMess profiles and the
three obfs transports.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import CIPHERS, CipherKind
from repro.gfw.probes import (
    NR1_LENGTHS,
    NR2_LENGTH,
    REPLAY_TYPES,
    Probe,
    ProbeForge,
    ProbeType,
)
from repro.obfs import OBFS_PROFILES, node_key, obfs4_handshake, tor_versions_cell
from repro.probesim.reactions import ReactionKind
from repro.probesim.simulator import ProberSimulator
from repro.shadowsocks import PROFILES

from ..test_obfs import _probe
from ..test_vmess import make_world, record_handshake, replay

REACTIONS = {ReactionKind.TIMEOUT, ReactionKind.RST, ReactionKind.FINACK,
             ReactionKind.DATA}

# Random payloads of 1-2000 bytes, half of them at NR1/NR2 lengths.
_lengths = st.sampled_from(NR1_LENGTHS + (NR2_LENGTH,)) | st.integers(1, 2000)
random_payloads = _lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))
# A replay type and the seed of the forge that changes its bytes.
replays = st.tuples(st.sampled_from(REPLAY_TYPES), st.integers(0, 2**16))
probes = random_payloads | replays


def _forge(probe, record):
    """A garbage probe of the drawn bytes, or a replay of what ``record()`` captures."""
    if isinstance(probe, bytes):
        return Probe(ProbeType.GARBAGE, probe)
    probe_type, seed = probe
    return ProbeForge(random.Random(seed)).replay(record(), probe_type)


def _methods(profile):
    """Every registry cipher of a construction ``profile`` supports."""
    return [name for name, spec in sorted(CIPHERS.items())
            if (profile.supports_aead if spec.kind == CipherKind.AEAD
                else profile.supports_stream)]


@pytest.mark.parametrize("profile", sorted(PROFILES))
@given(probe=probes)
@settings(max_examples=8, deadline=None)
def test_shadowsocks_profiles_react_to_any_probe(profile, probe):
    for method in _methods(PROFILES[profile]):
        sim = ProberSimulator(profile, method)
        result = sim.send_probe(_forge(probe, sim.record_legitimate_payload))
        assert result.reaction in REACTIONS, (method, result)


# The VMess and obfs harnesses report what the prober saw (reply bytes, a
# reset or a close), so here the check is that the server model returns.
@pytest.mark.parametrize("profile", ["v2ray-legacy", "v2ray-4.23"])
@given(probe=probes)
@settings(max_examples=15, deadline=None)
def test_vmess_profiles_react_to_any_probe(profile, probe):
    sim, _, _, client, (server_host, client_host, prober_host) = make_world(profile)
    forged = _forge(probe, lambda: record_handshake(sim, client, client_host))
    replay(sim, prober_host, server_host.ip, forged.payload)


def _changed(payload, edits):
    """``payload`` with each (offset, mask) edit XORed in, offsets wrapped."""
    out = bytearray(payload)
    for offset, mask in edits:
        out[offset % len(out)] ^= mask
    return bytes(out)


_edits = st.lists(st.tuples(st.integers(0, 2000), st.integers(1, 255)), max_size=3)
# Garbage, forged VERSIONS cells, and byte-changed obfs4 client handshakes.
bridge_probes = (random_payloads
                 | st.builds(_changed, st.just(tor_versions_cell()), _edits)
                 | st.builds(lambda seed, edits: _changed(obfs4_handshake(
                     node_key("bridge"), "c2s", random.Random(seed)), edits),
                     st.integers(0, 2**16), _edits))


@pytest.mark.parametrize("profile", OBFS_PROFILES)
@given(payload=bridge_probes)
@settings(max_examples=15, deadline=None)
def test_obfs_transports_react_to_any_probe(profile, payload):
    _probe(profile, payload, until=60)
