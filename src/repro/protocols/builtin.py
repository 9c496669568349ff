"""Builtin protocol registrations: Shadowsocks, VMess, and Tor/obfs.

Each factory delegates to the underlying constructors with exactly the
arguments direct construction uses, so registry-built stacks are
byte-identical to hand-built ones (property-tested across every builtin
scenario).  Protocol packages are imported lazily inside the factories:
``repro.protocols`` stays importable without pulling in every stack.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import ProxyProtocol, register_protocol

__all__ = ["ObfsProtocol", "ShadowsocksProtocol", "VmessProtocol"]


@register_protocol
class ShadowsocksProtocol(ProxyProtocol):
    """The paper's protocol: AEAD/stream Shadowsocks with behaviour profiles."""

    kind = "shadowsocks"
    probe_behavior = "shadowsocks"

    def __init__(self, password: str = "pw",
                 method: str = "chacha20-ietf-poly1305",
                 profile: str = "ss-libev-3.3.1"):
        self.password = password
        self.method = method
        self.profile = profile

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "password": self.password,
                "method": self.method, "profile": self.profile}

    def make_server(self, host, port, *, profile=None, rng=None, **kwargs):
        from ..shadowsocks import ShadowsocksServer

        return ShadowsocksServer(host, port, self.password, self.method,
                                 profile if profile is not None else self.profile,
                                 rng=rng, **kwargs)

    def make_client(self, host, server_ip, server_port, *, rng=None, **kwargs):
        from ..shadowsocks import ShadowsocksClient

        return ShadowsocksClient(host, server_ip, server_port, self.password,
                                 self.method, rng=rng, **kwargs)


@register_protocol
class VmessProtocol(ProxyProtocol):
    """Legacy VMess (§9 future work) with its disclosed probing weaknesses."""

    kind = "vmess"
    # VMess endpoints face the same replay-probing playbook: the 2020
    # disclosures are replay-within-auth-window attacks.
    probe_behavior = "shadowsocks"

    def __init__(self, user_id: str = "000102030405060708090a0b0c0d0e0f",
                 profile: str = "v2ray-legacy"):
        # Hex in the spec (JSON-able), bytes on the wire.
        self.user_id = user_id
        self.profile = profile

    @property
    def user_id_bytes(self) -> bytes:
        return bytes.fromhex(self.user_id)

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "user_id": self.user_id,
                "profile": self.profile}

    def make_server(self, host, port, *, profile=None, rng=None, **kwargs):
        from ..vmess import VmessServer

        return VmessServer(host, port, self.user_id_bytes,
                           profile if profile is not None else self.profile,
                           rng=rng, **kwargs)

    def make_client(self, host, server_ip, server_port, *, rng=None, **kwargs):
        from ..vmess import VmessClient

        return VmessClient(host, server_ip, server_port, self.user_id_bytes,
                           rng=rng, **kwargs)


@register_protocol
class ObfsProtocol(ProxyProtocol):
    """Tor bridge transports: vanilla Tor, obfs3-style, obfs4-style.

    The profile picks the handshake the bridge speaks — and therefore
    which of the GFW's Tor probes it answers (see repro.obfs.server).
    Flagged flows route to the ``"tor"`` probing playbook: garbage +
    forged-VERSIONS probes with batched block rollout.
    """

    kind = "obfs"
    probe_behavior = "tor"

    def __init__(self, node_id: str = "bridge", profile: str = "obfs4"):
        self.node_id = node_id
        self.profile = profile

    def spec(self) -> Dict[str, Any]:
        return {"kind": self.kind, "node_id": self.node_id,
                "profile": self.profile}

    def make_server(self, host, port, *, profile=None, rng=None, **kwargs):
        from ..obfs import ObfsServer

        return ObfsServer(host, port, self.node_id,
                          profile if profile is not None else self.profile,
                          rng=rng, **kwargs)

    def make_client(self, host, server_ip, server_port, *, rng=None, **kwargs):
        from ..obfs import ObfsClient

        return ObfsClient(host, server_ip, server_port, self.node_id,
                          profile=self.profile, rng=rng, **kwargs)
