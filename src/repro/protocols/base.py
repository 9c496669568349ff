"""The :class:`ProxyProtocol` interface and the protocol registry.

A *protocol* bundles everything a scenario needs to stand up one proxy
stack: a server factory, a client factory, the session/record layer
(every client exposes ``open(target_host, target_port, payload,
on_reply)``), the server behaviour-profile knob, and the name of the
censor's probing playbook for flagged flows of this protocol.

The registry mirrors the detector-stage registry (PR 5): JSON-able
specs, ``register_protocol`` / ``build_protocol`` / ``protocol_kinds``,
so scenario configs, the CLI (``run --protocol``), and the service can
construct stacks by name without importing protocol packages directly.

Spec grammar::

    "shadowsocks"                                   # bare kind
    {"kind": "shadowsocks", "method": "aes-256-gcm"}
    {"kind": "obfs", "profile": "obfs3"}

Determinism contract: factories must delegate to the underlying
client/server constructors with exactly the arguments direct
construction would use — the builtin defaults are property-tested
byte-identical to direct construction on every builtin scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Union

__all__ = [
    "ProxyProtocol",
    "build_protocol",
    "get_protocol",
    "protocol_kinds",
    "register_protocol",
]

ProtocolSpec = Union[str, Mapping[str, Any], "ProxyProtocol"]


class ProxyProtocol:
    """One proxy protocol's client/server/session construction recipe."""

    kind: str = ""
    # Name of the censor-side probing playbook for flagged flows of this
    # protocol (see repro.gfw.probing); detectors that classify traffic
    # as this protocol route endpoints to that behaviour.
    probe_behavior: str = "shadowsocks"

    def spec(self) -> Dict[str, Any]:
        """JSON-able ``{"kind": ..., **params}`` rebuilding this protocol."""
        return {"kind": self.kind}

    # ------------------------------------------------------------ factories

    def make_server(self, host: Any, port: int, *,
                    profile: Any = None, rng: Any = None, **kwargs: Any) -> Any:
        """Attach this protocol's server to ``host``, listening on ``port``.

        ``profile`` overrides the protocol's default behaviour profile
        for this one server (a profile name, or a profile object for
        hardened variants); ``rng`` overrides the implementation's
        default seeded stream.
        """
        raise NotImplementedError

    def make_client(self, host: Any, server_ip: str, server_port: int, *,
                    rng: Any = None, **kwargs: Any) -> Any:
        """Attach this protocol's client to ``host``, aimed at a server."""
        raise NotImplementedError


_PROTOCOLS: Dict[str, Callable[..., ProxyProtocol]] = {}


def register_protocol(cls):
    """Class decorator: make a protocol constructible from its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    _PROTOCOLS[cls.kind] = cls
    return cls


def protocol_kinds() -> List[str]:
    return sorted(_PROTOCOLS)


def build_protocol(spec: ProtocolSpec) -> ProxyProtocol:
    """Construct a protocol from a JSON-able spec (see module doc)."""
    if isinstance(spec, ProxyProtocol):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping):
        raise TypeError(f"protocol spec must be a string or mapping, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError(f"protocol spec {spec!r} has no 'kind'")
    try:
        cls = _PROTOCOLS[kind]
    except KeyError:
        known = ", ".join(protocol_kinds()) or "(none)"
        raise KeyError(f"unknown protocol kind {kind!r}; registered: {known}")
    return cls(**params)


def get_protocol(kind: str) -> ProxyProtocol:
    """A default-configured instance of the named protocol."""
    return build_protocol(kind)
