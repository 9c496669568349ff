"""VMess server models: legacy (probe-able) and hardened.

Two behaviour profiles, mirroring the 2020 disclosures:

* ``v2ray-legacy`` — validates the 16-byte auth against every recent
  timestamp (±2 min), keeps **no** replay cache, and acts on the
  unauthenticated padding-length nibble: after exactly the implied
  number of bytes it either proceeds (hash ok) or drops the connection
  (hash bad).  Both the replay and the byte-counting oracle of V2Ray
  issue #2523 work against it.
* ``v2ray-4.23`` — adds the replay cache (auth seen before -> drain) and
  reads forever on any error, killing the oracle.

The server proxies like the Shadowsocks engine: target spec -> outbound
connection -> pipe; replies are encrypted with the response key/IV from
the request (modeled as an opaque CFB stream).
"""

from __future__ import annotations

import random
from typing import Optional, Set

from ..crypto.modes import CFBMode
from .protocol import AUTH_WINDOW, ATYP_HOSTNAME, ATYP_IPV4, auth_for, parse_command

__all__ = ["VmessServer", "VMESS_PROFILES"]

VMESS_PROFILES = ("v2ray-legacy", "v2ray-4.23")


class VmessServer:
    """A VMess server bound to one host:port."""

    def __init__(self, host, port: int, user_id: bytes,
                 profile: str = "v2ray-legacy", *,
                 rng: Optional[random.Random] = None,
                 connect_timeout: float = 6.0):
        if profile not in VMESS_PROFILES:
            raise ValueError(f"unknown VMess profile {profile!r}")
        if len(user_id) != 16:
            raise ValueError("user_id must be a 16-byte UUID")
        self.host = host
        self.port = port
        self.user_id = user_id
        self.profile = profile
        self.rng = rng or random.Random(0x3E55)
        self.connect_timeout = connect_timeout
        self.replay_cache: Set[bytes] = set()
        host.listen(port, self._accept)

    @property
    def hardened(self) -> bool:
        return self.profile == "v2ray-4.23"

    def _accept(self, conn) -> _VmessSession:
        return _VmessSession(self, conn)

    def auth_timestamp(self, auth: bytes, now: float) -> Optional[int]:
        """Which recent timestamp (if any) this auth header matches."""
        center = int(now)
        for delta in range(int(AUTH_WINDOW) + 1):
            for ts in (center - delta, center + delta):
                if ts >= 0 and auth_for(self.user_id, ts) == auth:
                    return ts
        return None


class _VmessSession:
    IDLE_TIMEOUT = 300.0

    def __init__(self, server: VmessServer, conn):
        self.server = server
        self.conn = conn
        self.buffer = bytearray()
        self.state = "auth"
        self.timestamp: Optional[int] = None
        self.remote = None
        self.request = None
        self._response_cipher = None
        self._connect_timer = None
        conn.on_data = self._on_data
        conn.on_remote_fin = self._client_fin
        conn.on_reset = self._client_reset
        # Both profiles reap a session with a FIN after IDLE_TIMEOUT
        # seconds without traffic either way (V2Ray's connIdle).
        self._idle = server.host.sim.schedule(self.IDLE_TIMEOUT, self._idle_close)

    # ----------------------------------------------------------- lifecycle

    def _rearm_idle(self) -> None:
        self._idle.cancel()
        self._idle = self.server.host.sim.schedule(self.IDLE_TIMEOUT, self._idle_close)

    def _idle_close(self) -> None:
        if self.state != "done":
            self._close_remote()
            self.state = "done"
            self.conn.close()

    def _client_fin(self) -> None:
        self._close_remote()
        self.state = "done"
        self.conn.close()
        self._idle.cancel()

    def _close_remote(self) -> None:
        """Tear the upstream down: FIN it if open and not reset, abort a
        pending dial."""
        if self.remote is not None:
            if self.remote.is_open and not self.remote.reset_received:
                self.remote.close()
            elif self.state == "connecting":
                self.remote.abort()

    def _client_reset(self) -> None:
        if self.remote is not None and (self.remote.is_open
                                        or self.state == "connecting"):
            self.remote.abort()
        self.state = "done"
        self._idle.cancel()

    def _drop(self) -> None:
        """Terminate on error: legacy closes immediately (observable!),
        hardened drains forever."""
        if self.server.hardened:
            self.state = "drain"
        else:
            self.state = "done"
            self._idle.cancel()
            self.conn.abort()

    # ----------------------------------------------------------- data path

    def _on_data(self, data: bytes) -> None:
        if self.state in ("done", "drain"):
            return
        self._rearm_idle()
        if self.state == "proxy":
            if self.remote is not None:
                self.remote.send(self._body_decipher.decrypt(data))
            return
        self.buffer.extend(data)
        if self.state == "auth":
            if len(self.buffer) < 16:
                return
            auth = bytes(self.buffer[:16])
            now = self.server.host.sim.now
            self.timestamp = self.server.auth_timestamp(auth, now)
            if self.timestamp is None:
                self._drop()
                return
            if self.server.hardened:
                if auth in self.server.replay_cache:
                    self.state = "drain"
                    return
                self.server.replay_cache.add(auth)
            del self.buffer[:16]
            self.state = "command"
        if self.state == "command":
            status, request, needed = parse_command(
                self.server.user_id, self.timestamp, bytes(self.buffer))
            if status == "need_more":
                return
            if status == "bad_hash":
                self._drop()
                return
            self.request = request
            del self.buffer[:needed]
            self._connect(request)

    def _connect(self, request) -> None:
        self.state = "connecting"
        network = self.server.host.network
        if request.atyp == ATYP_HOSTNAME:
            ip = network.resolve(request.host)
        elif request.atyp == ATYP_IPV4:
            ip = request.host
        else:
            ip = None
        if ip is None:
            self.server.host.sim.schedule(0.05, self._connect_failed)
            return
        try:
            self.remote = self.server.host.connect(ip, request.port)
        except ValueError:
            self.server.host.sim.schedule(0.0, self._connect_failed)
            return
        self.remote.on_connected = self._connected
        self.remote.on_reset = self._connect_failed
        self._connect_timer = self.server.host.sim.schedule(
            self.server.connect_timeout, self._connect_failed)

    def _connect_failed(self) -> None:
        if self.state != "connecting":
            return
        if self._connect_timer is not None:
            self._connect_timer.cancel()
        if (self.remote is not None and not self.remote.reset_received
                and self.remote.state != "CLOSED"):
            self.remote.abort()
        self.state = "done"
        self._idle.cancel()
        self.conn.close()

    def _connected(self) -> None:
        if self.state != "connecting":
            # The dial failed or the client left while it was pending.
            self.remote.abort()
            return
        self._connect_timer.cancel()
        self.state = "proxy"
        # Body ciphers: one per direction, keyed from the request header
        # (a simplification of VMess's request/response body keys — the
        # wire observables, lengths and entropy, are identical).
        self._response_cipher = CFBMode(self.request.response_key,
                                        self.request.response_iv, encrypt=True)
        self._body_decipher = CFBMode(self.request.response_key,
                                      self.request.response_iv, encrypt=False)
        self.remote.on_data = self._upstream_data
        self.remote.on_remote_fin = self._client_fin
        self.remote.on_reset = self._client_fin
        if self.buffer:
            self.remote.send(self._body_decipher.decrypt(bytes(self.buffer)))
            self.buffer.clear()

    def _upstream_data(self, data: bytes) -> None:
        # Once the session is done the client connection is closing or
        # closed: the target's late data has nowhere to go.
        if self.state == "proxy":
            self._rearm_idle()
            self.conn.send(self._response_cipher.encrypt(data))
