"""Tor bridge server: three transports, three probe reactions.

The bridge's session relays framed application data through the same
:class:`~repro.protocols.relay.RelaySession` as the Shadowsocks server's,
so both dial, pipe and close alike.  What differs is the handshake, the
target frame and the framing, and therefore what the GFW's active
probes observe:

==============  =======================  ==========================
profile         forged VERSIONS probe    garbage binary probe
==============  =======================  ==========================
tor-vanilla     VERSIONS reply (DATA)    parse failure -> FIN/ACK
obfs3           too short -> TIMEOUT     >= 192 bytes -> DATA reply
obfs4           silent drain (TIMEOUT)   silent drain (TIMEOUT)
==============  =======================  ==========================

obfs3 answers *any* correctly-sized block because UniformDH gives the
responder nothing to authenticate — the property the GFW exploited to
confirm obfs2/obfs3 bridges.  obfs4's handshake MAC is keyed on the
out-of-band node id, so probes decode to garbage and the server reads
forever (Winter & Lindskog's probe-resistance design).
"""

from __future__ import annotations

import random
from typing import Optional

from ..protocols.relay import RelaySession
from .wire import (
    OBFS3_HANDSHAKE_LEN,
    OBFS4_MAC_LEN,
    FrameCodec,
    byte_draws,
    node_key,
    obfs4_decode_pad_len,
    obfs4_handshake,
    obfs4_mac,
    parse_versions_cell,
    tor_versions_cell,
)

__all__ = ["ObfsServer", "ObfsServerSession", "OBFS_PROFILES"]

OBFS_PROFILES = ("tor-vanilla", "obfs3", "obfs4")


class ObfsServer:
    """A Tor bridge bound to one host:port, speaking one transport."""

    def __init__(
        self,
        host,
        port: int,
        node_id: str = "bridge",
        profile: str = "obfs4",
        *,
        rng: Optional[random.Random] = None,
        connect_timeout: float = 6.0,
        dns_delay: float = 0.05,
        idle_timeout: float = 120.0,
    ):
        if profile not in OBFS_PROFILES:
            raise ValueError(
                f"unknown obfs profile {profile!r}; known: {OBFS_PROFILES}")
        self.host = host
        self.port = port
        self.node_id = node_id
        self.profile = profile
        self.key = node_key(node_id)
        self.rng = rng or random.Random(0x0BF4)
        self.connect_timeout = connect_timeout
        self.dns_delay = dns_delay
        self.idle_timeout = idle_timeout
        host.listen(port, self._accept)

    def _accept(self, conn) -> ObfsServerSession:
        self.host.sim.bus.incr("obfs.session.accepted")
        return ObfsServerSession(self, conn)

    def stop(self) -> None:
        self.host.unlisten(self.port)


class ObfsServerSession(RelaySession):
    """One accepted connection to the bridge."""

    RELAY_TARGET = "relay-target"   # handshake done, awaiting target frame
    PROXIED = "obfs.session.proxied"

    def __init__(self, server: ObfsServer, conn):
        self._buffer = bytearray()
        self._pending = bytearray()   # frame bytes queued behind the dial
        # Frame codecs are armed only after a successful handshake: the
        # keystream must not advance on probe garbage.
        self._rx: Optional[FrameCodec] = None
        self._tx: Optional[FrameCodec] = None
        super().__init__(server, conn)

    def _close_gracefully(self) -> None:
        """Parse failure on a parsing transport: FIN/ACK, like a real relay."""
        self.sim.bus.incr("obfs.session.rejected")
        self._close()

    def _drain(self) -> None:
        """Probe resistance: swallow everything, answer nothing."""
        self.sim.bus.incr("obfs.session.drained")
        self.state = self.DRAIN

    # ------------------------------------------------------------ data path

    def _on_data(self, data: bytes) -> None:
        self._arm_idle()
        if self.state in (self.DRAIN, self.DONE):
            return
        if self.state == self.HANDSHAKE:
            self._buffer.extend(data)
            self._try_handshake()
            return
        self._feed_frames(data)

    # ---------------------------------------------------------- handshakes

    def _try_handshake(self) -> None:
        profile = self.server.profile
        if profile == "tor-vanilla":
            self._handshake_vanilla()
        elif profile == "obfs3":
            self._handshake_obfs3()
        else:
            self._handshake_obfs4()

    def _finish_handshake(self, consumed: int, reply: bytes) -> None:
        self.conn.send(reply)
        self._rx = FrameCodec(self.server.key, "c2s")
        self._tx = FrameCodec(self.server.key, "s2c")
        self.state = self.RELAY_TARGET
        self.sim.bus.incr("obfs.session.handshake")
        rest = bytes(self._buffer[consumed:])
        self._buffer.clear()
        if rest:
            self._feed_frames(rest)

    def _handshake_vanilla(self) -> None:
        data = bytes(self._buffer)
        if len(data) < 5:
            return  # not even a cell header yet
        versions = parse_versions_cell(data)
        if versions is None:
            header_ok = (data[0] == 0 and data[1] == 0 and data[2] == 7)
            body_len = int.from_bytes(data[3:5], "big")
            if header_ok and body_len % 2 == 0 and len(data) < 5 + body_len:
                return  # plausible cell, still arriving
            # Not a Tor link handshake: a relay closes the connection.
            self._close_gracefully()
            return
        body_len = int.from_bytes(data[3:5], "big")
        self._finish_handshake(5 + body_len, tor_versions_cell())

    def _handshake_obfs3(self) -> None:
        if len(self._buffer) < OBFS3_HANDSHAKE_LEN:
            return  # UniformDH block still arriving (or a too-short probe)
        # Nothing to authenticate: any 192-byte block draws the reply.
        reply = byte_draws(self.server.rng, OBFS3_HANDSHAKE_LEN)
        self._finish_handshake(OBFS3_HANDSHAKE_LEN, reply)

    def _handshake_obfs4(self) -> None:
        if len(self._buffer) < 2:
            return
        key = self.server.key
        pad_len = obfs4_decode_pad_len(bytes(self._buffer[:2]), key, "c2s")
        total = 2 + pad_len + OBFS4_MAC_LEN
        if len(self._buffer) < total:
            return
        body = bytes(self._buffer[:total])
        if obfs4_mac(key, body[:-OBFS4_MAC_LEN]) != body[-OBFS4_MAC_LEN:]:
            # No node secret, no service: read forever, answer nothing.
            self._drain()
            return
        self._finish_handshake(total,
                               obfs4_handshake(key, "s2c", self.server.rng))

    # -------------------------------------------------------------- framing

    def _feed_frames(self, data: bytes) -> None:
        assert self._rx is not None
        for frame in self._rx.feed(data):
            self._handle_frame(frame)

    def _handle_frame(self, frame: bytes) -> None:
        if self.state == self.RELAY_TARGET:
            self._open_target(frame)
        elif self.state == self.CONNECTING:
            self._pending.extend(frame)
        elif self.state == self.PROXY and self.remote is not None:
            self.remote.send(frame)

    # --------------------------------------------------------------- target

    def _open_target(self, frame: bytes) -> None:
        if len(frame) < 4:
            self._close_gracefully()
            return
        host_len = int.from_bytes(frame[:2], "big")
        if len(frame) < 2 + host_len + 2:
            self._close_gracefully()
            return
        try:
            hostname = frame[2:2 + host_len].decode("utf-8")
        except UnicodeDecodeError:
            self._close_gracefully()
            return
        port = int.from_bytes(frame[2 + host_len:4 + host_len], "big")
        self._connect(self.server.host.network.resolve(hostname), port)

    def _flush_to_remote(self, remote) -> None:
        if self._pending:
            remote.send(bytes(self._pending))
            self._pending.clear()

    def _encode(self, data: bytes) -> bytes:
        assert self._tx is not None
        return self._tx.encode(data)
