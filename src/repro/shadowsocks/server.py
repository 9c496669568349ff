"""Generic Shadowsocks server engine, parameterized by a behaviour profile.

One engine implements both wire constructions; a
:class:`~repro.shadowsocks.implementations.base.BehaviorProfile` selects
the error-handling quirks that distinguish Shadowsocks-libev versions and
OutlineVPN versions from each other (Figure 10, Table 5).

Observable reactions produced here, per the paper's taxonomy:

* **RST** — ``conn.abort()`` on auth failure / bad address type
  (old implementations);
* **FIN/ACK** — graceful close when an outbound connection to the
  (usually garbage) target fails;
* **TIMEOUT** — the engine just keeps reading; whoever probes gives up
  first (new implementations, and all implementations while a target
  spec is still incomplete).
"""

from __future__ import annotations

import random
from typing import Optional

from ..crypto import AuthenticationError, evp_bytes_to_key, get_spec, stream_key
from ..crypto.registry import CipherKind
from ..protocols.relay import RelaySession
from .aead_session import AeadDecryptor, AeadEncryptor
from .implementations.base import BehaviorProfile, ErrorAction
from .implementations.registry import get_profile
from .replay import NonceReplayFilter, TimedReplayFilter
from .spec import INVALID, NEED_MORE, ATYP_HOSTNAME, ATYP_IPV4, parse_target
from .stream_session import StreamDecryptor, StreamEncryptor

__all__ = ["ShadowsocksServer", "ServerSession"]


class ShadowsocksServer:
    """A Shadowsocks server bound to one host:port."""

    def __init__(
        self,
        host,
        port: int,
        password: str,
        method: str,
        profile="ss-libev-3.3.1",
        *,
        rng: Optional[random.Random] = None,
        connect_timeout: float = 6.0,
        dns_delay: float = 0.05,
        timed_replay_window: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.method = method
        self.cipher_spec = get_spec(method)
        self.profile: BehaviorProfile = (
            get_profile(profile) if isinstance(profile, str) else profile
        )
        if self.cipher_spec.kind == CipherKind.STREAM and not self.profile.supports_stream:
            raise ValueError(f"{self.profile.display} does not support stream ciphers")
        if self.cipher_spec.kind == CipherKind.AEAD and not self.profile.supports_aead:
            raise ValueError(f"{self.profile.display} does not support AEAD ciphers")
        self.master = evp_bytes_to_key(password.encode("utf-8"), self.cipher_spec.key_len)
        # Every stream session's cipher is built from this one key (for
        # AES, one key schedule); AEAD sessions derive their own subkeys.
        self.stream_key = (stream_key(method, self.master)
                           if self.cipher_spec.kind == CipherKind.STREAM else None)
        self.rng = rng or random.Random(0x55AA)
        self.connect_timeout = connect_timeout
        self.dns_delay = dns_delay
        # Shared across connections, like the real daemon's global filter.
        self.replay_filter = NonceReplayFilter() if self.profile.replay_filter else None
        # Optional §7.2-style defense, layered on top when configured.
        self.timed_filter = (
            TimedReplayFilter(timed_replay_window) if timed_replay_window else None
        )
        host.listen(port, self._accept)

    @property
    def idle_timeout(self) -> float:
        """Seconds of silence after which a session is closed with FIN."""
        return self.profile.idle_timeout

    def _accept(self, conn) -> ServerSession:
        self.host.sim.bus.incr("ss.session.accepted")
        return ServerSession(self, conn)

    def restart(self) -> None:
        """Model a daemon restart: volatile replay state is lost."""
        if self.replay_filter is not None:
            self.replay_filter.restart()
        if self.timed_filter is not None:
            self.timed_filter.restart()

    def stop(self) -> None:
        self.host.unlisten(self.port)


class ServerSession(RelaySession):
    """One accepted connection."""

    PROXIED = "ss.session.proxied"

    def __init__(self, server: ShadowsocksServer, conn):
        self.total_received = 0
        self._plain = bytearray()
        self._initial_data = b""
        self.target = None

        kind = server.cipher_spec.kind
        if kind == CipherKind.STREAM:
            self._decryptor = StreamDecryptor(server.method, server.stream_key)
        else:
            self._decryptor = AeadDecryptor(server.method, server.master)
        self._encryptor = None  # created lazily for the reply direction
        super().__init__(server, conn)

    @property
    def profile(self) -> BehaviorProfile:
        return self.server.profile

    def _fail(self) -> None:
        """Authentication failure or invalid target: profile-specific."""
        self.sim.bus.incr("ss.session.error")
        if self.profile.error_action == ErrorAction.RST:
            self._abort()
        else:
            self.state = self.DRAIN  # read forever; idle timer keeps running

    # ------------------------------------------------------------ data path

    def _on_data(self, data: bytes) -> None:
        self.total_received += len(data)
        self._arm_idle()
        if self.state == self.DRAIN or self.state == self.DONE:
            return
        if self.state == self.PROXY:
            self._proxy_client_data(data)
            return
        if self.state == self.CONNECTING:
            # Target connection still pending; buffer further client bytes.
            self._buffer_handshake(data, parse=False)
            return
        self._buffer_handshake(data, parse=True)

    def _buffer_handshake(self, data: bytes, parse: bool) -> None:
        if self.server.cipher_spec.kind == CipherKind.STREAM:
            self._handshake_stream(data, parse)
        else:
            self._handshake_aead(data, parse)

    # Stream construction --------------------------------------------------

    def _handshake_stream(self, data: bytes, parse: bool) -> None:
        had_iv = self._decryptor.iv_complete
        self._plain.extend(self._decryptor.decrypt(data))
        if not self._decryptor.iv_complete:
            return  # not even a full IV yet: wait silently
        if not had_iv and not self._check_nonce(self._decryptor.iv):
            return
        if parse:
            self._try_parse_target()

    # AEAD construction ----------------------------------------------------

    def _handshake_aead(self, data: bytes, parse: bool) -> None:
        had_salt = self._decryptor.salt_complete
        self._decryptor.feed(data)
        if not self._decryptor.salt_complete:
            return
        if not had_salt and not self._check_nonce(self._decryptor.salt):
            return
        threshold = 2 + 16 + 16 + 1 if self.profile.aead_waits_for_payload_tag else 2 + 16
        if not self._plain and self._decryptor.buffered < threshold:
            return  # keep waiting for the first chunk envelope
        try:
            chunks = self._decryptor.decrypt_available()
        except AuthenticationError:
            header_len = self.server.cipher_spec.salt_len + 2 + 16
            if (
                self.profile.finack_on_exact_header
                and self.total_received == header_len
            ):
                # Outline v1.0.6: a probe of exactly [salt][len][tag] size
                # draws an immediate FIN/ACK instead of a RST.
                self._close()
            else:
                self._fail()
            return
        self._plain.extend(b"".join(chunks))
        if parse:
            self._try_parse_target()

    def _check_nonce(self, nonce: bytes) -> bool:
        """Run replay filters on a freshly completed IV/salt."""
        if self.server.timed_filter is not None:
            # The timestamp the client embeds is modeled as its send time;
            # a replay presents a stale one.
            if not self.server.timed_filter.check(nonce, self._claimed_time(), self.sim.now):
                self._fail()
                return False
        if self.server.replay_filter is not None and self.server.replay_filter.is_replay(nonce):
            self._fail()
            return False
        return True

    def _claimed_time(self) -> float:
        # See TimedReplayFilter: legitimate connections embed (approximately)
        # the current time.  Replays carry the original timestamp, which the
        # GFW cannot forge without the key.  The prober simulator registers
        # original timestamps in this registry when it records a payload.
        registry = getattr(self.server, "timestamp_registry", None)
        nonce = self._decryptor.iv if hasattr(self._decryptor, "iv") else self._decryptor.salt
        if registry is not None and nonce in registry:
            return registry[nonce]
        return self.sim.now

    # Target handling --------------------------------------------------------

    def _try_parse_target(self) -> None:
        result = parse_target(bytes(self._plain), mask_atyp=self.profile.mask_atyp)
        if result.status == NEED_MORE:
            # Legacy parsers insist on a complete spec in the first read;
            # a fragmented handshake (e.g. under brdgrd) draws a RST.
            if self.profile.rst_on_incomplete_spec and self._plain:
                self._fail()
            return
        if result.status == INVALID:
            self._fail()
            return
        spec = self.target = result.spec
        self._initial_data = bytes(self._plain[result.consumed :])
        self._plain.clear()
        if spec.atyp == ATYP_HOSTNAME:
            ip = self.server.host.network.resolve(spec.host)
        elif spec.atyp == ATYP_IPV4:
            ip = spec.host
        else:
            ip = None  # no IPv6 fabric in the model: fails like an unreachable host
        self._connect(ip, spec.port)

    def _flush_to_remote(self, remote) -> None:
        if self._initial_data:
            remote.send(self._initial_data)
            self._initial_data = b""
        # Decrypted bytes that arrived while we were connecting.  A second
        # send, not one of the concatenation: the segments differ.
        backlog = bytes(self._plain)
        self._plain.clear()
        if backlog:
            remote.send(backlog)

    def _proxy_client_data(self, data: bytes) -> None:
        try:
            plaintext = self._decryptor.decrypt(data)
        except AuthenticationError:
            self._fail()
            return
        if plaintext and self.remote is not None:
            self.remote.send(plaintext)

    def _encode(self, data: bytes) -> bytes:
        if self._encryptor is None:
            kind = self.server.cipher_spec.kind
            if kind == CipherKind.STREAM:
                self._encryptor = StreamEncryptor(
                    self.server.method, self.server.stream_key, rng=self.server.rng
                )
            else:
                self._encryptor = AeadEncryptor(
                    self.server.method, self.server.master, rng=self.server.rng
                )
        return self._encryptor.encrypt(data)
