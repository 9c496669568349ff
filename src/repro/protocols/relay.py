"""The relay half of a proxy server session: dial, pipe, close.

A proxy server session does two jobs.  Its handshake is the protocol's
own: read the client's first bytes, decide whether they authenticate,
find the target they name.  Its relay is the same for Shadowsocks and
the obfs Tor bridge, and it decides most of what a probe observes
(Fig. 10, Table 5), because it decides how the session closes:

* a dial that fails (a name that does not resolve, a refused or
  timed-out connect) closes the client leg with FIN/ACK;
* a target FIN while relaying closes the client leg with FIN/ACK, a
  target RST resets it;
* a client FIN closes both legs, and a client RST aborts the upstream,
  a dial still pending included;
* the idle timer closes both legs with FIN/ACK.

:class:`RelaySession` holds the relay.  A protocol's session subclasses
it, sets ``PROXIED`` and supplies three hooks: ``_on_data`` (the
client's bytes), ``_encode`` (the target's bytes on their way to the
client) and ``_flush_to_remote`` (what the handshake buffered behind
the dial).  Its server provides ``host``, ``idle_timeout``,
``connect_timeout`` and ``dns_delay``.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RelaySession"]


class RelaySession:
    """One accepted connection, relayed to the target it names."""

    HANDSHAKE = "handshake"
    CONNECTING = "connecting"
    PROXY = "proxy"
    DRAIN = "drain"  # error swallowed; read forever (TIMEOUT behaviour)
    DONE = "done"

    # Bus counter of sessions that reach the proxying state.
    PROXIED = ""

    def __init__(self, server, conn):
        self.server = server
        self.conn = conn
        self.state = self.HANDSHAKE
        self.remote = None
        self._idle_event = None  # armed at the end of __init__
        self._connect_event = None
        conn.on_data = self._on_data
        conn.on_remote_fin = self._on_client_fin
        conn.on_reset = self._teardown
        self._arm_idle()

    @property
    def sim(self):
        return self.server.host.sim

    # ---------------------------------------------------------------- hooks

    def _on_data(self, data: bytes) -> None:
        """Take bytes from the client."""
        raise NotImplementedError

    def _encode(self, data: bytes) -> bytes:
        """Wrap the target's ``data`` for the client."""
        raise NotImplementedError

    def _flush_to_remote(self, remote) -> None:
        """Send the target what arrived while the dial was pending."""
        raise NotImplementedError

    # ------------------------------------------------------------- closing

    def _arm_idle(self) -> None:
        if self._idle_event is not None:
            self._idle_event.cancel()
        self._idle_event = self.sim.schedule(self.server.idle_timeout,
                                             self._idle_timeout)

    def _idle_timeout(self) -> None:
        # Real servers reap idle connections with a graceful close.
        if self.state != self.DONE:
            self.state = self.DONE
            self.conn.close()
            if self.remote is not None:
                self.remote.close()

    def _close(self) -> None:
        """Close the client leg with FIN/ACK and stop reading."""
        self.state = self.DONE
        self._idle_event.cancel()
        self.conn.close()

    def _abort(self) -> None:
        """Reset the client leg with RST and stop reading."""
        self.state = self.DONE
        self._idle_event.cancel()
        self.conn.abort()

    def _teardown(self) -> None:
        self.state = self.DONE
        self._idle_event.cancel()
        if self._connect_event is not None:
            self._connect_event.cancel()
        if self.remote is not None and self.remote.state != "CLOSED":
            # Covers both an established pipe and a dial still in SYN_SENT.
            self.remote.abort()
            self.remote = None

    def _on_client_fin(self) -> None:
        if self.remote is not None and self.remote.is_open:
            self.remote.close()
        if self.state != self.DONE:
            self.state = self.DONE
            self.conn.close()
        self._idle_event.cancel()

    # -------------------------------------------------------------- target

    def _connect(self, ip: Optional[str], port: int) -> None:
        """Dial the target.  ``ip`` None (a name that did not resolve, or
        an address family the model has no fabric for) fails one
        resolver round trip later."""
        self.state = self.CONNECTING
        if ip is None:
            self._connect_event = self.sim.schedule(self.server.dns_delay,
                                                    self._connect_failed)
            return
        try:
            self.remote = self.server.host.connect(ip, port)
        except ValueError:
            # e.g. connecting to ourselves on a colliding 4-tuple
            self._connect_event = self.sim.schedule(0.0, self._connect_failed)
            return
        self.remote.on_connected = self._connect_succeeded
        self.remote.on_reset = self._connect_failed
        self._connect_event = self.sim.schedule(self.server.connect_timeout,
                                                self._connect_failed)

    def _connect_failed(self) -> None:
        if self.state != self.CONNECTING:
            return
        if self._connect_event is not None:
            self._connect_event.cancel()
        if (self.remote is not None and not self.remote.reset_received
                and self.remote.state != "CLOSED"):
            self.remote.abort()
        self.remote = None
        # Failure to reach the target: graceful FIN/ACK toward the client.
        self._close()

    def _connect_succeeded(self) -> None:
        if self.state != self.CONNECTING:
            # The client went away while we were dialing.
            if self.remote is not None and self.remote.state != "CLOSED":
                self.remote.abort()
            return
        if self._connect_event is not None:
            self._connect_event.cancel()
        self.state = self.PROXY
        self.sim.bus.incr(self.PROXIED)
        remote = self.remote
        remote.on_data = self._proxy_remote_data
        remote.on_remote_fin = self._remote_closed
        remote.on_reset = self._remote_reset
        self._flush_to_remote(remote)

    def _proxy_remote_data(self, data: bytes) -> None:
        self.conn.send(self._encode(data))
        self._arm_idle()

    def _remote_closed(self) -> None:
        if self.state == self.PROXY:
            self._close()

    def _remote_reset(self) -> None:
        if self.state == self.PROXY:
            self._abort()
