"""Replay-defense filters.

* :class:`NonceReplayFilter` — what Shadowsocks-libev ships: a Bloom
  filter over IVs/salts.  Pure nonce-based defenses are asymmetric
  (§7.2): the censor can replay after arbitrary delay, while the server
  must remember nonces forever (and across restarts) to be safe.
* :class:`TimedReplayFilter` — the paper's recommended fix (as in VMess):
  accept only connections whose embedded timestamp is fresh, so nonces
  need be remembered only within the freshness window.
"""

from __future__ import annotations

from typing import Dict

from .bloom import PingPongBloom

__all__ = ["NonceReplayFilter", "TimedReplayFilter"]


class NonceReplayFilter:
    """Bloom-filter nonce tracking (Shadowsocks-libev style).

    ``restart()`` clears state, modelling a server reboot — after which
    stored replays sail through, exactly the weakness §7.2 points out.
    """

    def __init__(self, capacity: int = 100_000):
        self._capacity = capacity
        self._bloom = PingPongBloom(capacity=capacity)
        self.hits = 0

    def is_replay(self, nonce: bytes) -> bool:
        seen = self._bloom.check_and_add(nonce)
        if seen:
            self.hits += 1
        return seen

    def restart(self) -> None:
        self._bloom = PingPongBloom(capacity=self._capacity)


class TimedReplayFilter:
    """Nonce + timestamp filter: reject stale or repeated connections.

    The client embeds a timestamp; the server rejects if |now - ts| is
    beyond ``window_seconds``, and otherwise checks the nonce against a
    table that is pruned as entries age out.  Memory is O(connection rate
    × window) instead of O(total history).
    """

    def __init__(self, window_seconds: float = 120.0):
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        self.window = window_seconds
        self._nonces: Dict[bytes, float] = {}
        self.stale_rejections = 0
        self.replay_rejections = 0

    def check(self, nonce: bytes, claimed_time: float, now: float) -> bool:
        """Return True if the connection should be *accepted*."""
        self._prune(now)
        if abs(now - claimed_time) > self.window:
            self.stale_rejections += 1
            return False
        if nonce in self._nonces:
            self.replay_rejections += 1
            return False
        self._nonces[nonce] = now
        return True

    def _prune(self, now: float) -> None:
        cutoff = now - 2 * self.window
        stale = [n for n, t in self._nonces.items() if t < cutoff]
        for n in stale:
            del self._nonces[n]

    def restart(self) -> None:
        """A restart does not help the attacker: staleness still rejects."""
        self._nonces.clear()
