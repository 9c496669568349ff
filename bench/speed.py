"""A CPU-speed probe interleaved with the work whose time it corrects.

On a shared host the speed of a core wanders by up to a factor of two
within seconds, as neighbours on the same physical core start and stop,
and a run's wall time wanders with it by far more than a change worth
detecting.  A :class:`SpeedProbe` measures the core's speed at the same
moments as the work: every ``PERIOD`` of process CPU time (``SIGPROF``)
it runs a fixed pure-Python loop and times it.  The loop's rate over a
run is the speed that run got, and

    seconds at reference speed = seconds measured x speed / REF_SPEED

is what the run would have taken on a core that runs the loop at
``REF_SPEED``.  The loop allocates nothing the garbage collector tracks,
so it never pays for a collection of the work's garbage, and takes about
80 us: 2% of CPU time at ``PERIOD``.

The probe covers one process: the interval timer is not inherited by
forked children.
"""

from __future__ import annotations

import signal
import sys
import time
from typing import Dict

PERIOD = 0.004          # s of process CPU time between probes
LOOP = 200              # iterations of the probe loop
# Loop iterations per second of the reference core: about the median
# speed of the 2-core x86_64 host (CPython 3.11) the bounds were set on.
REF_SPEED = 3.0e6


def _loop(n: int, t: list) -> int:
    x = 1
    acc = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc = (acc + t[x & 255]) & 0xFFFF
        t[(x >> 8) & 255] = acc & 0xFF
    return acc


def at_reference(seconds: float, speed: float) -> float:
    """``seconds`` measured at ``speed`` (loop iterations/s), at REF_SPEED."""
    return seconds * speed / REF_SPEED


class SpeedProbe:
    """Times the probe loop every ``PERIOD`` of CPU time while started."""

    def __init__(self) -> None:
        self._seconds = 0.0
        self._loops = 0
        self._busy = False
        self._table = list(range(256))

    def start(self) -> None:
        self.take()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # Not SIG_DFL: a SIGPROF still pending would end the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def take(self) -> Dict[str, float]:
        """Probe seconds and speed (loop iterations/s; 0.0 when no probe
        ran) since the last take; then starts over."""
        seconds, loops = self._seconds, self._loops
        self._seconds, self._loops = 0.0, 0
        return {"probe_s": seconds,
                "speed": loops * LOOP / seconds if seconds else 0.0}

    def _tick(self, signum, frame) -> None:
        # A tick arriving while the loop runs would nest inside it.
        if self._busy:
            return
        self._busy = True
        # A trace or profile hook slows every Python call; the loop runs
        # without one, so such a hook shows as slower work, not as a
        # slower core.
        trace, profile = sys.gettrace(), sys.getprofile()
        sys.settrace(None)
        sys.setprofile(None)
        start = time.perf_counter()
        _loop(LOOP, self._table)
        self._seconds += time.perf_counter() - start
        sys.setprofile(profile)
        sys.settrace(trace)
        self._loops += 1
        self._busy = False
