"""Reference (per-segment) datapath of :mod:`repro.net`.

The simulator moves segments in bursts: a host buffers what it sends
while it handles an arrival or an application write and hands each
same-flow run to the network as one burst (one middlebox pass, one
delivery event), and the receiving connection consumes an in-order run
with one ``handle_burst`` call.  Both are performance transforms of the
datapath they replaced, in which every segment was its own transmission,
its own delivery event and its own ``handle_segment`` call.

That datapath is kept here as the test oracle: inside ``with
per_segment_tx():`` or ``with per_segment_rx():`` every
:class:`repro.net.host.Host` runs it, and the batched-datapath property
suites assert that runs are byte-identical either way.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.net.host import Host

__all__ = ["per_segment_rx", "per_segment_tx"]


def _no_tx_batch(self: Host) -> None:
    """A transmit batch that never opens: with ``_tx_depth`` held at 0,
    every segment a host emits goes straight to ``Network.send_segment``,
    so no burst is ever formed."""


def _deliver_segment(self: Host, seg) -> None:
    """``Host.deliver`` through the (possibly patched) batch bracket."""
    self.begin_tx_batch()
    try:
        self._deliver_fast(seg)
    finally:
        self.end_tx_batch()


def _deliver_burst_per_segment(self: Host, segs) -> None:
    """``Host.deliver_burst`` without ``handle_burst``: every member of
    the burst is dispatched on its own, as ``handle_segment`` sees it."""
    self.begin_tx_batch()
    try:
        for seg in segs:
            self._deliver_fast(seg)
    finally:
        self.end_tx_batch()


@contextlib.contextmanager
def _patched(**methods: Callable) -> Iterator[None]:
    saved = {name: Host.__dict__[name] for name in methods}
    for name, method in methods.items():
        setattr(Host, name, method)
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(Host, name, method)


def per_segment_tx():
    """Send every segment as its own network event: no transmit batches,
    no bursts, no burst delivery."""
    return _patched(begin_tx_batch=_no_tx_batch, end_tx_batch=_no_tx_batch,
                    deliver=_deliver_segment,
                    deliver_burst=_deliver_burst_per_segment)


def per_segment_rx():
    """Receive every segment of a burst with its own ``handle_segment``
    call; what a host sends in reply still leaves in transmit batches."""
    return _patched(deliver_burst=_deliver_burst_per_segment)
