"""Graceful drain: stop admitting, finish what fits, exit clean.

On SIGTERM the service must neither drop accepted work silently nor
hang forever on it (Chan & Woelfel's recoverable-mutex lesson applied
to a process: correctness must survive being told to die mid-operation):

1. a :class:`DrainController` flips to *draining* — new ``POST
   /simulate`` requests are refused with 503 + ``Retry-After`` while
   ``/healthz`` reports ``draining`` so load balancers stop routing;
2. dispatchers keep consuming the admission queue for a bounded grace
   period, finishing what they can;
3. whatever is still queued when the grace expires is answered 503 and
   stays pending in the write-ahead request log (:mod:`repro.serve.wal`),
   which already holds every admitted request and is never compacted on
   shutdown, so the restarted service replays exactly what was accepted
   but never served;
4. the process exits 0: a drain is a success, not a crash.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable

__all__ = ["DrainController", "install_drain_signal"]


class DrainController:
    """One-way latch from *serving* to *draining*."""

    def __init__(self) -> None:
        self._draining = threading.Event()
        self.reason = ""

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin(self, reason: str = "signal") -> bool:
        """Start draining (idempotent); returns True on the first call."""
        if self._draining.is_set():
            return False
        self.reason = reason
        self._draining.set()
        return True

    def wait(self, timeout: float | None = None) -> bool:
        """Block until someone begins a drain (the serve main loop)."""
        return self._draining.wait(timeout)


def install_drain_signal(callback: Callable[[str], None],
                         signals: tuple[int, ...] = (signal.SIGTERM,
                                                     signal.SIGINT)):
    """Route SIGTERM/SIGINT into ``callback(signal_name)``.  Only valid
    from the main thread; returns the previous handlers for restore."""
    previous = {}
    for signum in signals:
        def _handler(num, frame, _cb=callback):
            _cb(signal.Signals(num).name)
        previous[signum] = signal.signal(signum, _handler)
    return previous
