"""Bounded admission queue with UAM-style utility-density shedding.

The paper's UAM admission guard sheds *work* by utility density when the
kernel is overloaded; this is the identical policy one layer up, applied
to HTTP requests.  Each queued request carries a ``priority`` (its
utility) and a ``cost`` estimate (its scenario horizon — long simulations
are expensive); the queue orders service by density ``priority / cost``
and, past a watermark, sheds the *lowest*-density work first:

* below ``watermark`` — every request is admitted;
* at or above ``watermark`` (degraded) — a new request is admitted only
  if it is denser than the sparsest request already queued; otherwise it
  is shed immediately with a 429 and a ``Retry-After`` hint;
* at ``capacity`` (saturated) — admission is only by *eviction*: the
  sparsest queued request is shed to make room for a denser arrival, so
  the queue depth is a hard bound and a flood of cheap low-priority
  requests can never starve a high-priority one.

Shedding is a load signal, not an error: the response tells the client
when to come back, and every shed is counted for ``/metrics``.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["ServeRequest", "AdmissionQueue", "AdmissionDecision"]


class ServeRequest:
    """One in-flight ``POST /simulate``: payload, QoS, and a rendezvous
    between the HTTP handler thread (waits) and a dispatcher (finishes).
    """

    __slots__ = ("scenario_dict", "digest", "priority", "cost",
                 "deadline", "enqueued_at", "_event", "_lock",
                 "status", "body", "cancelled")

    def __init__(self, scenario_dict: dict[str, Any], digest: str, *,
                 priority: float = 1.0, cost: float = 1.0,
                 deadline: float | None = None,
                 enqueued_at: float = 0.0) -> None:
        self.scenario_dict = scenario_dict
        self.digest = digest
        self.priority = float(priority)
        self.cost = max(float(cost), 1.0)
        self.deadline = deadline          # absolute, on the app's clock
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.status: int | None = None
        self.body: dict[str, Any] | None = None
        self.cancelled = False

    @property
    def density(self) -> float:
        """UAM utility density: what shedding and service order sort by."""
        return self.priority / self.cost

    def finish(self, status: int, body: dict[str, Any]) -> bool:
        """Deliver the outcome (first writer wins; later calls no-op)."""
        with self._lock:
            if self.status is not None:
                return False
            self.status = status
            self.body = body
        self._event.set()
        return True

    def cancel(self) -> None:
        """Mark abandoned (deadline passed while queued or in flight);
        dispatchers skip cancelled work, and a late finish is ignored."""
        with self._lock:
            self.cancelled = True

    def wait(self, timeout: float | None) -> bool:
        return self._event.wait(timeout)


class AdmissionDecision:
    """Outcome of :meth:`AdmissionQueue.submit`."""

    __slots__ = ("admitted", "shed", "reason")

    def __init__(self, admitted: bool, shed: "ServeRequest | None" = None,
                 reason: str = "") -> None:
        self.admitted = admitted
        #: A *different* request evicted to make room (its waiting
        #: handler thread must be answered 429), or None.
        self.shed = shed
        self.reason = reason


class AdmissionQueue:
    """Bounded, density-ordered queue between handlers and dispatchers."""

    def __init__(self, capacity: int = 64, watermark: int | None = None,
                 retry_after_s: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.watermark = capacity if watermark is None \
            else min(watermark, capacity)
        if self.watermark < 1:
            raise ValueError("watermark must be >= 1")
        self.retry_after_s = retry_after_s
        self._items: list[ServeRequest] = []
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False
        self.admitted_total = 0
        self.shed_total = 0
        self.evicted_total = 0

    # ------------------------------------------------------------------
    # Producer side (HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, request: ServeRequest) -> AdmissionDecision:
        with self._available:
            if self._closed:
                return AdmissionDecision(False, reason="draining")
            depth = len(self._items)
            if depth < self.watermark:
                self._admit(request)
                return AdmissionDecision(True)
            # Degraded: compare against the sparsest queued request.
            sparsest = min(self._items, key=lambda r: r.density) \
                if self._items else None
            if sparsest is None or request.density <= sparsest.density:
                self.shed_total += 1
                return AdmissionDecision(False, reason="queue_full")
            if depth < self.capacity:
                self._admit(request)
                return AdmissionDecision(True)
            # Saturated: make room by shedding the sparsest entry.
            self._items.remove(sparsest)
            self.evicted_total += 1
            self.shed_total += 1
            self._admit(request)
            return AdmissionDecision(True, shed=sparsest, reason="evicted")

    def _admit(self, request: ServeRequest) -> None:
        self._items.append(request)
        self.admitted_total += 1
        self._available.notify()

    # ------------------------------------------------------------------
    # Consumer side (dispatcher threads)
    # ------------------------------------------------------------------

    def take(self, timeout: float | None = None) -> ServeRequest | None:
        """Pop the densest queued request (UAM service order), or None
        on timeout / after :meth:`close` empties the queue."""
        with self._available:
            while not self._items:
                if self._closed:
                    return None
                if not self._available.wait(timeout):
                    return None
            densest = max(
                enumerate(self._items),
                key=lambda pair: (pair[1].density, -pair[1].enqueued_at,
                                  -pair[0]))
            return self._items.pop(densest[0])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> list[ServeRequest]:
        """Stop admitting; wake all consumers; return what was queued
        (the drain path answers these)."""
        with self._available:
            self._closed = True
            leftover = list(self._items)
            self._items.clear()
            self._available.notify_all()
        return leftover

    def depth(self) -> int:
        with self._lock:
            return len(self._items)
