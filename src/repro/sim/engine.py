"""Event queue and clock for the discrete-event simulation.

Events are totally ordered by ``(time, priority, sequence)``: ties at the
same instant break first by a small priority class (timers fire before
arrivals, arrivals before execution milestones — see
:class:`repro.sim.events.EventPriority`) and then by insertion order, which
makes every simulation run exactly reproducible.  A caller that knows
future events before queueing them can :meth:`EventQueue.reserve` their
sequence numbers and push each one later under its reserved number.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator


class QueueEmpty(Exception):
    """Raised when popping from an exhausted event queue."""


class EventQueue:
    """Priority queue of timed events with deterministic tie-breaking."""

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Any]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: int, priority: int, payload: Any) -> None:
        """Schedule ``payload`` at ``time`` with tie-break ``priority``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        heapq.heappush(self._heap, (time, priority, self._sequence, payload))
        self._sequence += 1

    def reserve(self, count: int) -> int:
        """Set aside the next ``count`` sequence numbers for events pushed
        later through :meth:`push_reserved`; returns the first."""
        first = self._sequence
        self._sequence += count
        return first

    def push_reserved(self, time: int, priority: int, sequence: int,
                      payload: Any) -> None:
        """Schedule ``payload`` under a sequence number taken by
        :meth:`reserve` (each reserved number is pushed at most once)."""
        heapq.heappush(self._heap, (time, priority, sequence, payload))

    def pop(self) -> tuple[int, Any]:
        """Remove and return the earliest ``(time, payload)`` pair."""
        if not self._heap:
            raise QueueEmpty
        time, _, _, payload = heapq.heappop(self._heap)
        return time, payload

    def peek_time(self) -> int | None:
        """Time of the earliest event, or None if the queue is empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def drain(self) -> Iterator[tuple[int, Any]]:
        """Pop everything, in order (mainly for tests)."""
        while self._heap:
            yield self.pop()
