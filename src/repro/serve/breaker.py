"""Circuit breaker over the simulation worker pool.

Consecutive pool-level failures (worker crashes, trial timeouts) mean
the pool itself is sick — retrying every incoming request against it
just burns queue capacity and worker rebuilds.  The breaker converts
that state into fast, honest 503s:

* **closed** — normal service; failures are counted, any success resets
  the count;
* **open** — tripped after ``threshold`` consecutive failures; all work
  is refused immediately (with a ``Retry-After`` of the time left until
  the next probe);
* **half-open** — after ``reset_after`` seconds the breaker admits one
  probe request at a time; its success re-closes the breaker, its
  failure re-opens it (with a fresh timer).

Deterministic and testable: time is an injectable monotonic clock, and
every transition is counted for ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding for /metrics (state name -> numeric sample).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Thread-safe three-state breaker with a monotonic-clock timer."""

    def __init__(self, threshold: int = 3, reset_after: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_after < 0:
            raise ValueError("reset_after must be >= 0")
        self.threshold = threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.transitions = 0
        self.rejected_total = 0

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _set_state(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self.transitions += 1

    def allow(self) -> bool:
        """May one unit of work proceed right now?

        In half-open state this *claims a probe slot*; callers that get
        ``True`` must follow up with :meth:`record_success` or
        :meth:`record_failure` (the serve dispatcher always does).
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.reset_after:
                    self._set_state(HALF_OPEN)
                    self._probing = False
                else:
                    self.rejected_total += 1
                    return False
            # Half-open: admit one probe at a time.
            if not self._probing:
                self._probing = True
                return True
            self.rejected_total += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probing = False
                self._set_state(CLOSED)

    def record_neutral(self) -> None:
        """Release a claimed probe slot without judging pool health
        (e.g. the trial was cancelled by a client deadline)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probing = False
                self._opened_at = self._clock()
                self._set_state(OPEN)
                self._consecutive_failures = self.threshold
                return
            self._consecutive_failures += 1
            if self._state == CLOSED and \
                    self._consecutive_failures >= self.threshold:
                self._opened_at = self._clock()
                self._set_state(OPEN)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if self._state == OPEN and \
                    self._clock() - self._opened_at >= self.reset_after:
                return HALF_OPEN    # would admit a probe on next allow()
            return self._state

    @property
    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def retry_after(self) -> float:
        """Seconds until the breaker would admit a probe (0 when it
        already would)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0,
                       self.reset_after - (self._clock() - self._opened_at))
