"""One crash-isolated worker pool for campaigns and the service.

:class:`WorkerPool` runs the attempts of a trial in fork-context worker
processes and owns everything between its caller and a value
(DESIGN.md §9): the executor and its one identity-checked
kill-and-rebuild, the classification of a failed attempt into a kind
(:func:`classify`), and the one retry loop (:meth:`WorkerPool.run`),
with chaos and seeded backoff addressed by ``(index, attempt)``.  A
retry keeps its index, so a planned fault fires once per trial.  An
attempt that died only because another attempt's timeout or deadline
killed the pool re-runs uncharged; a pool that broke by itself charges
every attempt in flight on it a ``crash``.

``workers=0`` runs every attempt in the calling thread, with the same
calls (and RNG consumption) as a plain loop; there a timeout cannot be
enforced and a planned crash raises
:class:`~repro.campaign.spec.SimulatedWorkerCrash` instead of exiting.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable

from repro.campaign.seeding import backoff_delay, derive_seed
from repro.campaign.spec import (
    RETRYABLE_KINDS,
    SimulatedWorkerCrash,
    TransientTrialError,
    TrialFailure,
)

__all__ = ["Completed", "PoolFailure", "WorkerPool", "classify"]


@dataclass
class Completed:
    """A trial's value and the failed attempts and backoffs before it."""

    value: Any
    failures: list[TrialFailure]
    backoffs: list[float]
    #: Wall-clock seconds of the successful attempt, submit to done.
    wall_s: float

    @property
    def attempts(self) -> int:
        return len(self.failures) + 1


class PoolFailure(RuntimeError):
    """A trial that exhausted its attempts (or its caller's deadline)."""

    def __init__(self, kind: str, message: str,
                 failures: list[TrialFailure], backoffs: list[float]) -> None:
        super().__init__(message)
        self.kind = kind
        self.failures = failures
        self.backoffs = backoffs

    @property
    def attempts(self) -> int:
        return len(self.failures)


class _Expired(Exception):
    """An attempt outlived its budget: kind ``timeout`` or ``deadline``."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class _Collateral(Exception):
    """An attempt lost its pool to another attempt's timeout or deadline."""


def classify(exc: BaseException) -> str:
    """The failure kind of one attempt's exception."""
    if isinstance(exc, _Expired):
        return exc.kind
    if isinstance(exc, TransientTrialError):
        return "transient"
    if isinstance(exc, (SimulatedWorkerCrash, BrokenProcessPool,
                        CancelledError)):
        return "crash"
    return "exception"


def _call(chaos, index: int, attempt: int, in_worker: bool,
          fn: Callable[..., Any], args: tuple,
          kwargs: dict[str, Any]) -> Any:
    """Fire the planned fault of ``(index, attempt)``, then run the trial
    (module-level, hence picklable)."""
    if chaos is not None:
        chaos.fire(index, attempt, in_worker=in_worker)
    return fn(*args, **kwargs)


class WorkerPool:
    """Crash-isolated trial execution with seeded retry.

    Thread-safe: several threads may call :meth:`run` at once; each
    holds at most one attempt in flight, so with no more threads than
    ``workers`` a timeout measures run time, never queue wait.
    """

    def __init__(self, workers: int, *,
                 trial_timeout: float | None = None,
                 max_attempts: int = 3,
                 retry_seed: int = 0,
                 backoff_base: float = 0.02,
                 backoff_factor: float = 2.0,
                 backoff_cap: float = 0.5,
                 backoff_jitter: float = 0.25,
                 chaos=None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.workers = workers
        self.trial_timeout = trial_timeout
        self.max_attempts = max(1, max_attempts)
        self.retry_seed = retry_seed
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.chaos = chaos if chaos is not None and not chaos.empty else None
        self._sleep = sleep
        self._clock = clock
        #: Optional per-worker initializer (picklable zero-arg callable),
        #: run in every worker process the executor forks, respawns after
        #: a rebuild included.  The service uses it to close its inherited
        #: HTTP listener, so orphaned workers of a SIGKILLed server cannot
        #: hold the port against a warm restart.
        self.worker_init: Callable[[], None] | None = None
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._generation = 0
        #: Generations killed for a timeout or deadline, not found broken.
        self._deliberate: set[int] = set()
        self._busy = 0
        self.executions = 0
        self.retries = 0
        self.rebuilds = 0
        self.failure_kinds: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------

    def _live(self) -> tuple[ProcessPoolExecutor, int]:
        with self._lock:
            if self._executor is None:
                # Fork where available: trial functions defined in test
                # modules stay picklable by reference and workers skip
                # re-import.
                try:
                    context = get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    context = get_context()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context,
                    initializer=self.worker_init)
                self._generation += 1
            return self._executor, self._generation

    def _kill(self, generation: int, deliberate: bool = False) -> bool:
        """Kill pool ``generation`` if it is still the live one (so a sick
        pool is killed once, however many attempts saw it fail).  Return
        whether another attempt had already killed it deliberately, for
        a timeout or a deadline: the caller's attempt is then collateral.
        """
        with self._lock:
            collateral = generation in self._deliberate
            executor = None
            if generation == self._generation:
                executor, self._executor = self._executor, None
            if executor is not None:
                self.rebuilds += 1
                if deliberate:
                    self._deliberate.add(generation)
        if executor is not None:
            for process in list(getattr(executor, "_processes", {}).values()):
                try:
                    process.terminate()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
            executor.shutdown(wait=True, cancel_futures=True)
        return collateral

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def busy(self) -> int:
        """Attempts in flight on worker processes."""
        with self._lock:
            return self._busy

    def run(self, index: int, work: Callable[[int], tuple], *,
            deadline: float | None = None) -> Completed:
        """Run trial ``index`` until an attempt returns a value, or raise
        :class:`PoolFailure` with the terminal failure kind.

        ``work(attempt)`` gives each attempt's ``(fn, args, kwargs)``.
        ``deadline`` is absolute on the pool's clock; a trial that cannot
        finish inside it fails with kind ``deadline``, never retried.
        """
        failures: list[TrialFailure] = []
        backoffs: list[float] = []
        while True:
            attempt = len(failures)
            fn, args, kwargs = work(attempt)
            try:
                value, wall_s = self._attempt(index, attempt, fn, args,
                                              kwargs, deadline)
            except _Collateral:
                continue
            except Exception as exc:
                kind = classify(exc)
                message = str(exc) if isinstance(exc, _Expired) \
                    else f"{type(exc).__name__}: {exc}"
            else:
                with self._lock:
                    self.executions += 1
                return Completed(value, failures, backoffs, wall_s)
            failures.append(TrialFailure(index=index, attempt=attempt,
                                         kind=kind, message=message))
            retry = kind in RETRYABLE_KINDS and \
                attempt + 1 < self.max_attempts
            with self._lock:
                self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1
                if retry:
                    self.retries += 1
            if not retry:
                raise PoolFailure(kind, message, failures, backoffs)
            delay = backoff_delay(
                attempt, base=self.backoff_base, factor=self.backoff_factor,
                cap=self.backoff_cap, jitter=self.backoff_jitter,
                seed=derive_seed(self.retry_seed, index,
                                 f"backoff:{attempt}"))
            backoffs.append(delay)
            self._sleep(delay)

    def _attempt(self, index: int, attempt: int, fn: Callable[..., Any],
                 args: tuple, kwargs: dict[str, Any],
                 deadline: float | None) -> tuple[Any, float]:
        """One attempt: its value and wall-clock seconds, or an exception
        for :func:`classify` (:class:`_Collateral` if it is not to be
        charged)."""
        budget = self.trial_timeout
        if deadline is not None:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise _Expired("deadline",
                               "deadline exhausted before dispatch")
            budget = remaining if budget is None else min(budget, remaining)
        if not self.workers:
            started = self._clock()
            value = _call(self.chaos, index, attempt, False, fn, args, kwargs)
            return value, self._clock() - started
        executor, generation = self._live()
        try:
            future = executor.submit(_call, self.chaos, index, attempt, True,
                                     fn, args, kwargs)
        except RuntimeError as exc:        # broken, or killed meanwhile
            if self._kill(generation):
                raise _Collateral from exc
            raise BrokenProcessPool(f"executor unavailable: {exc}") from exc
        started = self._clock()
        with self._lock:
            self._busy += 1
        try:
            if not wait((future,), timeout=budget).done:
                if self._kill(generation, deliberate=True):
                    raise _Collateral
                # A hung worker (trial timeout) is a pool fault and
                # retryable; an exhausted caller budget is not.
                if self.trial_timeout is not None and \
                        budget >= self.trial_timeout:
                    raise _Expired("timeout",
                                   f"trial exceeded {self.trial_timeout:.3g}s "
                                   f"wall-clock budget")
                raise _Expired("deadline", "deadline exhausted mid-trial")
            try:
                return future.result(), self._clock() - started
            except (BrokenProcessPool, CancelledError) as exc:
                if self._kill(generation):
                    raise _Collateral from exc
                raise
        finally:
            with self._lock:
                self._busy -= 1
