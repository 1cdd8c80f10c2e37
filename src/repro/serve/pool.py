"""Crash-isolated simulation workers for the serve layer.

:class:`SimulationPool` is the campaign engine's
:class:`~repro.campaign.pool.WorkerPool` (DESIGN.md §9), shared by the
dispatcher threads, with one :meth:`~SimulationPool.execute` per
request:

* a worker exception, dead worker process, or per-trial wall-clock
  timeout becomes a structured failure kind (``transient`` / ``crash``
  / ``timeout`` / ``exception`` / ``deadline``);
* retryable kinds (:data:`repro.campaign.spec.RETRYABLE_KINDS`) re-run
  after a seeded exponential backoff.  Requests are numbered in
  submission order, and chaos and backoff are deterministic in
  ``(retry_seed, request index, attempt)``: a retry keeps its request's
  index, so a planned fault fires on the first attempt only;
* a timed-out or broken pool is killed and rebuilt.  A request that was
  merely in flight on a pool another request's timeout killed re-runs
  uncharged; a pool that broke by itself charges every request in
  flight on it a retryable ``crash``;
* a request deadline caps the wait: a trial that cannot finish inside
  the caller's remaining budget fails with kind ``deadline`` (never
  retried — the client has already gone away).

Trials run :func:`simulate_trial`: rebuild the scenario from its wire
dict, simulate, and return the canonical result payload — the exact
bytes a cache hit would serve, so cached and computed responses are
indistinguishable.
"""

from __future__ import annotations

import itertools
import os
from typing import Any

from repro.campaign.pool import PoolFailure, WorkerPool

__all__ = ["SimulationPool", "PoolFailure", "simulate_trial",
           "result_payload"]


def close_inherited_fd(fd: int) -> None:
    """Worker initializer: drop a file descriptor inherited across
    ``fork`` (e.g. the serve layer's listening socket).  Must stay
    module-level so it pickles under non-fork start methods."""
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        pass


def result_payload(scenario, summary) -> dict[str, Any]:
    """The canonical, JSON-stable view of one ``simulate`` outcome.

    This is what the service returns, checksums and caches; it must be
    a pure function of the scenario (all fields deterministic at a
    fixed seed), so no wall-clock or machine-local data belongs here.
    """
    result = summary.result
    return {
        "scenario_digest": scenario.digest(),
        "policy": summary.policy,
        "sync": summary.sync,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "load": summary.load,
        "aur": summary.aur,
        "cmr": summary.cmr,
        "jobs": len(result.records),
        "unfinished": result.unfinished,
        "total_retries": result.total_retries,
        "total_blockings": result.total_blockings,
        "accrued_utility": result.accrued_utility,
        "max_possible_utility": result.max_possible_utility,
        "scheduler_invocations": result.scheduler_invocations,
    }


def simulate_trial(scenario_dict: dict[str, Any]) -> dict[str, Any]:
    """Worker-side entry point (module-level, hence picklable)."""
    from repro.api import simulate
    from repro.scenario import Scenario

    scenario = Scenario.from_dict(scenario_dict)
    return result_payload(scenario, simulate(scenario))


class SimulationPool(WorkerPool):
    """The dispatchers' shared :class:`WorkerPool`: one :meth:`execute`
    per request, requests numbered in submission order.  Thread-safe."""

    def __init__(self, workers: int = 2, **settings: Any) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(workers, **settings)
        self._requests = itertools.count()

    def execute(self, scenario_dict: dict[str, Any],
                deadline: float | None = None) -> dict[str, Any]:
        """Run one scenario to a verified payload, or raise
        :class:`PoolFailure` with the terminal failure kind.

        ``deadline`` is absolute on the pool's clock; the per-attempt
        wait is the smaller of the trial timeout and the remaining
        deadline budget.
        """
        work = (simulate_trial, (scenario_dict,), {})
        return self.run(next(self._requests), lambda _attempt: work,
                        deadline=deadline).value
