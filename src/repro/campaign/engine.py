"""Resilient campaign execution: crash isolation, timeouts, retry, resume.

:class:`CampaignEngine` runs batches of :class:`~repro.campaign.spec.TrialSpec`
under one :class:`~repro.campaign.spec.CampaignConfig`.  Every trial
runs through one :class:`~repro.campaign.pool.WorkerPool` per batch,
which owns crash isolation, timeouts, failure classification and seeded
retry (DESIGN.md §9):

* ``workers=1`` — trials run in-process, in trial order.  With no
  journal, no chaos and no retries triggered, this is byte-identical to
  the plain serial loops the experiment modules used before the engine
  existed (same calls, same RNG consumption).
* ``workers>1`` — ``workers`` threads each drive one trial at a time
  through the pool's worker processes.  A worker exception, a dead
  worker process, or a per-trial wall-clock timeout becomes a
  structured :class:`~repro.campaign.spec.TrialFailure`; retryable
  kinds run again after a seeded exponential backoff.  Trials that were
  merely collateral (in flight on a pool another trial's timeout
  killed) re-run without being charged an attempt.  The engine's own
  thread journals and observes outcomes in completion order.

Determinism contract: trial functions must derive all randomness from
their arguments (in practice: from ``(base_seed, trial_index)``).  The
engine never feeds scheduling state into a trial, so serial, parallel,
retried and resumed campaigns agree on every successful trial's value.

One engine instance may serve several ``run()``/``map()`` batches (a
figure sweep issues one batch per x-axis point); trials are numbered
globally across batches so journals and chaos plans address them
unambiguously.
"""

from __future__ import annotations

import collections
import functools
import queue
import threading
import time
from typing import Any, Callable, Sequence

from repro.campaign.journal import CampaignJournal, JournalError, load_journal
from repro.campaign.pool import Completed, PoolFailure, WorkerPool
from repro.campaign.spec import (
    CampaignConfig,
    CampaignResult,
    CampaignStats,
    TrialFailure,
    TrialOutcome,
    TrialSpec,
)
from repro.obs.observer import NULL_OBSERVER, NullObserver


class CampaignEngine:
    """Executes trials under one campaign policy; accumulates stats."""

    def __init__(self, config: CampaignConfig | None = None, *,
                 tag: str = "campaign",
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 observer: NullObserver | None = None) -> None:
        self.config = config or CampaignConfig()
        self.tag = tag
        self._clock = clock
        self._sleep = sleep
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._next_index = 0
        self.outcomes: list[TrialOutcome] = []
        self._cache: dict[int, Any] = {}
        if self.config.resume:
            snapshot = load_journal(self.config.resume)
            if snapshot.tag and snapshot.tag != tag:
                raise JournalError(
                    f"cannot resume: journal is for campaign "
                    f"{snapshot.tag!r}, this one is {tag!r}")
            self._cache = dict(snapshot.values)
        self._journal: CampaignJournal | None = None
        if self.config.journal:
            self._journal = CampaignJournal.open(self.config.journal, tag)
        # Live OpenMetrics endpoint: scrapes snapshot the observer on
        # demand, so the campaign stays scrapeable for its whole run.
        self._metrics_server = None
        if self.config.metrics_port is not None:
            from repro.obs.metrics import MetricsServer, snapshot_openmetrics

            self._metrics_server = MetricsServer(
                lambda: snapshot_openmetrics(observer=self.obs),
                host=self.config.metrics_host,
                port=self.config.metrics_port).start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[TrialSpec]) -> CampaignResult:
        """Execute one batch; returns outcomes in batch order."""
        base = self._next_index
        self._next_index += len(specs)
        done: dict[int, TrialOutcome] = {}
        pending = []
        for position, spec in enumerate(specs):
            cached = self._cached_outcome(base + position)
            if cached is None:
                pending.append((base + position, spec))
            else:
                self._note_outcome(cached)
                done[cached.index] = cached
        with self._pool() as pool:
            for outcome in self._execute(pool, pending):
                done[outcome.index] = outcome
        outcomes = [done[base + position] for position in range(len(specs))]
        self.outcomes.extend(outcomes)
        return CampaignResult(outcomes=outcomes)

    def map(self, fn: Callable[..., Any],
            arg_tuples: Sequence[tuple], **kwargs: Any) -> CampaignResult:
        """Convenience: one trial per argument tuple."""
        specs = [
            TrialSpec(index=i, fn=fn, args=tuple(args),
                      kwargs=tuple(sorted(kwargs.items())))
            for i, args in enumerate(arg_tuples)
        ]
        return self.run(specs)

    def stats(self) -> CampaignStats:
        by_kind: dict[str, int] = {}
        for outcome in self.outcomes:
            for failure in outcome.failures:
                by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
        return CampaignStats(
            trials=len(self.outcomes),
            completed=sum(1 for o in self.outcomes if o.ok),
            failed_trials=sum(1 for o in self.outcomes if not o.ok),
            from_journal=sum(1 for o in self.outcomes if o.from_journal),
            attempt_failures=tuple(sorted(by_kind.items())),
            workers=self.config.workers,
        )

    @property
    def metrics_url(self) -> str | None:
        """The live ``/metrics`` URL, when the campaign serves one."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.url

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _cached_outcome(self, gidx: int) -> TrialOutcome | None:
        if gidx not in self._cache:
            return None
        return TrialOutcome(index=gidx, ok=True, value=self._cache[gidx],
                            attempts=0, from_journal=True)

    def _note_outcome(self, outcome: TrialOutcome) -> None:
        if not self.obs.enabled:
            return
        self.obs.counter("campaign.trials")
        self.obs.counter("campaign.ok" if outcome.ok
                         else "campaign.failed")
        if outcome.from_journal:
            self.obs.counter("campaign.from_journal")
        if outcome.wall_s is not None:
            self.obs.histogram("campaign.trial_wall_s", outcome.wall_s)
        for failure in outcome.failures:
            self.obs.counter(f"campaign.attempt_failures.{failure.kind}")

    def _checkpoints(self, spec: TrialSpec) -> bool:
        """Whether ``spec``'s attempts get a ``_trial=`` context: there
        is a ``checkpoint_dir`` and the function asked for one."""
        return bool(self.config.checkpoint_dir) and \
            getattr(spec.fn, "wants_trial_context", False)

    def _recovery_info(self, gidx: int, failures: list[TrialFailure],
                       notes: list[dict[str, Any]]
                       ) -> dict[str, Any] | None:
        """Summarize the trial's checkpoint lineage for the outcome and
        journal; projects the recovery counters into the observer.

        ``notes`` came back beside the value of the successful attempt.
        A failed attempt's start note is read from the lineage sidecar
        when that attempt resumed (the only time one is written), and is
        otherwise determined by its attempt number; so a clean trial
        reads no file.
        """
        lineage: list[dict[str, Any]] = []
        if failures:
            from repro.campaign.resume import CheckpointStore, start_note

            sidecar = {entry.get("attempt"): entry for entry in
                       CheckpointStore(self.config.checkpoint_dir)
                       .lineage(gidx) if entry.get("resumed")}
            lineage = [sidecar.get(f.attempt) or start_note(f.attempt)
                       for f in failures]
        lineage += notes
        if not lineage:
            return None
        resumed = [e for e in lineage if e.get("resumed")]
        written = sum(e.get("checkpoints_written", 0)
                      for e in lineage if e.get("completed"))
        saved = sum(e.get("resume_clock") or 0 for e in resumed)
        if self.obs.enabled:
            if written:
                self.obs.counter("campaign.checkpoints_written", written)
            if resumed:
                self.obs.counter("campaign.resumed_trials")
                self.obs.counter("campaign.resume_simns_saved", saved)
        return {
            "lineage": lineage,
            "resumed_attempts": len(resumed),
            "checkpoints_written": written,
            "resume_simns_saved": saved,
        }

    def _work(self, spec: TrialSpec, gidx: int, attempt: int):
        """One attempt's ``(fn, args, kwargs)``: the spec's own call, or,
        when the trial checkpoints, that call with a ``_trial=`` context
        wrapped so that it returns ``(value, lineage notes)``."""
        if not self._checkpoints(spec):
            return spec.fn, spec.args, dict(spec.kwargs)
        from repro.campaign.resume import TrialContext, run_attempt

        context = TrialContext(index=gidx, attempt=attempt,
                               checkpoint_dir=self.config.checkpoint_dir)
        return run_attempt, (context, spec.fn, spec.args,
                             dict(spec.kwargs)), {}

    def _pool(self) -> WorkerPool:
        cfg = self.config
        return WorkerPool(
            cfg.workers if cfg.workers > 1 else 0,
            trial_timeout=cfg.timeout, max_attempts=cfg.max_attempts,
            retry_seed=cfg.retry_seed, backoff_base=cfg.backoff_base,
            backoff_factor=cfg.backoff_factor, backoff_cap=cfg.backoff_cap,
            backoff_jitter=cfg.backoff_jitter, chaos=cfg.chaos,
            sleep=self._sleep, clock=self._clock)

    def _finish(self, gidx: int, spec: TrialSpec,
                result: Completed | Exception) -> TrialOutcome:
        """The outcome of one trial's attempts; journals and observes it.
        Runs on the engine's own thread only (the observer is not
        thread-safe)."""
        if not isinstance(result, (Completed, PoolFailure)):
            raise result                 # a bug, not a trial failure
        ok = isinstance(result, Completed)
        if self.obs.enabled:
            for delay in result.backoffs:
                self.obs.counter("campaign.retries")
                self.obs.histogram("campaign.backoff_s", delay)
        value = result.value if ok else None
        recovery = None
        if self._checkpoints(spec):       # run_attempt's (value, notes)
            value, notes = value if ok else (None, [])
            recovery = self._recovery_info(gidx, result.failures, notes)
        outcome = TrialOutcome(index=gidx, ok=ok, value=value,
                               attempts=result.attempts,
                               failures=result.failures,
                               wall_s=result.wall_s if ok else None,
                               recovery=recovery)
        if self._journal is not None:
            self._journal.record(outcome)
            self.obs.counter("campaign.journal_writes")
        self._note_outcome(outcome)
        return outcome

    def _execute(self, pool: WorkerPool,
                 pending: list[tuple[int, TrialSpec]]
                 ) -> list[TrialOutcome]:
        """Run ``pending`` through ``pool``; outcomes in completion order.

        Serially the trials run in order on this thread.  In parallel,
        ``workers`` threads each drive one trial at a time through the
        pool, and this thread finishes the outcomes as they complete.
        """
        def attempts(gidx: int, spec: TrialSpec) -> Completed | Exception:
            try:
                return pool.run(gidx, functools.partial(self._work, spec,
                                                        gidx))
            except Exception as exc:     # PoolFailure, or re-raised below
                return exc

        if not pool.workers:
            return [self._finish(gidx, spec, attempts(gidx, spec))
                    for gidx, spec in pending]
        todo = collections.deque(pending)
        done: queue.SimpleQueue = queue.SimpleQueue()

        def drive() -> None:
            while True:
                try:
                    gidx, spec = todo.popleft()
                except IndexError:
                    return
                done.put((gidx, spec, attempts(gidx, spec)))

        threads = [threading.Thread(target=drive, daemon=True,
                                    name=f"{self.tag}-trials-{slot}")
                   for slot in range(min(pool.workers, len(pending)))]
        for thread in threads:
            thread.start()
        outcomes = []
        try:
            for _ in pending:
                gidx, spec, result = done.get()
                if self.obs.enabled:
                    self.obs.histogram("campaign.workers_busy", pool.busy)
                outcomes.append(self._finish(gidx, spec, result))
        finally:
            todo.clear()
            for thread in threads:
                thread.join()
        return outcomes
