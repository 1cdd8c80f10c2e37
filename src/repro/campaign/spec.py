"""Campaign data model: trials, failures, outcomes, configuration.

A *trial* is one picklable unit of work — typically one seeded
simulation.  The engine executes trials serially or in worker processes,
and every way a trial can go wrong is folded into a structured
:class:`TrialFailure` instead of an exception that aborts the campaign
(mirroring how :class:`repro.faults.report.DegradationReport` records
kernel-level misbehavior instead of raising).

Failure taxonomy (``TrialFailure.kind``):

* ``"exception"`` — the trial function raised; deterministic, so it is
  **not** retried (re-running the same pure function cannot help);
* ``"transient"`` — the trial raised :class:`TransientTrialError`
  (or the chaos layer injected one); retried with backoff;
* ``"crash"`` — the worker process died (segfault, ``os._exit``, OOM
  kill); retried, because the cause is environmental, not the seed;
* ``"timeout"`` — the trial exceeded the per-trial wall-clock budget;
  retried, because long-tail schedules are usually scheduling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.chaos import ChaosPlan

#: Failure kinds that are worth retrying: the cause is environmental
#: (dead worker, stuck schedule) or explicitly marked transient, so a
#: fresh attempt with the same seed can legitimately succeed.
RETRYABLE_KINDS = frozenset({"transient", "crash", "timeout"})


class TransientTrialError(RuntimeError):
    """Raise from a trial function to mark the failure as retryable."""


class SimulatedWorkerCrash(RuntimeError):
    """Stand-in for a worker-process death when running serially (a real
    ``os._exit`` would take the whole campaign down — exactly what the
    serial mode cannot isolate)."""


@dataclass(frozen=True)
class TrialSpec:
    """One unit of campaign work.

    ``fn``/``args``/``kwargs`` must be picklable when the campaign runs
    with ``workers > 1`` (module-level functions and frozen dataclasses
    qualify; closures and lambdas do not).
    """

    index: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    def call(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class TrialFailure:
    """One failed attempt of one trial."""

    index: int
    attempt: int                 # 0-based attempt number that failed
    kind: str                    # exception | transient | crash | timeout
    message: str = ""

    def __str__(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return f"trial {self.index} attempt {self.attempt} {self.kind}{detail}"

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "attempt": self.attempt,
                "kind": self.kind, "message": self.message}


@dataclass
class TrialOutcome:
    """Terminal state of one trial: a value, or exhausted failures."""

    index: int
    ok: bool
    value: Any = None
    attempts: int = 0            # attempts actually executed this run
    failures: list[TrialFailure] = field(default_factory=list)
    from_journal: bool = False   # satisfied from a resume journal
    #: Wall-clock seconds of the successful attempt (submit-to-done under
    #: parallel execution); None for journal hits and failed trials.
    wall_s: float | None = None
    #: Checkpoint lineage for crash-recoverable trials: attempt records
    #: from the trial's CheckpointStore sidecar plus resume accounting
    #: (see DESIGN.md §15).  None when the trial did not checkpoint.
    recovery: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "index": self.index,
            "ok": self.ok,
            "attempts": self.attempts,
            "from_journal": self.from_journal,
            "failures": [f.to_dict() for f in self.failures],
            "wall_s": self.wall_s,
        }
        if self.recovery is not None:
            doc["recovery"] = self.recovery
        return doc


@dataclass(frozen=True)
class CampaignConfig:
    """Execution policy for a campaign (see DESIGN.md §9).

    ``workers=1`` (the default) runs trials in-process, in order — the
    byte-identical serial mode.  ``workers > 1`` fans trials out to a
    ``ProcessPoolExecutor``; ``timeout`` then bounds each trial's
    wall-clock time (it cannot be enforced in-process and is ignored
    serially).  ``max_attempts`` counts total tries per trial, so ``1``
    disables retry.  ``journal`` appends a write-ahead record per
    completed trial; ``resume`` preloads completed trials from a journal
    and skips re-running them.  ``metrics_port`` (when not None) makes
    the engine serve a live OpenMetrics ``/metrics`` endpoint for the
    duration of the campaign (0 = ephemeral port).
    """

    workers: int = 1
    timeout: float | None = None
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25
    retry_seed: int = 0
    journal: str | None = None
    resume: str | None = None
    max_failures: int | None = None   # enforced by the CLI, recorded here
    chaos: "ChaosPlan | None" = None
    metrics_port: int | None = None   # live /metrics endpoint (0 = any)
    metrics_host: str = "127.0.0.1"
    #: Directory for per-trial kernel checkpoints.  When set, trial
    #: functions that declare ``wants_trial_context = True`` receive a
    #: ``_trial=`` :class:`repro.campaign.resume.TrialContext` and their
    #: crash/timeout retries resume from the last valid checkpoint
    #: instead of from zero (DESIGN.md §15).
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive when set")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535] when set")


@dataclass(frozen=True)
class CampaignStats:
    """Aggregate campaign health, suitable for report annotations."""

    trials: int = 0
    completed: int = 0
    failed_trials: int = 0
    from_journal: int = 0
    attempt_failures: tuple[tuple[str, int], ...] = ()  # kind -> count
    workers: int = 1

    def summary_line(self) -> str:
        parts = [f"{self.trials} trials", f"{self.completed} ok",
                 f"{self.failed_trials} failed"]
        if self.from_journal:
            parts.append(f"{self.from_journal} from journal")
        if self.attempt_failures:
            detail = ", ".join(f"{count} {kind}"
                               for kind, count in self.attempt_failures)
            parts.append(f"failed attempts: {detail}")
        parts.append(f"workers={self.workers}")
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "completed": self.completed,
            "failed_trials": self.failed_trials,
            "from_journal": self.from_journal,
            "attempt_failures": dict(self.attempt_failures),
            "workers": self.workers,
        }


@dataclass
class CampaignResult:
    """Outcome of one batch of trials, in trial order."""

    outcomes: list[TrialOutcome] = field(default_factory=list)

    @property
    def values(self) -> list[Any]:
        """Successful trial values only, preserving trial order —
        the graceful-degradation view an aggregator consumes."""
        return [o.value for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[TrialFailure]:
        return [f for o in self.outcomes for f in o.failures]

    @property
    def failed(self) -> list[TrialOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failed
