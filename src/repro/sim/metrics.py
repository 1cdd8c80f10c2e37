"""Per-run metrics: AUR, CMR, sojourn times, retries, blockings.

Definitions follow the paper:

* **AUR** (accrued utility ratio, Section 5) — the ratio of the actual
  accrued total utility to the maximum possible total utility.  The
  maximum possible counts every released job at its TUF's maximum.
* **CMR** (critical-time-meet ratio, Section 6.2) — the ratio of the
  number of jobs that meet their critical times to the total number of
  job releases.
* **Sojourn time** — completion time minus arrival time (footnote 1).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.tasks.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.report import DegradationReport


@dataclass(frozen=True)
class JobRecord:
    """Immutable summary of one finished (completed or aborted) job."""

    task_name: str
    jid: int
    release_time: int
    completion_time: int | None     # None for aborted jobs
    accrued_utility: float
    max_utility: float
    retries: int
    blockings: int
    preemptions: int
    aborted: bool

    @property
    def sojourn(self) -> int | None:
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    @property
    def met_critical_time(self) -> bool:
        return not self.aborted and self.completion_time is not None


def record_of(job: Job) -> JobRecord:
    """Snapshot a finished job into a :class:`JobRecord`."""
    if job.is_live:
        raise ValueError(f"{job.name} is still live")
    return JobRecord(
        task_name=job.task.name,
        jid=job.jid,
        release_time=job.release_time,
        completion_time=job.completion_time,
        accrued_utility=job.accrued_utility,
        max_utility=job.task.tuf.max_utility,
        retries=job.retries,
        blockings=job.blockings,
        preemptions=job.preemptions,
        aborted=job.state is JobState.ABORTED,
    )


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    records: list[JobRecord] = field(default_factory=list)
    horizon: int = 0
    scheduler_invocations: int = 0
    scheduler_overhead_time: int = 0
    idle_time: int = 0
    #: Jobs still live at the horizon (not in the records; exposed so
    #: harnesses can judge edge effects).
    unfinished: int = 0
    # --- synchronization mechanism accounting (drives Figure 8) ----------
    #: Kernel time charged to lock-based sharing mechanisms: lock/unlock
    #: bookkeeping plus the scheduler passes those requests trigger.
    lock_mechanism_time: int = 0
    #: Kernel time charged to lock-free mechanisms: CAS attempts (initial
    #: and retry) plus the work thrown away by retries.
    lockfree_mechanism_time: int = 0
    #: Committed lock-based critical sections.
    lock_access_commits: int = 0
    #: Committed lock-free operations.
    lockfree_access_commits: int = 0
    #: Total lock-free attempts (commits + retries).
    lockfree_attempts: int = 0
    # --- fault injection / graceful degradation ---------------------------
    #: Structured degradation report: injected faults, shed/deferred jobs,
    #: retry-guard aborts, invariant-monitor findings.  None when the run
    #: used no fault plan, guard, or monitors.
    degradation: "DegradationReport | None" = None
    # --- observability (repro.obs) ----------------------------------------
    #: The attached observer's end-of-run summary (counters, histogram
    #: digests, scheduler decision stats).  None when the run was not
    #: instrumented.
    obs: dict | None = None

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    @property
    def releases(self) -> int:
        return len(self.records) + self.unfinished

    @property
    def accrued_utility(self) -> float:
        return sum(r.accrued_utility for r in self.records)

    @property
    def max_possible_utility(self) -> float:
        total = sum(r.max_utility for r in self.records)
        return total

    @property
    def aur(self) -> float:
        """Accrued Utility Ratio over the finished jobs."""
        denominator = self.max_possible_utility
        if denominator == 0:
            return 0.0
        return self.accrued_utility / denominator

    @property
    def cmr(self) -> float:
        """Critical-time-Meet Ratio over the finished jobs."""
        if not self.records:
            return 0.0
        met = sum(1 for r in self.records if r.met_critical_time)
        return met / len(self.records)

    @property
    def abort_count(self) -> int:
        return sum(1 for r in self.records if r.aborted)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def total_blockings(self) -> int:
        return sum(r.blockings for r in self.records)

    @property
    def mean_lock_mechanism_per_access(self) -> float | None:
        """Mean mechanism time per committed lock-based access — the
        measured component of the paper's ``r`` beyond the intrinsic
        operation time."""
        if self.lock_access_commits == 0:
            return None
        return self.lock_mechanism_time / self.lock_access_commits

    @property
    def mean_lockfree_mechanism_per_access(self) -> float | None:
        """Mean mechanism time per committed lock-free access — the
        measured component of the paper's ``s`` beyond the intrinsic
        operation time."""
        if self.lockfree_access_commits == 0:
            return None
        return self.lockfree_mechanism_time / self.lockfree_access_commits

    # ------------------------------------------------------------------
    # Distributional views
    # ------------------------------------------------------------------

    def sojourns(self, task_name: str | None = None) -> list[int]:
        return [
            r.sojourn for r in self.records
            if r.sojourn is not None
            and (task_name is None or r.task_name == task_name)
        ]

    def mean_sojourn(self, task_name: str | None = None) -> float | None:
        values = self.sojourns(task_name)
        return statistics.fmean(values) if values else None

    def max_sojourn(self, task_name: str | None = None) -> int | None:
        values = self.sojourns(task_name)
        return max(values) if values else None

    def per_task(self) -> dict[str, "SimulationResult"]:
        """Split the result by task name (horizon/overhead fields are
        copied; they are global)."""
        split: dict[str, SimulationResult] = {}
        for record in self.records:
            sub = split.setdefault(record.task_name, SimulationResult(
                horizon=self.horizon,
            ))
            sub.records.append(record)
        return split

