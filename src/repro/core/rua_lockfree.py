"""Lock-free RUA (Section 5).

With lock-free object sharing, resource dependencies do not exist: every
job's "aggregate computation" is just the job itself.  Steps 1 (dependency
chains) and 3 (deadlock detection) of lock-based RUA vanish, Step 2 (PUD)
drops to ``O(n)`` and Step 5 (schedule construction) to ``O(n^2)`` — the
paper's headline cost reduction from ``O(n^2 log n)`` to ``O(n^2)``.

The construction is otherwise identical: non-increasing PUD examination,
ECF insertion, feasibility testing with rejection.  On the fast path the
singleton-chain specialization
(:func:`repro.core.schedule_builder.singleton_pass`) runs the
construction copy-free; under ``REPRO_NO_FASTPATH`` the reference
Section 3.4 builder runs instead — the two are result-identical by
construction and by test.
"""

from __future__ import annotations

from repro.core.interface import PassResult, SchedulerPolicy
from repro.core.pud import chain_pud
from repro.core.schedule_builder import build_rua_schedule, singleton_pass
from repro.sim.locks import LockManager
from repro.sim.overheads import CostModel, default_lockfree_rua_cost
from repro.tasks.job import Job


class LockFreeRUA(SchedulerPolicy):
    """RUA specialized for lock-free sharing: no dependency chains."""

    name = "rua-lockfree"
    emits_counters = True

    def __init__(self, cost_model: CostModel | None = None) -> None:
        super().__init__()
        self.cost_model = cost_model or default_lockfree_rua_cost()

    def _validate(self, jobs: list[Job],
                  locks: LockManager | None) -> None:
        if locks is not None:
            raise ValueError(
                "LockFreeRUA must not be used with lock-based sharing; "
                "use LockBasedRUA or SyncMode.LOCK_FREE"
            )

    def _compute(self, jobs: list[Job], locks: LockManager | None,
                 now: int) -> PassResult:
        if self.fast:
            return singleton_pass(jobs, now)
        chains = {job: [job] for job in jobs}
        puds = {job: chain_pud(chains[job], now) for job in jobs}
        pud_order = sorted(
            jobs,
            key=lambda job: (-puds[job], job.critical_time_abs, job.name),
        )
        order = build_rua_schedule(pud_order, chains, now)
        return PassResult(order=order, rejections=len(jobs) - len(order))
