"""Lock-based RUA (Section 3).

The algorithm, at every scheduling event:

1. compute each job's dependency chain (Section 3.1);
2. compute each job's PUD over its chain (Section 3.2);
3. detect and resolve deadlocks (Section 3.3 — only reachable when nested
   critical sections are enabled);
4. sort jobs by non-increasing PUD;
5. insert each job with its dependents into a tentative ECF schedule,
   testing feasibility and rejecting infeasible insertions (Section 3.4).

Asymptotic cost ``O(n^2 log n)``, dominated by Step 5 (Section 3.6); the
matching simulated cost is charged through
:func:`repro.sim.overheads.default_lockbased_rua_cost`.

On the fast path, a pass first scans for dependency edges.  With none
(the common case: no job waits for a held object) there can be no cycle
and every chain is a singleton, so Steps 1 and 3 are skipped outright.
Step 5 then runs through one of two result-identical constructions:
when every chain is a singleton the copy-free specialization
(:func:`repro.core.schedule_builder.singleton_pass`); otherwise the
copying Section 3.4 reference.  Under ``REPRO_NO_FASTPATH`` every pass
takes the reference, with no edge scan.
"""

from __future__ import annotations

from repro.core.deadlock import detect_deadlock, pick_deadlock_victim
from repro.core.dependency import all_dependency_chains, blocking_owner
from repro.core.interface import PassResult, SchedulerPolicy
from repro.core.pud import chain_pud
from repro.core.schedule_builder import build_rua_schedule, singleton_pass
from repro.sim.locks import LockManager
from repro.sim.overheads import CostModel, default_lockbased_rua_cost
from repro.tasks.job import Job


class LockBasedRUA(SchedulerPolicy):
    """The Resource-constrained Utility Accrual scheduler with lock-based
    object sharing."""

    name = "rua-lockbased"
    emits_counters = True

    def __init__(self, cost_model: CostModel | None = None,
                 detect_deadlocks: bool = True) -> None:
        super().__init__()
        self.cost_model = cost_model or default_lockbased_rua_cost()
        self.detect_deadlocks = detect_deadlocks

    def _compute(self, jobs: list[Job], locks: LockManager | None,
                 now: int) -> PassResult:
        fast = self.fast
        if fast and (locks is None or not locks.has_owners() or not any(
                blocking_owner(job, locks) is not None for job in jobs)):
            # No dependency edge (with no lock held, none can exist): no
            # cycle to detect and every chain is the job itself (length
            # 1), exactly what Steps 1 and 3 would find.
            return singleton_pass(jobs, now, chain_len_max=1 if jobs else 0)
        candidates = list(jobs)
        victims: set[Job] = set()
        # Step 3 first in implementation order: resolving a deadlock
        # changes the chains, so victims are excluded before chains are
        # (re)built.  Detection itself is O(n), cheaper than chain
        # construction (Section 3.6 notes it never dominates).  A victim's
        # locks are only rolled back by the kernel after this pass, so the
        # walk must ignore victims rather than rely on the lock state.
        if self.detect_deadlocks and locks is not None:
            while True:
                cycle = detect_deadlock(candidates, locks, ignore=victims)
                if cycle is None:
                    break
                victim = pick_deadlock_victim(cycle, now)
                self.request_abort(victim)
                victims.add(victim)
                candidates = [j for j in candidates if j is not victim]
        # Steps 1-2: dependency chains and PUDs.  With detection enabled
        # every cycle has been resolved above, so chains cannot close;
        # with detection disabled, truncate instead of raising so the
        # scheduler still produces an order (the cycle members will sit
        # blocked until their critical-time aborts break it).
        on_cycle = "raise" if self.detect_deadlocks else "truncate"
        chains = all_dependency_chains(candidates, locks, ignore=victims,
                                       on_cycle=on_cycle)
        chain_len_max = 0
        singleton = True
        for chain in chains.values():
            length = len(chain)
            if length > chain_len_max:
                chain_len_max = length
                if length > 1:
                    singleton = False
        if fast and singleton:
            # Victims removed, only singleton chains remain.
            return singleton_pass(candidates, now, victims=len(victims),
                                  chain_len_max=chain_len_max)
        puds = {job: chain_pud(chains[job], now) for job in candidates}
        # Step 4: non-increasing PUD; deterministic tie-breaks (earlier
        # critical time, then name).
        pud_order = sorted(
            candidates,
            key=lambda job: (-puds[job], job.critical_time_abs, job.name),
        )
        # Step 5: tentative-schedule construction.
        order = build_rua_schedule(pud_order, chains, now)
        return PassResult(order=order,
                          rejections=len(candidates) - len(order),
                          victims=len(victims),
                          chain_len_max=chain_len_max)
