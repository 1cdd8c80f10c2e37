"""Section 3.6 / Section 5 ablation — scheduler pass cost scaling.

Times the *real Python implementations* of one lock-based RUA pass
(``O(n^2 log n)``) and one lock-free RUA pass (``O(n^2)``) across job
counts, demonstrating the asymptotic gap the paper attributes to the
"aggregate computation" (dependency chains).  This is a genuine
pytest-benchmark timing target, unlike the campaign benches.

Every timed call uses a fresh ``now`` so each pass is a distinct
scheduling event: at one instant the schedule-repair cache would replay
the previous pass's decisions instead of running the algorithm.
``test_fastpath_speedup`` additionally gates the incremental fast path
itself: the same pass with ``REPRO_NO_FASTPATH=1`` (the from-scratch
reference construction) must be at least 3x slower at n >= 64.
"""

import itertools
import os
import random
import time

import pytest

from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.experiments.workloads import paper_taskset
from repro.sim.locks import LockManager
from repro.tasks.job import Job

#: The clock values cycle inside every job's critical-time window, so
#: varying ``now`` never turns the whole set infeasible mid-benchmark.
NOW_CYCLE = 4096


def _jobs_with_contention(n):
    rng = random.Random(0)
    tasks = paper_taskset(rng, n_tasks=n, accesses_per_job=2,
                          target_load=0.5)
    jobs = [Job(task=t, jid=0, release_time=0) for t in tasks]
    locks = LockManager()
    # Half the jobs hold their first-needed object, creating chains.
    for job in jobs[: n // 2]:
        obj = next(iter(job.task.accessed_objects))
        job.segment_index = 0
        if locks.owner_of(obj) is None:
            locks.try_acquire(job, obj)
            job.holds_lock = obj
    return jobs, locks


def _distinct_pass(policy, jobs, locks):
    ticks = itertools.count()
    return lambda: policy.schedule(jobs, locks, now=next(ticks) % NOW_CYCLE)


@pytest.mark.parametrize("n", [5, 10, 20, 40, 64, 96])
def test_lockbased_rua_pass(benchmark, n):
    jobs, locks = _jobs_with_contention(n)
    benchmark(_distinct_pass(LockBasedRUA(), jobs, locks))


@pytest.mark.parametrize("n", [5, 10, 20, 40, 64, 96])
def test_lockfree_rua_pass(benchmark, n):
    jobs, _ = _jobs_with_contention(n)
    benchmark(_distinct_pass(LockFreeRUA(), jobs, None))


def _timed(policy, jobs, locks, repeats=10, trials=3):
    """Best-of-``trials`` wall time of ``repeats`` distinct passes."""
    best = float("inf")
    for _ in range(trials):
        ticks = itertools.count()
        start = time.perf_counter()
        for _ in range(repeats):
            policy.schedule(jobs, locks, now=next(ticks) % NOW_CYCLE)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_reference(policy_class, jobs, locks, **kwargs):
    """``_timed`` on the reference path.  The policy is built inside the
    block because it reads ``REPRO_NO_FASTPATH`` at construction."""
    os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        return _timed(policy_class(), jobs, locks, **kwargs)
    finally:
        del os.environ["REPRO_NO_FASTPATH"]


def test_fastpath_speedup():
    """The tentpole target: >= 3x wall-clock over the reference path at
    n >= 64, for both RUA variants.  Also keeps the historical shape
    assertion (a lock-based pass costs more than a lock-free one)."""
    assert not os.environ.get("REPRO_NO_FASTPATH"), \
        "speedup bench needs the fast path enabled"
    speedups = {}
    for n in (64, 96):
        jobs, locks = _jobs_with_contention(n)
        t_lb_fast = _timed(LockBasedRUA(), jobs, locks)
        t_lb_ref = _timed_reference(LockBasedRUA, jobs, locks)
        t_lf_fast = _timed(LockFreeRUA(), jobs, None)
        t_lf_ref = _timed_reference(LockFreeRUA, jobs, None)
        speedups[("lockbased", n)] = t_lb_ref / t_lb_fast
        speedups[("lockfree", n)] = t_lf_ref / t_lf_fast
        if n == 64:
            assert t_lb_fast > t_lf_fast
    for (sync, n), speedup in speedups.items():
        assert speedup >= 3.0, (
            f"fast path only {speedup:.2f}x over reference "
            f"for {sync} at n={n} (target >= 3x)")
