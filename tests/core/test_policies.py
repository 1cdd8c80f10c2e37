"""Tests for the scheduler policies (RUA variants, EDF, LLF)."""

import pytest

from repro.arrivals import UAMSpec
from repro.core.edf import EDF
from repro.core.llf import LLF
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, ObjectAccess, TaskSpec
from repro.tuf import StepTUF


def _job(name, critical, compute=100, height=1.0, release=0):
    task = TaskSpec(name=name, arrival=UAMSpec(1, 1, critical),
                    tuf=StepTUF(critical_time=critical, height=height),
                    body=(Compute(compute),))
    return Job(task=task, jid=0, release_time=release)


class TestEDF:
    def test_orders_by_critical_time(self):
        a = _job("A", 3000)
        b = _job("B", 1000)
        c = _job("C", 2000)
        assert EDF().schedule([a, b, c], None, now=0) == [b, c, a]

    def test_deterministic_name_tiebreak(self):
        a = _job("A", 1000)
        b = _job("B", 1000)
        assert EDF().schedule([b, a], None, now=0) == [a, b]


class TestLLF:
    def test_orders_by_laxity(self):
        tight = _job("tight", critical=500, compute=400)    # laxity 100
        loose = _job("loose", critical=2000, compute=100)   # laxity 1900
        assert LLF().schedule([loose, tight], None, now=0) == [tight, loose]

    def test_laxity_changes_with_time(self):
        # As `now` advances, the idle job's laxity shrinks; the policy is
        # fully dynamic (paper Section 4.1).
        a = _job("A", critical=1000, compute=500)   # laxity 500 at t=0
        b = _job("B", critical=1200, compute=400)   # laxity 800 at t=0
        llf = LLF()
        assert llf.schedule([a, b], None, now=0)[0] is a
        # Let A execute 400: its laxity grows relative to B's.
        a.advance(400)
        order = llf.schedule([a, b], None, now=400)
        # laxity(A) = (1000-400) - 100 = 500; laxity(B) = 800 - 400 = 400.
        assert order[0] is b


class TestLockFreeRUA:
    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("n_jobs", [0, 2])
    def test_lock_manager_rejected(self, monkeypatch, reference, n_jobs):
        """Handing lock-free RUA a lock manager is a misuse, refused on
        the fast and the reference path, and before the empty-pass
        shortcut."""
        if reference:
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        jobs = [_job(f"J{i}", 1000 * (i + 1)) for i in range(n_jobs)]
        with pytest.raises(ValueError, match="lock-based sharing"):
            LockFreeRUA().schedule(jobs, LockManager(), now=0)

    def test_underload_matches_edf_order(self):
        jobs = [_job("A", 3000), _job("B", 1000), _job("C", 2000)]
        rua = LockFreeRUA()
        assert rua.schedule(jobs, None, now=0) == EDF().schedule(
            jobs, None, now=0)

    def test_overload_favors_importance_over_urgency(self):
        # Urgent-but-unimportant vs less-urgent-but-important; only one
        # fits.  RUA keeps the high-utility job, EDF would doom both.
        urgent = _job("urgent", critical=100, compute=90, height=1.0)
        important = _job("important", critical=110, compute=90, height=10.0)
        schedule = LockFreeRUA().schedule([urgent, important], None, now=0)
        assert schedule == [important]

    def test_rejects_lock_view(self):
        with pytest.raises(ValueError, match="must not be used"):
            LockFreeRUA().schedule([], LockManager(), now=0)

    def test_infeasible_jobs_dropped(self):
        too_late = _job("late", critical=50, compute=100)
        fine = _job("fine", critical=500, compute=100)
        schedule = LockFreeRUA().schedule([too_late, fine], None, now=0)
        assert schedule == [fine]


class TestLockBasedRUA:
    def test_without_locks_matches_lockfree_variant(self):
        jobs = [_job("A", 3000), _job("B", 1000), _job("C", 2000)]
        lb = LockBasedRUA().schedule(jobs, None, now=0)
        lf = LockFreeRUA().schedule(jobs, None, now=0)
        assert lb == lf

    def test_dependent_chain_scheduled_together(self):
        locks = LockManager()
        holder_task = TaskSpec(
            name="H", arrival=UAMSpec(1, 1, 10_000),
            tuf=StepTUF(critical_time=9_000),
            body=(ObjectAccess(obj="q", duration=500), Compute(100)),
        )
        holder = Job(task=holder_task, jid=0, release_time=0)
        locks.try_acquire(holder, "q")
        holder.holds_lock = "q"
        waiter_task = TaskSpec(
            name="W", arrival=UAMSpec(1, 1, 10_000),
            tuf=StepTUF(critical_time=1_000),
            body=(ObjectAccess(obj="q", duration=100), Compute(10)),
        )
        waiter = Job(task=waiter_task, jid=0, release_time=0)
        schedule = LockBasedRUA().schedule([waiter, holder], locks, now=0)
        # Holder inherits the waiter's earlier critical time and runs
        # first (Figure 4 Case 2).
        assert schedule.index(holder) < schedule.index(waiter)

    def test_deadlock_victim_requested(self):
        locks = LockManager(allow_nesting=True)
        def nested_job(name, first, second, height):
            task = TaskSpec(
                name=name, arrival=UAMSpec(1, 1, 10_000),
                tuf=StepTUF(critical_time=9_000, height=height),
                body=(ObjectAccess(obj=first, duration=100),
                      ObjectAccess(obj=second, duration=100)),
            )
            return Job(task=task, jid=0, release_time=0)
        a = nested_job("A", "R1", "R2", height=9.0)
        b = nested_job("B", "R2", "R1", height=1.0)
        for job, obj in ((a, "R1"), (b, "R2")):
            locks.try_acquire(job, obj)
            job.holds_lock = obj
            job.segment_index = 1
        policy = LockBasedRUA()
        schedule = policy.schedule([a, b], locks, now=0)
        victims = policy.consume_abort_requests()
        assert victims == [b]
        assert b not in schedule
        # Second consume is empty (requests are drained).
        assert policy.consume_abort_requests() == []

    def test_detection_can_be_disabled(self):
        policy = LockBasedRUA(detect_deadlocks=False)
        assert not policy.detect_deadlocks


class TestCostModels:
    def test_default_cost_ordering(self):
        n = 12
        assert (LockBasedRUA().cost_model.cost(n)
                > LockFreeRUA().cost_model.cost(n)
                > EDF().cost_model.cost(n))
