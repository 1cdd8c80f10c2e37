"""End-to-end tests for nested critical sections and deadlock
resolution (paper Section 3.3).

Nesting is excluded from the paper's lock-based/lock-free comparisons
(Section 5), but it is part of RUA's definition; these tests drive the
whole path — held-across locks, a runtime deadlock, policy-initiated
victim abortion, rollback, and recovery of the survivor.
"""

import pytest

from repro.arrivals import UAMSpec
from repro.core.rua_lockbased import LockBasedRUA
from repro.obs import Observer
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.overheads import KernelCosts, ZeroCost
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tasks.segments import ReleaseLock
from repro.tuf import StepTUF
from repro.units import MS, US
from tests.helpers import instants, job_of


def _nested_task(name, first, second, critical_us, height=1.0,
                 hold_us=2_000):
    """compute, acquire `first` (held), compute, acquire `second`,
    release `first`, compute."""
    body = (
        Compute(100 * US),
        ObjectAccess(obj=first, duration=hold_us * US,
                     release_at_end=False),
        Compute(500 * US),
        ObjectAccess(obj=second, duration=200 * US),
        ReleaseLock(obj=first),
        Compute(100 * US),
    )
    return TaskSpec(
        name=name,
        arrival=UAMSpec(1, 1, 60 * MS),
        tuf=StepTUF(critical_time=critical_us * US, height=height),
        body=body,
    )


def _run(tasks, traces_us, horizon_us=60_000, detect=True):
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=[[t * US for t in trace] for trace in traces_us],
        policy=LockBasedRUA(cost_model=ZeroCost(),
                            detect_deadlocks=detect),
        horizon=horizon_us * US,
        sync=SyncMode.LOCK_BASED,
        costs=KernelCosts.ideal(),
        allow_nesting=True,
        observer=Observer(),
    )
    kernel = Kernel(config)
    return kernel, kernel.run()


class TestHeldAcrossLocks:
    def test_single_task_nested_body_completes(self):
        task = _nested_task("T", "A", "B", critical_us=50_000)
        kernel, result = _run([task], [[0]])
        assert result.records[0].met_critical_time
        acquires = instants(kernel, "lock_acquire")
        releases = instants(kernel, "lock_release")
        assert len(acquires) == 2
        assert len(releases) == 2

    def test_held_lock_blocks_competitor_until_explicit_release(self):
        holder = _nested_task("H", "A", "B", critical_us=50_000)
        competitor = TaskSpec(
            name="C",
            arrival=UAMSpec(1, 1, 60 * MS),
            tuf=StepTUF(critical_time=40 * MS),
            body=(Compute(10 * US), ObjectAccess(obj="A", duration=100 * US),
                  Compute(10 * US)),
        )
        kernel, result = _run([holder, competitor], [[0], [500]])
        by_name = {r.task_name: r for r in result.records}
        assert by_name["C"].met_critical_time
        # The competitor could only get A after the ReleaseLock, which
        # comes after H's inner B section (~2000+500+200 us of work).
        assert by_name["C"].completion_time > 2_700 * US


class TestRuntimeDeadlock:
    def _deadlock_pair(self):
        # A->B and B->A with staggered arrivals and an urgent second job
        # (earlier critical time => it preempts mid-outer-section):
        # a genuine runtime cycle.
        rich = _nested_task("rich", "A", "B", critical_us=50_000,
                            height=10.0)
        poor = _nested_task("poor", "B", "A", critical_us=10_000,
                            height=1.0)
        return rich, poor

    def test_deadlock_resolved_by_aborting_low_utility_job(self):
        rich, poor = self._deadlock_pair()
        # poor preempts rich inside rich's outer (held) section, grabs B,
        # then requests A; rich resumes and requests B: cycle closed.
        kernel, result = _run([rich, poor], [[0], [200]])
        by_name = {r.task_name: r for r in result.records}
        aborts = instants(kernel, "abort")
        # Exactly one of the two was sacrificed, and it is the
        # least-utility one; the survivor completes in time.
        assert len(aborts) == 1
        assert by_name["poor"].aborted
        assert by_name["rich"].met_critical_time

    def test_survivor_acquires_victims_lock_in_the_same_pass(self):
        # RUA schedules lock holders proactively (dependency chains), so
        # the survivor never literally blocks: the victim's rollback and
        # the survivor's acquisition happen in one scheduling pass.
        rich, poor = self._deadlock_pair()
        kernel, result = _run([rich, poor], [[0], [200]])
        by_name = {r.task_name: r for r in result.records}
        assert by_name["rich"].blockings == 0
        abort = instants(kernel, "abort")[0]
        acquire_b = [e for e in instants(kernel, "lock_acquire")
                     if job_of(e).startswith("rich")
                     and dict(e.args)["obj"] == "B"][0]
        assert abort.ts == acquire_b.ts

    def test_without_detection_resolution_waits_for_critical_time(self):
        # With detection disabled, the cycle persists until the victim's
        # own critical-time abort breaks it — the survivor completes far
        # later than under active resolution, and the rollback visibly
        # unblocks it.
        rich, poor = self._deadlock_pair()
        _, with_detection = _run([rich, poor], [[0], [200]])
        kernel, without = _run([rich, poor], [[0], [200]], detect=False)
        with_d = {r.task_name: r for r in with_detection.records}
        without_d = {r.task_name: r for r in without.records}
        assert without_d["poor"].aborted
        assert without_d["rich"].met_critical_time
        # poor's critical time is ~10 ms; detection resolves within ~6 ms.
        assert without_d["rich"].completion_time > 10_000 * US
        assert with_d["rich"].completion_time < 6_000 * US
        unblocks = instants(kernel, "unblock")
        assert any(job_of(e).startswith("rich") for e in unblocks)


class TestFastPathMatchesReferenceWithDeadlocks:
    """The fast path's no-edge shortcut and its victim path against the
    reference path, on three rounds of the deadlocking pair."""

    def _fingerprint(self, monkeypatch, *, reference):
        if reference:
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        rich = _nested_task("rich", "A", "B", critical_us=50_000,
                            height=10.0)
        poor = _nested_task("poor", "B", "A", critical_us=10_000)
        rounds_us = (0, 20_000, 40_000)
        config = SimulationConfig(
            tasks=[rich, poor],
            arrival_traces=[[t * US for t in rounds_us],
                            [(t + 200) * US for t in rounds_us]],
            # Built after the environment is set: the policy reads
            # REPRO_NO_FASTPATH once, at construction.
            policy=LockBasedRUA(cost_model=ZeroCost()),
            horizon=60 * MS,
            sync=SyncMode.LOCK_BASED,
            costs=KernelCosts.ideal(),
            allow_nesting=True,
            observer=Observer(),
        )
        result = Kernel(config).run()
        return {
            "records": tuple(result.records),
            "scheduler_invocations": result.scheduler_invocations,
            "victims": result.obs["counters"].get(
                "sched.deadlock_victims", 0),
            "chain_len": result.obs["histograms"].get("sched.chain_len"),
        }

    def test_fast_path_matches_reference(self, monkeypatch):
        fast = self._fingerprint(monkeypatch, reference=False)
        reference = self._fingerprint(monkeypatch, reference=True)
        assert fast == reference
        # Victims were chosen, and passes without edges (chain length 1)
        # ran beside passes with real chains.
        assert fast["victims"] >= 1
        assert fast["chain_len"]["min"] == 1
        assert fast["chain_len"]["max"] >= 2


class TestBodyValidation:
    def test_release_of_unheld_object_rejected(self):
        with pytest.raises(ValueError, match="not held"):
            TaskSpec(
                name="T", arrival=UAMSpec(1, 1, 1000),
                tuf=StepTUF(critical_time=1000),
                body=(Compute(10), ReleaseLock(obj="A")),
            )

    def test_unreleased_lock_rejected(self):
        with pytest.raises(ValueError, match="still held"):
            TaskSpec(
                name="T", arrival=UAMSpec(1, 1, 1000),
                tuf=StepTUF(critical_time=1000),
                body=(ObjectAccess(obj="A", duration=10,
                                   release_at_end=False),),
            )

    def test_reacquire_held_object_rejected(self):
        with pytest.raises(ValueError, match="re-acquiring"):
            TaskSpec(
                name="T", arrival=UAMSpec(1, 1, 1000),
                tuf=StepTUF(critical_time=1000),
                body=(ObjectAccess(obj="A", duration=10,
                                   release_at_end=False),
                      ObjectAccess(obj="A", duration=10),
                      ReleaseLock(obj="A")),
            )

    def test_release_lock_must_be_instantaneous(self):
        with pytest.raises(ValueError, match="instantaneous"):
            ReleaseLock(obj="A", duration=5)


class TestNestingUnderOtherSyncModes:
    def test_lockfree_treats_nested_body_as_plain_accesses(self):
        task = _nested_task("T", "A", "B", critical_us=50_000)
        config = SimulationConfig(
            tasks=[task], arrival_traces=[[0]],
            policy=__import__("repro.core.rua_lockfree",
                              fromlist=["LockFreeRUA"]).LockFreeRUA(
                cost_model=ZeroCost()),
            horizon=60 * MS, sync=SyncMode.LOCK_FREE,
            costs=KernelCosts.ideal(), observer=Observer(),
        )
        kernel = Kernel(config)
        result = kernel.run()
        assert result.records[0].met_critical_time
        # Both accesses committed; the ReleaseLock was a no-op.
        assert result.lockfree_access_commits == 2
        assert instants(kernel, "lock_release") == []
