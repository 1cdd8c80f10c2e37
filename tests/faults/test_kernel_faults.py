"""Kernel-level fault injection: each injector family end to end, plus
the acceptance criterion that a seeded faulted run replays exactly."""

from repro.arrivals.validate import check_uam
from repro.faults.degradation import AdmissionPolicy, RetryGuard, ShedMode
from repro.faults.plan import (
    ArrivalBurst,
    CostJitter,
    FaultPlan,
    SegmentOverrun,
    TimerFault,
)
from repro.obs import Observer
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.overheads import KernelCosts
from repro.units import US
from tests.helpers import instants, simple_task, zero_cost_policy


def _run(tasks, traces_us, horizon_us=100_000, sync=SyncMode.NONE,
         policy_kind="edf", costs=None, **fault_kwargs):
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=[[t * US for t in trace] for trace in traces_us],
        policy=zero_cost_policy(policy_kind),
        horizon=horizon_us * US,
        sync=sync,
        costs=costs or KernelCosts.ideal(),
        observer=Observer(),
        **fault_kwargs,
    )
    kernel = Kernel(config)
    return kernel, kernel.run()


class TestArrivalBursts:
    def _task(self):
        return simple_task("T", critical_us=1000, compute_us=100,
                           window_us=10_000)

    def test_burst_inflates_releases_without_admission(self):
        plan = FaultPlan(bursts=(ArrivalBurst(0, 2000 * US, count=2),))
        _, result = _run([self._task()], [[0]], fault_plan=plan)
        assert result.degradation.injected_arrivals == 2
        assert result.releases == 3

    def test_shed_mode_rejects_out_of_spec_arrivals(self):
        plan = FaultPlan(bursts=(ArrivalBurst(0, 2000 * US, count=2),))
        kernel, result = _run(
            [self._task()], [[0]], fault_plan=plan,
            admission=AdmissionPolicy(ShedMode.SHED))
        assert result.degradation.shed_jobs == 2
        assert result.releases == 1
        assert len(instants(kernel, "shed")) == 2

    def test_defer_mode_releases_later_and_conformantly(self):
        task = self._task()
        plan = FaultPlan(bursts=(ArrivalBurst(0, 2000 * US, count=2),))
        kernel, result = _run(
            [task], [[0]], horizon_us=40_000, fault_plan=plan,
            admission=AdmissionPolicy(ShedMode.DEFER))
        report = result.degradation
        assert report.shed_jobs == 0
        assert report.deferred_jobs >= 2
        assert report.deferred_delay_total > 0
        # Every injected job eventually runs, at UAM-conformant instants.
        assert result.releases == 3
        releases = sorted(r.release_time for r in result.records)
        assert releases == [0, 10_000 * US, 20_000 * US]
        assert check_uam(releases, task.arrival) == []
        assert instants(kernel, "defer")

    def test_burst_beyond_horizon_is_dropped(self):
        plan = FaultPlan(bursts=(ArrivalBurst(0, 200_000 * US, count=3),))
        _, result = _run([self._task()], [[0]], fault_plan=plan)
        assert result.degradation.injected_arrivals == 0
        assert result.releases == 1


class TestOverruns:
    def test_overrun_delays_completion(self):
        task = simple_task("T", critical_us=10_000, compute_us=100)
        baseline_plan = FaultPlan()
        plan = FaultPlan(overruns=(SegmentOverrun(task="T", extra=500 * US),))
        _, base = _run([task], [[0]], monitors=True,
                       fault_plan=baseline_plan)
        kernel, faulted = _run([task], [[0]], fault_plan=plan)
        assert base.records[0].completion_time == 100 * US
        assert faulted.records[0].completion_time == 600 * US
        assert faulted.degradation.injected_overruns == 1
        assert instants(kernel, "fault")

    def test_overrun_applies_once_per_job_segment(self):
        task = simple_task("T", critical_us=1000, compute_us=100,
                           window_us=10_000)
        plan = FaultPlan(overruns=(
            SegmentOverrun(task="T", extra=50 * US, segment_index=0),))
        _, result = _run([task], [[0, 10_000, 20_000]],
                         horizon_us=40_000, fault_plan=plan)
        # One overrun per job instance of segment 0, not one per tick.
        assert result.degradation.injected_overruns == 3
        assert all(r.completion_time - r.release_time == 150 * US
                   for r in result.records)


class TestSpuriousRetries:
    def _tasks(self):
        # L's access is on object 0; the interferers touch object 1 only,
        # so under ON_CONFLICT L never retries without the fault plan.
        long = simple_task("L", critical_us=50_000, compute_us=100,
                           accesses=[(0, 3000)], window_us=60_000)
        d1 = simple_task("D1", critical_us=3000, compute_us=100,
                         accesses=[(1, 200)], window_us=60_000)
        d2 = simple_task("D2", critical_us=4000, compute_us=100,
                         accesses=[(1, 200)], window_us=60_000)
        return [long, d1, d2]

    def test_forced_invalidation_causes_retries(self):
        plan = FaultPlan.retry_storm(0, times_per_task=5,
                                     task_names=["L"])
        kernel, result = _run(
            self._tasks(), [[0], [1000], [2000]], horizon_us=60_000,
            sync=SyncMode.LOCK_FREE, policy_kind="rua-lockfree",
            fault_plan=plan)
        by_name = {r.task_name: r for r in result.records}
        assert result.degradation.forced_retries == 2
        assert by_name["L"].retries == 2
        assert len(instants(kernel, "retry")) == 2

    def test_without_plan_no_retries(self):
        _, result = _run(self._tasks(), [[0], [1000], [2000]],
                         horizon_us=60_000, sync=SyncMode.LOCK_FREE,
                         policy_kind="rua-lockfree", monitors=True)
        assert result.total_retries == 0
        assert result.degradation.ok

    def test_retry_guard_aborts_after_budget(self):
        plan = FaultPlan.retry_storm(0, times_per_task=5,
                                     task_names=["L"])
        _, result = _run(
            self._tasks(), [[0], [1000], [2000]], horizon_us=60_000,
            sync=SyncMode.LOCK_FREE, policy_kind="rua-lockfree",
            fault_plan=plan, retry_guard=RetryGuard(max_retries=1))
        by_name = {r.task_name: r for r in result.records}
        assert result.degradation.retry_aborts == 1
        assert by_name["L"].aborted
        assert by_name["L"].accrued_utility == 0.0
        # The interferers are untouched by L's degradation.
        assert not by_name["D1"].aborted and not by_name["D2"].aborted

    def test_backoff_time_is_charged_and_counted(self):
        plan = FaultPlan.retry_storm(0, times_per_task=5,
                                     task_names=["L"])
        guard = RetryGuard(max_retries=10, backoff_base=50 * US)
        _, result = _run(
            self._tasks(), [[0], [1000], [2000]], horizon_us=60_000,
            sync=SyncMode.LOCK_FREE, policy_kind="rua-lockfree",
            fault_plan=plan, retry_guard=guard)
        report = result.degradation
        # Two forced retries: backoff 50us then 100us (factor 2).
        assert report.backoff_time == 150 * US
        assert report.retry_aborts == 0


class TestTimerFaults:
    def _task(self):
        # Would normally be aborted at its 1 ms critical time, far short
        # of its 5 ms of compute.
        return simple_task("X", critical_us=1000, compute_us=5000)

    def test_abort_timer_fires_without_fault(self):
        _, result = _run([self._task()], [[0]], monitors=True)
        record = result.records[0]
        assert record.aborted and record.completion_time is None
        assert result.degradation.ok   # a timely abort is not a violation

    def test_dropped_timer_lets_job_run_past_abort_point(self):
        plan = FaultPlan(timer_faults=(TimerFault(task="X", drop=True),))
        kernel, result = _run([self._task()], [[0]], fault_plan=plan,
                              monitors=True)
        record = result.records[0]
        assert not record.aborted
        assert record.completion_time == 5000 * US
        report = result.degradation
        assert report.timer_faults == 1
        violations = report.violations_of("abort-point")
        assert len(violations) == 1
        assert violations[0].job == "X#0"
        assert instants(kernel, "fault")

    def test_delayed_timer_aborts_late_and_is_flagged(self):
        plan = FaultPlan(timer_faults=(
            TimerFault(task="X", delay=2000 * US),))
        _, result = _run([self._task()], [[0]], fault_plan=plan,
                         monitors=True)
        record = result.records[0]
        assert record.aborted
        report = result.degradation
        assert report.timer_faults == 1
        assert report.violations_of("abort-point")


class TestCostJitter:
    def test_jitter_perturbs_charges_deterministically(self):
        task = simple_task("T", critical_us=10_000, compute_us=100)
        plan = FaultPlan(seed=5, jitter=CostJitter(magnitude=0.5))

        def one():
            return _run([task], [[0]], fault_plan=plan,
                        costs=KernelCosts())[1]

        first, second = one(), one()
        assert first.degradation.jittered_charges > 0
        assert first.degradation == second.degradation
        assert first.records == second.records


class TestReplayDeterminism:
    def test_full_fault_plan_replays_identically(self):
        # The acceptance criterion: every injector family active at once,
        # two runs of the same config, bit-identical outcome and report.
        tasks = [
            simple_task("L", critical_us=50_000, compute_us=100,
                        accesses=[(0, 3000)], window_us=60_000),
            simple_task("D1", critical_us=3000, compute_us=100,
                        accesses=[(1, 200)], window_us=60_000),
            simple_task("D2", critical_us=4000, compute_us=100,
                        accesses=[(1, 200)], window_us=60_000),
        ]
        plan = FaultPlan(
            seed=21,
            overruns=(SegmentOverrun(task="D1", extra=40 * US),),
            bursts=(ArrivalBurst(1, 9000 * US, count=2),),
            spurious_retries=FaultPlan.retry_storm(
                21, times_per_task=3, task_names=["L"]).spurious_retries,
            timer_faults=(TimerFault(task="D2", jid=0, drop=True),),
            jitter=CostJitter(magnitude=0.3),
        )

        def one():
            return _run(tasks, [[0], [1000], [2000]], horizon_us=60_000,
                        sync=SyncMode.LOCK_FREE,
                        policy_kind="rua-lockfree", costs=KernelCosts(),
                        fault_plan=plan,
                        admission=AdmissionPolicy(ShedMode.SHED),
                        retry_guard=RetryGuard(max_retries=4),
                        monitors=True)[1]

        first, second = one(), one()
        assert first.records == second.records
        assert first.degradation == second.degradation
        assert first.degradation.faults_injected > 0
        assert first.aur == second.aur
        assert first.scheduler_overhead_time == second.scheduler_overhead_time

    def test_monitors_are_pure_observers(self):
        tasks = [simple_task("T", critical_us=10_000, compute_us=100,
                             accesses=[(0, 500)], window_us=20_000)]
        _, watched = _run(tasks, [[0, 20_000]], horizon_us=50_000,
                          sync=SyncMode.LOCK_FREE,
                          policy_kind="rua-lockfree", monitors=True)
        _, unwatched = _run(tasks, [[0, 20_000]], horizon_us=50_000,
                            sync=SyncMode.LOCK_FREE,
                            policy_kind="rua-lockfree")
        assert watched.records == unwatched.records
        assert watched.degradation.ok
        assert unwatched.degradation is None
