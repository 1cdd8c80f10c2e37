"""Scenario tests for the simulated RTOS kernel."""

import pytest

from repro.sim.kernel import SimulationConfig, SyncMode
from repro.sim.objects import RetryPolicy
from repro.tuf import LinearDecreasingTUF
from repro.units import US
from tests.helpers import (
    instants,
    run_scenario,
    simple_task,
    zero_cost_policy,
)


class TestBasicExecution:
    def test_single_job_completes_with_full_utility(self):
        task = simple_task("T", critical_us=1000, compute_us=100)
        _, result = run_scenario([task], [[0]])
        assert len(result.records) == 1
        record = result.records[0]
        assert record.met_critical_time
        assert record.sojourn == 100 * US
        assert record.accrued_utility == 1.0
        assert result.aur == 1.0

    def test_two_jobs_run_to_completion_in_edf_order(self):
        short = simple_task("S", critical_us=500, compute_us=100)
        long = simple_task("L", critical_us=2000, compute_us=100)
        kernel, result = run_scenario([long, short], [[0], [0]])
        completions = {r.task_name: r.completion_time for r in result.records}
        assert completions["S"] < completions["L"]
        assert result.cmr == 1.0

    def test_linear_tuf_accrues_partial_utility(self):
        task = simple_task("T", critical_us=1000, compute_us=500,
                           tuf=LinearDecreasingTUF(critical_time=1000 * US))
        _, result = run_scenario([task], [[0]])
        assert result.records[0].accrued_utility == pytest.approx(0.5)

    def test_idle_gap_between_arrivals(self):
        task = simple_task("T", critical_us=1000, compute_us=100,
                           window_us=10_000)
        kernel, result = run_scenario([task], [[0, 10_000]],
                                      horizon_us=20_000)
        assert len(result.records) == 2
        assert instants(kernel, "idle")


class TestAbortion:
    def test_job_aborted_at_critical_time(self):
        # 2000us of work, critical time 1000us: cannot finish.
        task = simple_task("T", critical_us=1000, compute_us=2000,
                           window_us=3000)
        kernel, result = run_scenario([task], [[0]])
        record = result.records[0]
        assert record.aborted
        assert record.accrued_utility == 0.0
        aborts = instants(kernel, "abort")
        assert len(aborts) == 1
        assert aborts[0].ts == 1000 * US

    def test_abort_releases_held_lock(self):
        greedy = simple_task("G", critical_us=1000, compute_us=10,
                             accesses=[(0, 5000)], window_us=10_000)
        waiter = simple_task("W", critical_us=9000, compute_us=10,
                             accesses=[(0, 100)], window_us=10_000)
        _, result = run_scenario(
            [greedy, waiter], [[0], [100]], sync=SyncMode.LOCK_BASED,
            policy=zero_cost_policy("rua-lockbased"), horizon_us=20_000)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["G"].aborted
        assert by_name["W"].met_critical_time

    def test_abort_handler_time_delays_others(self):
        doomed = simple_task("D", critical_us=100, compute_us=5000,
                             window_us=10_000, handler_us=500)
        bystander = simple_task("B", critical_us=5000, compute_us=100,
                                window_us=10_000)
        # Bystander arrives exactly at the doomed job's abort instant.
        _, result = run_scenario([doomed, bystander], [[0], [100]],
                                 horizon_us=10_000)
        by_name = {r.task_name: r for r in result.records}
        # The 500us handler runs before the bystander's work.
        assert by_name["B"].completion_time >= (100 + 500 + 100) * US

    def test_stale_timer_after_completion_is_ignored(self):
        task = simple_task("T", critical_us=1000, compute_us=10)
        kernel, result = run_scenario([task], [[0]], horizon_us=5000)
        assert not result.records[0].aborted
        assert instants(kernel, "abort") == []


class TestPreemption:
    def test_later_shorter_job_preempts(self):
        long = simple_task("L", critical_us=50_000, compute_us=10_000,
                           window_us=60_000)
        short = simple_task("S", critical_us=2000, compute_us=500,
                            window_us=60_000)
        kernel, result = run_scenario([long, short], [[0], [1000]],
                                      horizon_us=60_000)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["S"].completion_time == (1000 + 500) * US
        assert by_name["L"].preemptions >= 1
        assert instants(kernel, "preempt")

    def test_preempted_compute_work_is_not_lost(self):
        long = simple_task("L", critical_us=50_000, compute_us=10_000,
                           window_us=60_000)
        short = simple_task("S", critical_us=2000, compute_us=500,
                            window_us=60_000)
        _, result = run_scenario([long, short], [[0], [1000]],
                                 horizon_us=60_000)
        by_name = {r.task_name: r for r in result.records}
        # Total work 10500us from t=0 with 500us of preemption in the
        # middle: completion exactly at 10500us (no work discarded).
        assert by_name["L"].completion_time == 10_500 * US


class TestLockBasedSharing:
    def test_lock_holder_scheduled_before_dependent(self):
        # RUA inserts the lock owner before the dependent (Figure 4).
        holder = simple_task("H", critical_us=40_000, compute_us=100,
                             accesses=[(0, 3000)], window_us=50_000)
        dependent = simple_task("D", critical_us=5000, compute_us=100,
                                accesses=[(0, 200)], window_us=50_000)
        kernel, result = run_scenario(
            [holder, dependent], [[0], [1000]], sync=SyncMode.LOCK_BASED,
            policy=zero_cost_policy("rua-lockbased"), horizon_us=50_000)
        assert result.cmr == 1.0
        # The dependent waited for the lock: its sojourn includes the
        # holder's critical section remainder.
        by_name = {r.task_name: r for r in result.records}
        assert by_name["D"].sojourn > (100 + 200) * US

    def test_edf_blocking_is_counted(self):
        holder = simple_task("H", critical_us=40_000, compute_us=100,
                             accesses=[(0, 3000)], window_us=50_000)
        dependent = simple_task("D", critical_us=5000, compute_us=100,
                                accesses=[(0, 200)], window_us=50_000)
        kernel, result = run_scenario(
            [holder, dependent], [[0], [1000]], sync=SyncMode.LOCK_BASED,
            policy=zero_cost_policy("edf"), horizon_us=50_000)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["D"].blockings >= 1
        assert any(span.name == "blocked:0" for span in kernel.obs.spans)
        assert instants(kernel, "unblock")

    def test_lock_acquire_release_traced(self):
        task = simple_task("T", critical_us=10_000, compute_us=100,
                           accesses=[(0, 50)])
        kernel, _ = run_scenario([task], [[0]], sync=SyncMode.LOCK_BASED,
                                 policy=zero_cost_policy("rua-lockbased"))
        assert len(instants(kernel, "lock_acquire")) == 1
        assert len(instants(kernel, "lock_release")) == 1


class TestLockFreeSharing:
    def _conflict_pair(self):
        long = simple_task("L", critical_us=50_000, compute_us=100,
                           accesses=[(0, 3000)], window_us=60_000)
        short = simple_task("S", critical_us=3000, compute_us=100,
                            accesses=[(0, 200)], window_us=60_000)
        return long, short

    def test_conflicting_commit_forces_retry(self):
        long, short = self._conflict_pair()
        kernel, result = run_scenario(
            [long, short], [[0], [1000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["L"].retries == 1
        assert by_name["S"].retries == 0
        assert instants(kernel, "retry")
        assert result.cmr == 1.0

    def test_read_does_not_invalidate_writer(self):
        from repro.tasks.segments import AccessKind
        long, _ = self._conflict_pair()
        reader = simple_task("R", critical_us=3000, compute_us=100,
                             accesses=[(0, 200)], window_us=60_000,
                             kind=AccessKind.READ)
        _, result = run_scenario(
            [long, reader], [[0], [1000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["L"].retries == 0

    def test_on_preemption_policy_retries_without_conflict(self):
        long = simple_task("L", critical_us=50_000, compute_us=100,
                           accesses=[(0, 3000)], window_us=60_000)
        disjoint = simple_task("S", critical_us=3000, compute_us=100,
                               accesses=[(1, 200)], window_us=60_000)
        _, result = run_scenario(
            [long, disjoint], [[0], [1000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000,
            retry_policy=RetryPolicy.ON_PREEMPTION)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["L"].retries == 1

    def test_on_conflict_policy_spares_disjoint_objects(self):
        long = simple_task("L", critical_us=50_000, compute_us=100,
                           accesses=[(0, 3000)], window_us=60_000)
        disjoint = simple_task("S", critical_us=3000, compute_us=100,
                               accesses=[(1, 200)], window_us=60_000)
        _, result = run_scenario(
            [long, disjoint], [[0], [1000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000,
            retry_policy=RetryPolicy.ON_CONFLICT)
        by_name = {r.task_name: r for r in result.records}
        assert by_name["L"].retries == 0

    def test_retry_wastes_time_but_work_completes(self):
        long, short = self._conflict_pair()
        _, result = run_scenario(
            [long, short], [[0], [1000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000)
        by_name = {r.task_name: r for r in result.records}
        # L: 100 compute + started access at 100, preempted at 1000
        # (900 wasted), S runs 100+200+? ... L restarts the 3000us access
        # after S completes at 1300us, finishing at 1300+3000.
        assert by_name["L"].completion_time == (1300 + 3000) * US


class TestSyncModeNone:
    def test_access_segments_run_as_compute(self):
        task = simple_task("T", critical_us=10_000, compute_us=100,
                           accesses=[(0, 500)])
        kernel, result = run_scenario([task], [[0]], sync=SyncMode.NONE)
        assert result.records[0].sojourn == 600 * US
        assert instants(kernel, "lock_acquire") == []
        assert instants(kernel, "retry") == []


class TestHorizon:
    def test_unfinished_jobs_counted(self):
        task = simple_task("T", critical_us=90_000, compute_us=50_000,
                           window_us=100_000)
        _, result = run_scenario([task], [[0]], horizon_us=10_000)
        assert result.unfinished == 1
        assert result.records == []

    def test_arrivals_beyond_horizon_dropped(self):
        task = simple_task("T", critical_us=1000, compute_us=10,
                           window_us=2000)
        with pytest.warns(RuntimeWarning, match="beyond the horizon"):
            _, result = run_scenario([task], [[0, 2000, 4000, 999_000]],
                                     horizon_us=5000)
        assert len(result.records) == 3


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        tasks = [
            simple_task("A", critical_us=5000, compute_us=700,
                        accesses=[(0, 100)], window_us=6000),
            simple_task("B", critical_us=3000, compute_us=400,
                        accesses=[(0, 100)], window_us=6000),
        ]
        outcomes = []
        for _ in range(2):
            _, result = run_scenario(
                tasks, [[0, 6000], [500, 6500]], sync=SyncMode.LOCK_FREE,
                policy=zero_cost_policy("rua-lockfree"), horizon_us=15_000)
            outcomes.append([
                (r.task_name, r.completion_time, r.retries)
                for r in result.records
            ])
        assert outcomes[0] == outcomes[1]


class TestConfigValidation:
    def test_trace_count_must_match_tasks(self):
        task = simple_task("T", critical_us=1000, compute_us=10)
        with pytest.raises(ValueError, match="one arrival trace per task"):
            SimulationConfig(tasks=[task], arrival_traces=[],
                             policy=zero_cost_policy("edf"), horizon=1000)

    def test_horizon_must_be_positive(self):
        task = simple_task("T", critical_us=1000, compute_us=10)
        with pytest.raises(ValueError, match="horizon"):
            SimulationConfig(tasks=[task], arrival_traces=[[0]],
                             policy=zero_cost_policy("edf"), horizon=0)

    def test_kernel_runs_once(self):
        task = simple_task("T", critical_us=1000, compute_us=10)
        kernel, first = run_scenario([task], [[0]])
        # The error names the original horizon, and the rejection leaves
        # the completed run's result untouched.
        with pytest.raises(RuntimeError,
                           match=r"exactly once.*horizon=100000000"):
            kernel.run()
        assert len(first.records) == 1

    def test_unsorted_trace_rejected(self):
        task = simple_task("T", critical_us=1000, compute_us=10,
                           window_us=10_000)
        with pytest.raises(ValueError, match="task 0 is not sorted"):
            run_scenario([task], [[5000, 0]])

    def test_negative_release_rejected(self):
        task = simple_task("T", critical_us=1000, compute_us=10,
                           window_us=10_000)
        with pytest.raises(ValueError, match="negative release"):
            run_scenario([task], [[-3]])


class TestNoReferenceCycles:
    """A finished kernel is freed by reference counting alone.  Anything
    that ties a kernel into a cycle (say, a per-instance table of bound
    methods) keeps every finished kernel alive until the cyclic garbage
    collector runs, which shows up as peak memory in long batches."""

    @pytest.mark.parametrize("sync", ["lockfree", "lockbased"])
    def test_kernel_dies_with_its_summary(self, sync, monkeypatch):
        import gc
        import weakref

        from repro.api import quick_scenario, simulate
        from repro.sim.kernel import Kernel

        kernels = []
        run = Kernel.run

        def recording_run(kernel):
            kernels.append(weakref.ref(kernel))
            return run(kernel)

        monkeypatch.setattr(Kernel, "run", recording_run)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            summary = simulate(quick_scenario(sync=sync, horizon_us=20_000,
                                              seed=3))
            assert summary.result.records
            assert len(kernels) == 1
            del summary
            assert kernels[0]() is None
        finally:
            if was_enabled:
                gc.enable()
