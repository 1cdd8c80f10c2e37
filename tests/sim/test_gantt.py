"""Tests for the ASCII Gantt renderer."""

import pytest

from repro.sim.gantt import execution_runs, render_gantt
from repro.sim.kernel import SyncMode
from repro.units import US
from tests.helpers import run_scenario, simple_task, zero_cost_policy


def _preemption_scenario():
    long = simple_task("L", critical_us=50_000, compute_us=10_000,
                       window_us=60_000)
    short = simple_task("S", critical_us=2_000, compute_us=500,
                        window_us=60_000)
    return run_scenario([long, short], [[0], [1_000]], horizon_us=60_000)


class TestExecutionRuns:
    def test_single_job_one_run(self):
        task = simple_task("T", critical_us=10_000, compute_us=1_000)
        kernel, _ = run_scenario([task], [[0]], horizon_us=20_000)
        runs = execution_runs(kernel.obs, horizon=20_000 * US)
        assert len(runs) == 1
        assert runs[0].job == "T#0"
        assert runs[0].end - runs[0].start == 1_000 * US

    def test_preempted_job_splits_into_two_runs(self):
        kernel, _ = _preemption_scenario()
        runs = execution_runs(kernel.obs, horizon=60_000 * US)
        long_runs = [r for r in runs if r.job == "L#0"]
        short_runs = [r for r in runs if r.job == "S#0"]
        assert len(long_runs) == 2
        assert len(short_runs) == 1
        # The short job's run nests between the long job's two runs.
        assert long_runs[0].end <= short_runs[0].start
        assert short_runs[0].end <= long_runs[1].start

    def test_job_running_at_the_horizon_runs_to_it(self):
        task = simple_task("T", critical_us=50_000, compute_us=40_000,
                           window_us=60_000)
        kernel, _ = run_scenario([task], [[0]], horizon_us=10_000)
        runs = execution_runs(kernel.obs, horizon=10_000 * US)
        assert [(r.job, r.start, r.end) for r in runs] == [
            ("T#0", 0, 10_000 * US)]

    def test_total_run_time_equals_work_done(self):
        kernel, result = _preemption_scenario()
        runs = execution_runs(kernel.obs, horizon=60_000 * US)
        busy = sum(r.end - r.start for r in runs)
        assert busy == (10_000 + 500) * US


class TestRenderGantt:
    def test_lanes_for_every_job(self):
        kernel, _ = _preemption_scenario()
        text = render_gantt(kernel.obs, horizon=60_000 * US)
        assert "L#0" in text and "S#0" in text
        lanes = {line.split()[0]: line.split()[1]
                 for line in text.splitlines()[1:]}
        assert "#" in lanes["L#0"]
        assert "#" in lanes["S#0"]

    def test_abort_marker(self):
        doomed = simple_task("D", critical_us=1_000, compute_us=5_000,
                             window_us=10_000)
        kernel, _ = run_scenario([doomed], [[0]], horizon_us=10_000)
        text = render_gantt(kernel.obs, horizon=10_000 * US)
        assert "!" in text

    def test_retry_marker(self):
        long = simple_task("L", critical_us=50_000, compute_us=100,
                           accesses=[(0, 3_000)], window_us=60_000)
        short = simple_task("S", critical_us=3_000, compute_us=100,
                            accesses=[(0, 200)], window_us=60_000)
        kernel, _ = run_scenario(
            [long, short], [[0], [1_000]], sync=SyncMode.LOCK_FREE,
            policy=zero_cost_policy("rua-lockfree"), horizon_us=60_000)
        text = render_gantt(kernel.obs, horizon=60_000 * US)
        assert "*" in text

    def test_parameter_validation(self):
        kernel, _ = _preemption_scenario()
        with pytest.raises(ValueError):
            render_gantt(kernel.obs, horizon=0)
        with pytest.raises(ValueError):
            render_gantt(kernel.obs, horizon=100, width=4)
