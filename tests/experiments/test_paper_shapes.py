"""Paper-claim acceptance tests.

Each figure and theorem campaign of the evaluation runs once, at the
settings of its ``scripts/make_experiments_md.py`` command (the table
EXPERIMENTS.md records), and every paper claim the figure checks on its
own data must pass.  The claim count per figure is pinned, so a dropped
claim fails here too.  ``python -m repro figure NAME`` prints the same
verdicts.

The last three tests pin claims no figure's campaign covers: Theorem 2
per job, the retry/blocking split between the sharing styles, and the
scheduler-overhead gap.
"""

import random

import pytest

from repro.analysis.retry_bound import retry_bound_for_taskset
from repro.experiments import figures
from repro.experiments.runner import run_many, run_once
from repro.experiments.workloads import paper_taskset
from repro.sim.objects import RetryPolicy
from repro.units import MS


pytestmark = pytest.mark.slow  # deselect with -m "not slow" for quick runs

HORIZON = 100 * MS

#: name -> (figure function, make_experiments_md.py settings, claims).
FIGURES = {
    "fig8": (figures.fig8, {"repeats": 3, "horizon": HORIZON}, 3),
    "fig9": (figures.fig9, {"repeats": 1}, 5),
    "fig10": (figures.fig10, {"repeats": 3, "horizon": HORIZON}, 3),
    "fig11": (figures.fig11, {"repeats": 3, "horizon": HORIZON}, 3),
    "fig12": (figures.fig12, {"repeats": 4, "horizon": HORIZON}, 4),
    "fig13": (figures.fig13, {"repeats": 4, "horizon": HORIZON}, 3),
    "fig14": (figures.fig14, {"repeats": 3, "horizon": HORIZON}, 2),
    "thm2": (figures.thm2_validation,
             {"repeats": 4, "horizon": 300 * MS}, 2),
    "thm3": (figures.thm3_sojourn, {"repeats": 3, "horizon": HORIZON}, 3),
    "lemma45": (figures.lemma45_validation,
                {"repeats": 4, "horizon": 200 * MS}, 4),
    "ablation": (figures.retry_policy_ablation,
                 {"repeats": 3, "horizon": 200 * MS}, 3),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_every_claim_passes(name):
    fn, settings, count = FIGURES[name]
    result = fn(**settings)
    verdicts = [claim.render() for claim in result.claims]
    assert len(verdicts) == count, verdicts
    assert result.passed, "\n".join(verdicts)
    assert result.render().endswith("\n".join(verdicts))


def _seeds(n, base=0):
    return [base + k for k in range(n)]


def _mean(values):
    return sum(values) / len(values)


class TestRetryBoundClaim:
    """Theorem 2 holds for every job in an adversarial campaign."""

    def test_bound_never_violated(self):
        rng = random.Random(5)
        tasks = paper_taskset(rng, accesses_per_job=6, target_load=1.0,
                              max_arrivals=2)
        bounds = {task.name: retry_bound_for_taskset(tasks, i)
                  for i, task in enumerate(tasks)}
        for seed in _seeds(3):
            result = run_once(tasks, "lockfree", HORIZON,
                              random.Random(seed), arrival_style="bursty",
                              retry_policy=RetryPolicy.ON_PREEMPTION)
            for record in result.records:
                assert record.retries <= bounds[record.task_name]


class TestBlockingVsRetryTradeoff:
    """Section 5's qualitative tradeoff: lock-based suffers blocking
    (dependency waits), lock-free suffers retries."""

    def test_retries_only_under_lockfree_blockwaits_only_under_lockbased(self):
        def build(rng):
            return paper_taskset(rng, accesses_per_job=8, target_load=0.9)
        lockfree = run_many(build, "lockfree", HORIZON, _seeds(2))
        lockbased = run_many(build, "lockbased", HORIZON, _seeds(2))
        assert all(r.total_blockings == 0 for r in lockfree)
        assert all(r.total_retries == 0 for r in lockbased)


class TestSchedulerCostClaim:
    """Lock-free RUA spends far less simulated scheduler time than
    lock-based RUA on the same workload (Sections 3.6 / 5)."""

    def test_overhead_time_ratio(self):
        def build(rng):
            return paper_taskset(rng, accesses_per_job=5, target_load=0.7)
        lockfree = run_many(build, "lockfree", HORIZON, _seeds(2))
        lockbased = run_many(build, "lockbased", HORIZON, _seeds(2))
        lf = _mean([r.scheduler_overhead_time for r in lockfree])
        lb = _mean([r.scheduler_overhead_time for r in lockbased])
        assert lb > 2 * lf
