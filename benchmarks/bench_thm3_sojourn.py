"""Theorem 3 — lock-based vs lock-free worst-case sojourn crossover.

Evaluates the analytical comparison over a parameter grid (both the
paper-stated thresholds and the exact proof-derived ones), then
instantiates the condition with the *measured* r and s from a Figure 8
style campaign, predicting — and checking against simulation — which
sharing style yields shorter sojourns.
"""

import random

from repro.analysis.sojourn import compare_sojourn
from repro.analysis.retry_bound import x_i as compute_x_i
from repro.experiments.report import format_scalar_rows
from repro.experiments.runner import run_many
from repro.experiments.workloads import (
    DEFAULT_ACCESS_DURATION,
    BuilderSpec,
    paper_taskset,
)
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def _campaign():
    build = BuilderSpec.make("paper", accesses_per_job=6, target_load=0.8)
    seeds = [300 + k for k in range(3)]
    lockbased = run_many(build, "lockbased", 100 * MS, seeds,
                         campaign=campaign_config("thm3_sojourn_lockbased"))
    lockfree = run_many(build, "lockfree", 100 * MS, seeds,
                        campaign=campaign_config("thm3_sojourn_lockfree"))
    r = DEFAULT_ACCESS_DURATION + (
        sum(x.mean_lock_mechanism_per_access or 0 for x in lockbased)
        / len(lockbased))
    s = DEFAULT_ACCESS_DURATION + (
        sum(x.mean_lockfree_mechanism_per_access or 0 for x in lockfree)
        / len(lockfree))
    lb_sojourn = sum(x.mean_sojourn() or 0 for x in lockbased) / len(lockbased)
    lf_sojourn = sum(x.mean_sojourn() or 0 for x in lockfree) / len(lockfree)
    # Instantiate the theorem for a representative task of the set.
    rng = random.Random(300)
    tasks = paper_taskset(rng, accesses_per_job=6, target_load=0.8)
    task = tasks[0]
    x = compute_x_i(0, tasks)
    n = 2 * task.arrival.max_arrivals + x
    comparison = compare_sojourn(
        u_i=task.compute_time, interference=0, r=r, s=s,
        m_i=task.access_count, n_i=n,
        a_i=task.arrival.max_arrivals, x_i=x)
    return r, s, comparison, lb_sojourn, lf_sojourn


def test_thm3_sojourn_crossover(benchmark):
    r, s, comparison, lb_sojourn, lf_sojourn = run_once_benchmark(
        benchmark, _campaign)
    text = format_scalar_rows("Theorem 3: sojourn comparison", [
        ("measured r [ns]", f"{r:.0f}"),
        ("measured s [ns]", f"{s:.0f}"),
        ("s/r", f"{comparison.ratio:.3f}"),
        ("paper threshold", f"{comparison.paper_threshold:.3f}"),
        ("exact threshold", f"{comparison.exact_threshold:.3f}"),
        ("predicted lock-free wins", str(comparison.predicted_lockfree_wins)),
        ("bound lock-based [ns]", f"{comparison.lockbased:.0f}"),
        ("bound lock-free [ns]", f"{comparison.lockfree:.0f}"),
        ("simulated mean sojourn lock-based [ns]", f"{lb_sojourn:.0f}"),
        ("simulated mean sojourn lock-free [ns]", f"{lf_sojourn:.0f}"),
    ])
    save_figure("thm3_sojourn", text)
    # Measured s/r is far below 2/3 (s << r on this workload), so the
    # theorem predicts lock-free wins — and the simulated sojourns agree.
    assert comparison.ratio < 2 / 3
    assert comparison.predicted_lockfree_wins
    assert comparison.lockfree < comparison.lockbased
    assert lf_sojourn < lb_sojourn
