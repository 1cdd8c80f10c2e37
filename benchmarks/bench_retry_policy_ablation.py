"""Ablation — retry policy: ON_CONFLICT (realistic, restart only on a
conflicting commit) vs ON_PREEMPTION (conservative, restart on any
preemption, the accounting of Theorem 2's proof).

Both must respect the Theorem 2 bound; ON_PREEMPTION retries at least as
often, costing some AUR at high load.  This quantifies how much slack the
conservative analysis leaves on realistic workloads.
"""

from repro.experiments.report import format_scalar_rows
from repro.experiments.runner import run_many
from repro.experiments.workloads import BuilderSpec
from repro.sim.objects import RetryPolicy
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def _campaign():
    build = BuilderSpec.make("interference")
    seeds = [77 + k for k in range(3)]
    out = {}
    for policy in (RetryPolicy.ON_CONFLICT, RetryPolicy.ON_PREEMPTION):
        results = run_many(build, "lockfree", 200 * MS, seeds,
                           arrival_style="bursty", retry_policy=policy,
                           campaign=campaign_config(f"ablation_retry_{policy.name.lower()}"))
        out[policy] = (
            sum(r.total_retries for r in results) / len(results),
            sum(r.aur for r in results) / len(results),
        )
    return out


def test_retry_policy_ablation(benchmark):
    out = run_once_benchmark(benchmark, _campaign)
    conflict_retries, conflict_aur = out[RetryPolicy.ON_CONFLICT]
    preempt_retries, preempt_aur = out[RetryPolicy.ON_PREEMPTION]
    text = format_scalar_rows("Ablation: lock-free retry policy", [
        ("ON_CONFLICT mean retries/run", f"{conflict_retries:.1f}"),
        ("ON_CONFLICT mean AUR", f"{conflict_aur:.3f}"),
        ("ON_PREEMPTION mean retries/run", f"{preempt_retries:.1f}"),
        ("ON_PREEMPTION mean AUR", f"{preempt_aur:.3f}"),
    ])
    save_figure("ablation_retry_policy", text)
    assert preempt_retries >= conflict_retries
    assert preempt_retries > 0
    assert preempt_aur <= conflict_aur + 0.02
