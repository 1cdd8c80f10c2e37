"""Lemmas 4 and 5 — AUR bounds for lock-free and lock-based sharing.

Runs a feasible (underloaded) campaign with non-increasing TUFs and
checks the measured AUR of each sharing style against its analytical
interval.
"""

from repro.experiments.figures import lemma45_validation
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_lemma45_aur_bounds(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: lemma45_validation(repeats=4, horizon=200 * MS,
                      campaign=campaign_config("lemma45_aur_bounds")),
    )
    save_figure("lemma45_aur_bounds", result.render())
    # Series arrive in (lower, measured, upper) triples per lemma.
    for base in (0, 3):
        lower = result.series[base].estimates[0].mean
        measured = result.series[base + 1].estimates[0].mean
        upper = result.series[base + 2].estimates[0].mean
        assert lower - 0.02 <= measured <= upper + 0.02
