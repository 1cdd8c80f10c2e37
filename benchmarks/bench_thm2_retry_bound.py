"""Theorem 2 — the lock-free retry bound under the UAM.

Regenerates the validation the paper performs implicitly ("our
implementation measurements strongly validate our analytical results"):
adversarial bursty UAM arrivals under lock-free RUA, per-task maximum
observed per-job retries against the analytical bound
``f_i <= 3 a_i + sum 2 a_j (ceil(C_i/W_j) + 1)``.
"""

from repro.experiments.figures import thm2_validation
from repro.sim.objects import RetryPolicy
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_thm2_retry_bound(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: thm2_validation(repeats=4, horizon=300 * MS,
                                retry_policy=RetryPolicy.ON_PREEMPTION,
                                campaign=campaign_config("thm2_retry_bound")),
    )
    save_figure("thm2_retry_bound", result.render())
    measured, bound = result.series
    for m, b in zip(measured.estimates, bound.estimates):
        assert m.mean <= b.mean, "Theorem 2 bound violated"
    # The bound is not vacuous: interference does happen.
    assert max(e.mean for e in measured.estimates) > 0
