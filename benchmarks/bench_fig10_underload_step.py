"""Figure 10 — AUR/CMR during underload (AL ≈ 0.4), step TUFs, vs number
of shared objects accessed per job.

Paper shape: lock-free stays near 100 % at every object count;
lock-based degrades as contention grows.
"""

from repro.experiments.figures import fig10
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig10_underload_step(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig10(repeats=3, horizon=100 * MS,
                      objects=tuple(range(1, 11)),
                      campaign=campaign_config("fig10_underload_step")),
    )
    save_figure("fig10_underload_step", result.render())
    by_label = {s.label: s for s in result.series}
    assert all(v > 0.95 for v in by_label["AUR lock-free"].means())
    assert all(v > 0.95 for v in by_label["CMR lock-free"].means())
    # Lock-based never beats lock-free at the contended end.
    assert (by_label["AUR lock-free"].means()[-1]
            >= by_label["AUR lock-based"].means()[-1] - 0.02)
