"""Figure 13 — AUR/CMR during overload (AL ≈ 1.1), heterogeneous TUFs,
vs number of shared objects accessed per job.

Paper shape: as Figure 12 — lock-based collapses with contention,
lock-free holds a wide margin.
"""

from repro.experiments.figures import fig13
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig13_overload_hetero(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig13(repeats=4, horizon=100 * MS,
                      objects=tuple(range(1, 11)),
                      campaign=campaign_config("fig13_overload_hetero")),
    )
    save_figure("fig13_overload_hetero", result.render())
    by_label = {s.label: s for s in result.series}
    lf_aur = by_label["AUR lock-free"].means()
    lb_aur = by_label["AUR lock-based"].means()
    assert lb_aur[-1] < lb_aur[0]
    assert lf_aur[-1] > lb_aur[-1] + 0.25
