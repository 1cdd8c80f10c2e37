"""Figure 12 — AUR/CMR during overload (AL ≈ 1.1), step TUFs, vs number
of shared objects accessed per job.

Paper shape: lock-based AUR/CMR sharply decrease toward 0 % as objects
grow; lock-free holds, higher by as much as ~65 % AUR / ~80 % CMR.
"""

from repro.experiments.figures import fig12
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig12_overload_step(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig12(repeats=4, horizon=100 * MS,
                      objects=tuple(range(1, 11)),
                      campaign=campaign_config("fig12_overload_step")),
    )
    save_figure("fig12_overload_step", result.render())
    by_label = {s.label: s for s in result.series}
    lf_aur = by_label["AUR lock-free"].means()
    lb_aur = by_label["AUR lock-based"].means()
    # Collapse of lock-based with contention; wide lock-free margin at
    # the 10-object end (the paper's headline gap).
    assert lb_aur[-1] < lb_aur[0]
    assert lb_aur[-1] < 0.35
    assert lf_aur[-1] > lb_aur[-1] + 0.3
    assert (by_label["CMR lock-free"].means()[-1]
            > by_label["CMR lock-based"].means()[-1] + 0.3)
