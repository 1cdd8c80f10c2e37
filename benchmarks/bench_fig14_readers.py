"""Figure 14 — AUR/CMR under an increasing number of reader tasks,
heterogeneous TUFs, AL growing from ~0.1 toward ~1.1 with the task count.

Paper shape: the same trends as the object sweeps — lock-free superior
throughout, lock-based degrading as load/contention grows.
"""

from repro.experiments.figures import fig14
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig14_readers(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig14(repeats=3, horizon=100 * MS,
                      readers=tuple(range(1, 10)),
                      campaign=campaign_config("fig14_readers")),
    )
    save_figure("fig14_readers", result.render())
    by_label = {s.label: s for s in result.series}
    lf_aur = by_label["AUR lock-free"].means()
    lb_aur = by_label["AUR lock-based"].means()
    # Lock-free at least matches lock-based at every reader count and
    # wins clearly at the heavy end.
    assert all(lf >= lb - 0.03 for lf, lb in zip(lf_aur, lb_aur))
    assert lf_aur[-1] > lb_aur[-1]
