"""Figure 9 — Critical-time-Miss Load vs average job execution time for
ideal, lock-free and lock-based RUA.

Paper shape: lock-free tracks ideal closely and reaches CML ~1 near 10 µs
average execution time; lock-based converges to 1 only near 1 ms.
"""

from repro.experiments.figures import fig9

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig9_cml(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig9(repeats=1, exec_times_us=(10, 30, 100, 300, 1000),
                     windows_per_run=25, bisect_iterations=5,
                     campaign=campaign_config("fig09_cml")),
    )
    save_figure("fig09_cml", result.render())
    by_label = {s.label: s for s in result.series}
    ideal = by_label["CML ideal"].means()
    lockfree = by_label["CML lockfree"].means()
    lockbased = by_label["CML lockbased"].means()
    # Lock-free tracks ideal within a small margin at every exec time.
    assert all(lf >= i - 0.15 for lf, i in zip(lockfree, ideal))
    # Lock-based starts far below and converges by the 1 ms point.
    assert lockbased[0] < 0.5
    assert lockbased[-1] > 0.8
    # Monotone improvement with execution time for lock-based.
    assert lockbased == sorted(lockbased)
