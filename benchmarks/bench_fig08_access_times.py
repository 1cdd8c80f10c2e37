"""Figure 8 — lock-based (r) vs lock-free (s) object access time under an
increasing number of shared objects accessed per job.

Paper shape: r is significantly larger than s; r grows with the object
count (it includes lock-based RUA's resource-sharing mechanism); s stays
flat at a few microseconds.
"""

from repro.experiments.figures import fig8
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig8_access_times(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig8(repeats=3, horizon=100 * MS,
                     objects=tuple(range(1, 11)),
                     campaign=campaign_config("fig08_access_times")),
    )
    save_figure("fig08_access_times", result.render())
    r_series, s_series = result.series
    # Shape assertions: r >> s everywhere; s flat within 2x; r at 10
    # objects at least as large as at 1.
    for r_est, s_est in zip(r_series.estimates, s_series.estimates):
        assert r_est.mean > 2 * s_est.mean
    assert max(s_series.means()) < 2 * min(s_series.means())
    assert r_series.means()[-1] >= r_series.means()[0] * 0.8
