"""Figure 11 — AUR/CMR during underload (AL ≈ 0.4), heterogeneous TUFs
(step + parabolic + linear-decreasing), vs number of shared objects.

Paper shape: as Figure 10 — lock-free near 100 %, lock-based degraded by
contention; non-step TUFs make AUR slightly below CMR (a met critical
time no longer implies full utility).
"""

from repro.experiments.figures import fig11
from repro.units import MS

from conftest import (
    campaign_config,
    run_once_benchmark,
    save_figure,
)


def test_fig11_underload_hetero(benchmark):
    result = run_once_benchmark(
        benchmark,
        lambda: fig11(repeats=3, horizon=100 * MS,
                      objects=tuple(range(1, 11)),
                      campaign=campaign_config("fig11_underload_hetero")),
    )
    save_figure("fig11_underload_hetero", result.render())
    by_label = {s.label: s for s in result.series}
    assert all(v > 0.95 for v in by_label["CMR lock-free"].means())
    assert all(v > 0.85 for v in by_label["AUR lock-free"].means())
    # Decaying TUFs: AUR <= CMR pointwise for both variants.
    for tag in ("lock-free", "lock-based"):
        for aur, cmr in zip(by_label[f"AUR {tag}"].means(),
                            by_label[f"CMR {tag}"].means()):
            assert aur <= cmr + 1e-9
