"""Paper-shape acceptance tests: each figure and theorem campaign of the
evaluation at the settings EXPERIMENTS.md was first recorded with,
asserting the shape the paper reports (who wins, by roughly what
margin, where the knees fall).  ``python -m repro figure NAME`` renders
the same campaigns.
"""

import pytest

from repro.experiments import figures
from repro.units import MS


pytestmark = pytest.mark.slow  # deselect with -m "not slow" for quick runs

OBJECTS = tuple(range(1, 11))


def _means(result):
    return {s.label: s.means() for s in result.series}


def test_fig8_access_times():
    """r is significantly larger than s; r grows with the object count;
    s stays flat."""
    result = figures.fig8(repeats=3, horizon=100 * MS, objects=OBJECTS)
    assert "Figure 8" in result.render()
    r_series, s_series = result.series
    for r_est, s_est in zip(r_series.estimates, s_series.estimates):
        assert r_est.mean > 2 * s_est.mean
    assert max(s_series.means()) < 2 * min(s_series.means())
    assert r_series.means()[-1] >= r_series.means()[0] * 0.8


def test_fig9_cml():
    """Lock-free tracks ideal; lock-based converges to CML 1 only near
    1 ms of average execution time."""
    result = figures.fig9(repeats=1, exec_times_us=(10, 30, 100, 300, 1000),
                          windows_per_run=25, bisect_iterations=5)
    means = _means(result)
    ideal = means["CML ideal"]
    lockfree = means["CML lockfree"]
    lockbased = means["CML lockbased"]
    assert all(lf >= i - 0.15 for lf, i in zip(lockfree, ideal))
    assert lockbased[0] < 0.5
    assert lockbased[-1] > 0.8
    assert lockbased == sorted(lockbased)
    # The costly scheduler never beats ideal by more than noise.
    assert all(lb <= i + 0.1 for lb, i in zip(lockbased, ideal))


def test_fig10_underload_step():
    """Underload, step TUFs: lock-free stays near 100 %."""
    means = _means(figures.fig10(repeats=3, horizon=100 * MS,
                                 objects=OBJECTS))
    assert all(v > 0.95 for v in means["AUR lock-free"])
    assert all(v > 0.95 for v in means["CMR lock-free"])
    assert (means["AUR lock-free"][-1]
            >= means["AUR lock-based"][-1] - 0.02)


def test_fig11_underload_hetero():
    """Underload, heterogeneous TUFs: as Figure 10, and a decaying TUF
    makes AUR at most CMR."""
    means = _means(figures.fig11(repeats=3, horizon=100 * MS,
                                 objects=OBJECTS))
    assert all(v > 0.95 for v in means["CMR lock-free"])
    assert all(v > 0.9 for v in means["AUR lock-free"])
    for tag in ("lock-free", "lock-based"):
        for aur, cmr in zip(means[f"AUR {tag}"], means[f"CMR {tag}"]):
            assert aur <= cmr + 1e-9


def test_fig12_overload_step():
    """Overload, step TUFs: lock-based collapses with contention while
    lock-free holds a wide margin (the paper's headline gap)."""
    means = _means(figures.fig12(repeats=4, horizon=100 * MS,
                                 objects=OBJECTS))
    lf_aur = means["AUR lock-free"]
    lb_aur = means["AUR lock-based"]
    assert lb_aur[-1] < lb_aur[0]
    assert lb_aur[-1] < 0.35
    assert lf_aur[-1] > lb_aur[-1] + 0.3
    assert means["CMR lock-free"][-1] > means["CMR lock-based"][-1] + 0.3


def test_fig13_overload_hetero():
    """Overload, heterogeneous TUFs: as Figure 12."""
    means = _means(figures.fig13(repeats=4, horizon=100 * MS,
                                 objects=OBJECTS))
    lf_aur = means["AUR lock-free"]
    lb_aur = means["AUR lock-based"]
    assert lb_aur[-1] < lb_aur[0]
    assert lf_aur[-1] > lb_aur[-1] + 0.25


def test_fig14_readers():
    """Increasing readers: lock-free at least matches lock-based at every
    reader count and wins at the heavy end."""
    means = _means(figures.fig14(repeats=3, horizon=100 * MS,
                                 readers=tuple(range(1, 10))))
    lf_aur = means["AUR lock-free"]
    lb_aur = means["AUR lock-based"]
    assert all(lf >= lb - 0.03 for lf, lb in zip(lf_aur, lb_aur))
    assert lf_aur[-1] > lb_aur[-1]


def test_thm2_retry_bound():
    """Measured per-task retries never exceed Theorem 2's bound, and the
    bound is not vacuous: interference does happen."""
    result = figures.thm2_validation(repeats=4, horizon=300 * MS)
    measured, bound = result.series
    for m, b in zip(measured.estimates, bound.estimates):
        assert m.mean <= b.mean, "Theorem 2 bound violated"
    assert max(e.mean for e in measured.estimates) > 0


def test_thm3_sojourn_crossover():
    """Measured s/r is far below 2/3, so Theorem 3 predicts lock-free
    wins, and the simulated sojourns agree."""
    result = figures.thm3_sojourn(repeats=3, horizon=100 * MS)
    assert result.scalar("s/r") < 2 / 3
    assert result.scalar("predicted lock-free wins")
    assert (result.scalar("bound lock-free [ns]")
            < result.scalar("bound lock-based [ns]"))
    assert (result.scalar("simulated mean sojourn lock-free [ns]")
            < result.scalar("simulated mean sojourn lock-based [ns]"))


def test_lemma45_aur_bounds():
    """Measured AUR of each sharing style lies inside its Lemma 4/5
    interval."""
    result = figures.lemma45_validation(repeats=4, horizon=200 * MS)
    # Series arrive in (lower, measured, upper) triples per lemma.
    for base in (0, 3):
        lower = result.series[base].estimates[0].mean
        measured = result.series[base + 1].estimates[0].mean
        upper = result.series[base + 2].estimates[0].mean
        assert lower - 0.02 <= measured <= upper + 0.02


def test_retry_policy_ablation():
    """ON_PREEMPTION retries at least as often as ON_CONFLICT, and costs
    some AUR; both respect Theorem 2 (checked above)."""
    result = figures.retry_policy_ablation(repeats=3, horizon=200 * MS)
    conflict_retries = result.scalar("ON_CONFLICT mean retries/run")
    preempt_retries = result.scalar("ON_PREEMPTION mean retries/run")
    assert preempt_retries >= conflict_retries
    assert preempt_retries > 0
    assert (result.scalar("ON_PREEMPTION mean AUR")
            <= result.scalar("ON_CONFLICT mean AUR") + 0.02)
