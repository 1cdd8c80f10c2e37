"""Tests for Theorem 3 (lock-based vs lock-free sojourn comparison)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sojourn import (
    blocking_count_bound,
    compare_sojourn,
    lockbased_sojourn_bound,
    lockfree_sojourn_bound,
    lockfree_wins_ratio_threshold,
)


class TestBounds:
    def test_blocking_count_is_min(self):
        assert blocking_count_bound(3, 5) == 3
        assert blocking_count_bound(5, 3) == 3

    def test_lockbased_formula(self):
        # u + I + r*m + r*min(m, n)
        assert lockbased_sojourn_bound(100, 50, r=10.0, m_i=4, n_i=2) == (
            100 + 50 + 40 + 20)

    def test_lockfree_formula(self):
        # u + I + s*m + s*f
        assert lockfree_sojourn_bound(100, 50, s=2.0, m_i=4, f_i=7) == (
            100 + 50 + 8 + 14)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            blocking_count_bound(-1, 2)
        with pytest.raises(ValueError):
            lockfree_sojourn_bound(1, 1, 1.0, 1, -1)


class TestThresholds:
    def test_case1_threshold_is_two_thirds(self):
        assert lockfree_wins_ratio_threshold(m_i=3, n_i=5, a_i=1,
                                             x_i=4) == pytest.approx(2 / 3)

    def test_case2_threshold_formula(self):
        m, n, a, x = 10, 4, 1, 3
        expected = (m + n) / (m + 3 * a + 2 * x)
        assert lockfree_wins_ratio_threshold(m, n, a, x) == pytest.approx(
            expected)

    def test_case2_threshold_below_one(self):
        # s/r < 1 is necessary (paper's remark): with n <= 2a + x the
        # case-2 threshold is < 1.
        for m, a, x in ((10, 1, 3), (20, 2, 5), (7, 1, 1)):
            n = 2 * a + x  # maximum possible n_i
            if m > n:
                assert lockfree_wins_ratio_threshold(m, n, a, x) < 1.0


class TestComparison:
    def test_small_s_makes_lockfree_win(self):
        cmp = compare_sojourn(u_i=1000, interference=500, r=30.0, s=2.0,
                              m_i=3, n_i=5, a_i=1, x_i=4)
        assert cmp.lockfree_wins
        assert cmp.predicted_lockfree_wins

    def test_large_s_makes_lockbased_win(self):
        cmp = compare_sojourn(u_i=1000, interference=500, r=10.0, s=9.9,
                              m_i=3, n_i=5, a_i=1, x_i=4)
        assert not cmp.lockfree_wins
        assert not cmp.predicted_lockfree_wins

    def test_rejects_nonpositive_access_times(self):
        with pytest.raises(ValueError):
            compare_sojourn(1, 1, r=0.0, s=1.0, m_i=1, n_i=1, a_i=1, x_i=1)

    @settings(max_examples=300)
    @given(u=st.integers(0, 10_000), interference=st.integers(0, 10_000),
           r=st.floats(0.1, 100.0), ratio=st.floats(0.01, 2.0),
           m=st.integers(1, 20), a=st.integers(1, 4), x=st.integers(0, 20))
    def test_theorem3_soundness_property(self, u, interference, r, ratio,
                                         m, a, x):
        """The lock-free worst-case sojourn bound is lower exactly when
        s/r is below the exact Theorem 3 threshold (sufficient and
        necessary), with n_i at its worst case 2a_i + x_i and f_i from
        Theorem 2; only a ratio within rounding of the threshold is
        left undecided."""
        s = r * ratio
        n = 2 * a + x
        cmp = compare_sojourn(u, interference, r, s, m_i=m, n_i=n,
                              a_i=a, x_i=x)
        if abs(cmp.ratio - cmp.exact_threshold) \
                <= 1e-9 * cmp.exact_threshold:
            return
        assert cmp.lockfree_wins == cmp.predicted_lockfree_wins
