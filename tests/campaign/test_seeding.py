"""Tests for deterministic seed derivation and seeded backoff."""

import pytest

from repro.campaign.seeding import backoff_delay, derive_seed, derive_seeds


class TestDeriveSeed:
    def test_pure_function_of_arguments(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7, "s") == derive_seed(42, 7, "s")

    def test_distinct_across_each_argument(self):
        base = derive_seed(42, 7, "s")
        assert derive_seed(43, 7, "s") != base
        assert derive_seed(42, 8, "s") != base
        assert derive_seed(42, 7, "t") != base

    def test_64_bit_range(self):
        for index in range(50):
            seed = derive_seed(0, index)
            assert 0 <= seed < 2 ** 64

    def test_no_separator_collisions(self):
        # "1:2" + "" must not collide with "1" + "2:" style confusions.
        assert derive_seed(1, 2, "3") != derive_seed(1, 23, "")
        assert derive_seed(12, 3) != derive_seed(1, 23)

    def test_derive_seeds_matches_pointwise(self):
        seeds = derive_seeds(42, 5, "stream")
        assert seeds == [derive_seed(42, k, "stream") for k in range(5)]
        assert len(set(seeds)) == 5


class TestBackoffDelay:
    def test_exponential_growth(self):
        # One seed draws one jitter factor, so the doubling shows exactly.
        delays = [backoff_delay(a, base=0.1, cap=100.0, seed=0)
                  for a in range(4)]
        assert delays == pytest.approx([delays[0] * 2 ** a
                                        for a in range(4)])

    def test_cap_applies(self):
        capped = backoff_delay(10, base=0.1, cap=1.5, seed=0)
        assert capped == backoff_delay(20, base=0.1, cap=1.5, seed=0)
        assert 1.5 * 0.75 <= capped <= 1.5 * 1.25

    def test_jitter_stays_within_band_and_is_seeded(self):
        raw = 0.4  # base * 2**2
        for seed in range(20):
            delay = backoff_delay(2, base=0.1, cap=100.0, seed=seed)
            assert raw * 0.75 <= delay <= raw * 1.25
            again = backoff_delay(2, base=0.1, cap=100.0, seed=seed)
            assert delay == again

    def test_zero_base_is_zero_delay(self):
        assert backoff_delay(3, base=0.0, cap=1.0, seed=9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            backoff_delay(-1, base=0.1, cap=1.0, seed=0)
        with pytest.raises(ValueError):
            backoff_delay(0, base=-0.1, cap=1.0, seed=0)
