"""The verdict rules of ``scripts/ab.py``, each at its boundary.

``verdict()`` decides every paired performance claim, so each outcome
is pinned where it gives way to the next: ``unresolved`` (parent IQR
over the bound, runs overlapping), ``improved`` (9 in 10 wins and a gap
over the parent's IQR), ``worse`` (median worse by more than the bound)
and ``within bound``.  The ``seed3`` rows are a recorded 5-pair round
(``benchmarks/out/ab-campaign-dense-seed3-parent-change.txt``) in which
one disturbed parent run widened the parent's IQR.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

LOWER = {"name": "latency_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.20}

SEED3_LATENCY = ([30.92, 31.14, 31.63, 39.32, 31.02],
                 [27.09, 27.16, 28.24, 27.79, 27.86])
SEED3_THROUGHPUT = ([62.94, 61.57, 60.57, 34.09, 63.88],
                    [69.56, 68.44, 66.74, 65.0, 67.06])
#: Quartiles 85 and 115 around a median of 100: IQR share 0.30.
WIDE = [80.0, 90.0, 100.0, 110.0, 120.0]


def word(metric, parent, change) -> str:
    return ab.verdict(metric, parent, change)["verdict"]


def test_wins_at_every_pair_but_a_gap_inside_the_iqr_is_within_bound():
    parent, change = SEED3_LATENCY
    row = ab.verdict(LOWER, parent, change)
    assert row["wins"] == 5
    assert row["parent"] - row["change"] < row["iqr"]
    assert row["verdict"] == "within bound"


def test_a_wide_parent_iqr_gives_way_to_a_fully_separated_change():
    parent, change = SEED3_THROUGHPUT
    row = ab.verdict(HIGHER, parent, change)
    assert row["iqr"] / row["parent"] > HIGHER["bound"]
    assert min(change) > max(parent)
    assert row["verdict"] == "within bound"
    # One change run inside the parent's range: the spread decides.
    assert word(HIGHER, parent, change[:-1] + [63.0]) == "unresolved"


@pytest.mark.parametrize("bound, expected", [
    (0.30, "within bound"),     # IQR share equal to the bound
    (0.29, "unresolved"),       # IQR share just over it
])
def test_unresolved_needs_the_iqr_share_strictly_over_the_bound(
        bound, expected):
    metric = dict(LOWER, bound=bound)
    assert word(metric, WIDE, [100.0] * 5) == expected


def test_unresolved_comes_before_worse():
    # The change's median is 50% worse, but the parent spread is too
    # wide to judge and the runs overlap.
    assert word(LOWER, WIDE, [150.0, 150.0, 150.0, 110.0, 150.0]) \
        == "unresolved"


@pytest.mark.parametrize("wins, expected", [
    (10, "improved"),
    (9, "improved"),            # ceil(0.9 * 10)
    (8, "within bound"),
])
def test_improved_needs_nine_in_ten_wins(wins, expected):
    parent = [10.0] * 10
    change = [9.0] * wins + [10.0] * (10 - wins)    # a tie wins nothing
    row = ab.verdict(LOWER, parent, change)
    assert row["wins"] == wins
    assert row["verdict"] == expected


def test_improved_needs_the_gap_strictly_over_the_parent_iqr():
    parent = [9.0, 10.0, 10.0, 10.0, 11.0]     # quartiles 9.5, 10.5
    assert ab.verdict(LOWER, parent, [8.0] * 5)["iqr"] == 1.0
    # Each change run beats its pair's parent run; only the gap differs.
    assert word(LOWER, parent, [8.5, 8.99, 8.99, 8.99, 9.5]) == "improved"
    gap_is_iqr = ab.verdict(LOWER, parent, [8.5, 9.0, 9.0, 9.0, 9.5])
    assert (gap_is_iqr["wins"], gap_is_iqr["verdict"]) == (5, "within bound")


@pytest.mark.parametrize("metric, change, expected", [
    (LOWER, 125.0, "within bound"),     # exactly the bound worse
    (LOWER, 126.0, "worse"),
    (HIGHER, 80.0, "within bound"),
    (HIGHER, 79.0, "worse"),
])
def test_worse_needs_the_median_strictly_past_the_bound(
        metric, change, expected):
    assert word(metric, [100.0] * 4, [change] * 4) == expected


def test_a_change_that_reads_better_on_a_higher_is_better_metric():
    row = ab.verdict(HIGHER, [100.0] * 10, [110.0] * 10)
    assert (row["wins"], row["delta_pct"], row["verdict"]) \
        == (10, 10.0, "improved")
