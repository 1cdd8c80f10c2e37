"""Tests for the FigureResult container and its rendering."""

import math
from types import SimpleNamespace

import pytest

from repro.experiments import figures
from repro.experiments.figures import FigureResult
from repro.experiments.stats import Series


def _series(label, points):
    series = Series(label=label)
    for x, value in points:
        series.add(x, [value])
    return series


def _claim(op, limit, observed):
    result = FigureResult(figure="F", title="T", x_label="x")
    result.claim("§0", "q", op, limit, observed)
    return result.claims[0]


class TestClaimPredicate:
    """``FigureResult.claim`` compares with the operator it names: the
    strict ones fail at the margin, the others pass there."""

    @pytest.mark.parametrize("op, at_margin", [
        (">", False), (">=", True), ("<", False), ("<=", True)])
    def test_margin_is_strict_only_for_strict_operators(self, op,
                                                        at_margin):
        assert _claim(op, 0.3, 0.3).passed is at_margin

    @pytest.mark.parametrize("op, observed", [
        (">", 0.31), (">=", 0.31), ("<", 0.29), ("<=", 0.29)])
    def test_side_of_margin_decides(self, op, observed):
        beyond = 0.6 - observed            # the other side of 0.3
        assert _claim(op, 0.3, observed).passed
        assert not _claim(op, 0.3, beyond).passed

    @pytest.mark.parametrize("op", [">", ">=", "<", "<="])
    def test_nan_observation_fails_under_every_operator(self, op):
        claim = _claim(op, 0.3, math.nan)
        assert not claim.passed
        assert math.isnan(claim.observed)

    def test_text_rounds_the_margin_but_the_test_uses_it_exactly(self):
        """Theorem 3's ``s/r < 2/3``: 0.66667 is printed as the margin
        0.6667, yet it is not below 2/3."""
        claim = _claim("<", 2 / 3, 0.66667)
        assert claim.text == "q < 0.6667"
        assert not claim.passed
        assert _claim("<", 2 / 3, 0.6666).passed

    def test_min_and_max_carry_nan_from_any_position(self):
        assert figures._min([3.0, 1.0, 2.0]) == 1.0
        assert figures._max([3.0, 1.0, 2.0]) == 3.0
        assert math.isnan(figures._min([1.0, math.nan, 0.5]))
        assert math.isnan(figures._max(v for v in (1.0, 2.0, math.nan)))


class TestFigureResult:
    def test_render_includes_everything(self):
        result = FigureResult(
            figure="Figure X",
            title="Demo",
            x_label="n",
            series=[_series("alpha", [(1, 0.5), (2, 0.7)])],
            notes="Shape note.",
        )
        text = result.render()
        assert "Figure X: Demo" in text
        assert "alpha" in text
        assert "Shape note." in text

    def test_render_without_notes(self):
        result = FigureResult(figure="F", title="T", x_label="x",
                              series=[_series("s", [(1, 1.0)])])
        assert not result.render().endswith("\n")

    def test_empty_series_renders_header_only(self):
        result = FigureResult(figure="F", title="T", x_label="x")
        assert "F: T" in result.render()

    def test_scalars_render_as_rows_and_keep_raw_values(self):
        result = FigureResult(figure="Theorem X", title="demo", x_label="-",
                              scalars={"s/r": (0.03502, ".3f"),
                                       "wins": (True, "")})
        assert result.render().splitlines()[2:] == ["s/r   0.035",
                                                     "wins  True"]
        assert result.scalar("s/r") == 0.03502
        assert result.to_dict()["scalars"] == {"s/r": 0.03502, "wins": True}

    def test_claims_render_verdicts_and_serialize(self):
        result = FigureResult(figure="F", title="T", x_label="x",
                              series=[_series("s", [(1, 0.5), (2, 0.7)])])
        result.claim("§6 Fig. F", "min s", ">", 0.4, min(result.means("s")))
        result.claim("§6 Fig. F", "max s", "<", 0.6, max(result.means("s")))
        assert not result.passed
        assert result.render().splitlines()[-2:] == [
            "PASS [§6 Fig. F] min s > 0.4: observed 0.5",
            "FAIL [§6 Fig. F] max s < 0.6: observed 0.7"]
        assert result.to_dict()["claims"][1] == {
            "text": "max s < 0.6", "section": "§6 Fig. F",
            "observed": 0.7, "passed": False}

    def test_no_claims_pass_and_stay_out_of_the_payload(self):
        result = FigureResult(figure="F", title="T", x_label="x",
                              series=[_series("s", [(1, 0.5)])])
        assert result.passed
        assert "claims" not in result.to_dict()
        assert "PASS" not in result.render()

    def test_claim_over_a_hollow_point_fails(self, monkeypatch):
        """Every lock-free trial at 2 objects failed: the claims that read
        that point fail, the last-point gap still passes."""
        calls = []

        def run_many(build, sync, *args, **kwargs):
            calls.append(sync)
            if len(calls) == 4:         # lock-free at the second count
                return []
            return [SimpleNamespace(aur=1.0, cmr=1.0)]

        monkeypatch.setattr(figures, "run_many", run_many)
        result = figures.fig10(repeats=1, objects=(1, 2, 3))
        assert calls[3] == "lockfree"
        assert [(c.text, c.passed) for c in result.claims] == [
            ("min AUR lock-free > 0.95", False),
            ("min CMR lock-free > 0.97", False),
            ("last-point AUR lock-free - lock-based >= -0.02", True)]
        assert "observed nan" in result.claims[0].render()
