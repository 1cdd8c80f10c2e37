"""Tests for the FigureResult container and its rendering."""

from repro.experiments.figures import FigureResult
from repro.experiments.stats import Series


def _series(label, points):
    series = Series(label=label)
    for x, value in points:
        series.add(x, [value])
    return series


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
