"""Tests for the command-line interface."""

import json

import pytest

from repro.campaign import CampaignStats
from repro.cli import FIGURES, main
from repro.experiments.figures import FigureResult
from repro.experiments.stats import Series
from repro.units import MS


class TestQuick:
    def test_default_runs_all_styles(self, capsys):
        assert main(["quick", "--horizon-ms", "100", "--tasks", "3",
                     "--objects", "2"]) == 0
        out = capsys.readouterr().out
        for style in ("ideal", "edf", "lockfree", "lockbased"):
            assert style in out

    def test_sync_filter(self, capsys):
        assert main(["quick", "--horizon-ms", "50", "--tasks", "2",
                     "--objects", "1", "--sync", "lockfree"]) == 0
        out = capsys.readouterr().out
        assert "lockfree" in out
        assert "lockbased" not in out

    def test_hetero_class(self, capsys):
        assert main(["quick", "--horizon-ms", "50", "--tasks", "2",
                     "--objects", "1", "--tuf-class", "hetero",
                     "--sync", "ideal"]) == 0


class TestUnknownCommand:
    def test_bench_is_not_a_command(self, capsys):
        # Perf claims go through scripts/ab.py, not a CLI command.
        with pytest.raises(SystemExit) as info:
            main(["bench", "check"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestFigure:
    def test_fig10_small(self, capsys):
        assert main(["figure", "fig10", "--repeats", "1",
                     "--horizon-ms", "30"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "AUR lock-free" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.fixture
    def figure_calls(self, monkeypatch):
        """Replace fig9 and fig10 by recorders of their arguments."""
        calls = []

        def record(name):
            def figure(**kwargs):
                calls.append((name, kwargs))
                return FigureResult(figure=name, title="t", x_label="x")
            return figure

        for name in ("fig9", "fig10"):
            monkeypatch.setitem(FIGURES, name, record(name))
        return calls

    def test_fig9_gets_repeats_unchanged(self, figure_calls):
        assert main(["figure", "fig9", "--repeats", "5"]) == 0
        assert figure_calls == [("fig9", {"repeats": 5, "campaign": None})]

    def test_fig9_rejects_horizon(self, figure_calls, capsys):
        assert main(["figure", "fig9", "--horizon-ms", "50"]) == 2
        assert "--horizon-ms" in capsys.readouterr().err
        assert figure_calls == []

    def test_other_figures_default_horizon_100_ms(self, figure_calls):
        assert main(["figure", "fig10"]) == 0
        assert main(["figure", "fig10", "--horizon-ms", "30"]) == 0
        assert [kwargs["horizon"] for _, kwargs in figure_calls] == [
            100 * MS, 30 * MS]

    @pytest.fixture
    def violated(self, monkeypatch):
        """Replace fig10 by a figure whose data violates its claim; a test
        may set ``violated["campaign"]`` to the campaign stats it reports."""
        stats = {}

        def figure(**kwargs):
            aur = Series(label="AUR lock-free")
            aur.add(1, [0.5])
            result = FigureResult(figure="Figure X", title="t",
                                  x_label="x", series=[aur],
                                  campaign=stats.get("campaign"))
            result.claim("§6 Fig. X", "min AUR lock-free", ">", 0.95,
                         min(aur.means()))
            return result

        monkeypatch.setitem(FIGURES, "fig10", figure)
        return stats

    def test_failed_claim_exits_1(self, violated, tmp_path, capsys):
        path = tmp_path / "fig.json"
        assert main(["figure", "fig10", "--json", str(path)]) == 1
        assert ("FAIL [§6 Fig. X] min AUR lock-free > 0.95: observed 0.5"
                in capsys.readouterr().out)
        payload = json.loads(path.read_text())
        assert payload["exit_code"] == 1
        assert [claim["passed"] for claim in payload["claims"]] == [False]

    def test_failed_campaign_still_exits_4(self, violated, capsys):
        violated["campaign"] = CampaignStats(trials=1, failed_trials=1)
        assert main(["figure", "fig10"]) == 4


class TestFaults:
    def test_small_campaign(self, capsys):
        assert main(["faults", "--bursts", "0,2", "--repeats", "1",
                     "--horizon-ms", "15"]) == 0
        out = capsys.readouterr().out
        assert "CML under faults" in out
        assert "per-level degradation" in out

    def test_report_written_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "degradation.txt"
        assert main(["faults", "--bursts", "2", "--repeats", "1",
                     "--horizon-ms", "10", "--out", str(out_file)]) == 0
        assert "bursts/task=2" in out_file.read_text()

    def test_bad_burst_list_rejected(self, capsys):
        assert main(["faults", "--bursts", "two"]) == 2
        assert main(["faults", "--bursts", ","]) == 2
        assert main(["faults", "--bursts=-3,2"]) == 2
        err = capsys.readouterr().err
        assert "--bursts" in err
        assert "levels must be >= 0" in err


class TestServe:
    @pytest.mark.parametrize("flag", [
        ["--queue-capacity", "0"], ["--watermark", "0"], ["--watermark=-3"],
    ], ids=["capacity-0", "watermark-0", "watermark-negative"])
    def test_bad_queue_bound_is_a_usage_error(self, capsys, tmp_path, flag):
        assert main(["serve", "--cache-dir", str(tmp_path / "cache"),
                     "--duration", "0.5", *flag]) == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestSojourn:
    def test_lockfree_wins_with_small_s(self, capsys):
        assert main(["sojourn", "--r", "30", "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert "lock-free" in out
        assert "s/r = 0.0667" in out

    def test_lockbased_wins_with_large_s(self, capsys):
        assert main(["sojourn", "--r", "10", "--s", "9.9"]) == 0
        out = capsys.readouterr().out
        assert "shorter worst-case sojourn: lock-based" in out


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])
