"""Unit + acceptance tests for the perf-regression gate
(repro.obs.regress and ``repro bench record|check``)."""

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.obs.regress import (
    MAX_ENTRIES,
    MIN_HISTORY,
    RecordError,
    append_trajectory,
    changepoint_scan,
    check_trajectories,
    declared_metrics,
    entry_from_runs,
    ewma,
    judge_series,
    list_trajectories,
    load_trajectory,
    parse_run,
    trajectory_path,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())
DECLARED = declared_metrics(SPEC)
CLEAN_FIXTURE = ROOT / "tests" / "fixtures" / "trajectories" / "clean"


def _run_text(workload="sim-long", seed=0, trace=0, correct=True,
              metrics=None):
    """A saved ``perfbench/run.py`` stdout, as the benchmark prints it."""
    if metrics is None:
        metrics = ({"core.schedule_us_p50.lockfree": 12.9,
                    "sim.events": 132942} if trace else
                   {"setup_s": 0.25, "throughput_per_s": 12599.6,
                    "latency_ms": 69.2, "peak_rss_mb": 28.6})
    result = {"correct": correct, "attempted": 42,
              "failed": 0 if correct else 1,
              "metrics": {name: {"value": value, "unit": "x"}
                          for name, value in metrics.items()}}
    lines = [f"# {workload} seed={seed} seconds=20 trace={trace}"]
    lines += [f"{name} = {value} x" for name, value in metrics.items()]
    if not correct:
        lines.append("FAILED: payload digest mismatch")
    lines.append(json.dumps(result))
    return "\n".join(lines) + "\n"


def _write_runs(tmp_path, *texts):
    paths = []
    for index, text in enumerate(texts):
        path = tmp_path / f"run{index}.out"
        path.write_text(text)
        paths.append(str(path))
    return paths


def _entry(end_to_end=None, per_layer=None):
    entry = {"seed": 0, "seconds": 20.0}
    if end_to_end is not None:
        entry["end_to_end"] = end_to_end
    if per_layer is not None:
        entry["per_layer"] = per_layer
    return entry


class TestMetricDirection:
    def test_direction_comes_from_benchmark_spec(self):
        assert DECLARED["setup_s"] == {"block": "end_to_end", "unit": "s",
                                       "better": "lower", "bound": 0.25}
        assert DECLARED["throughput_per_s"]["better"] == "higher"
        assert DECLARED["throughput_per_s"]["bound"] == 0.2
        layer = DECLARED["core.schedule_us_p50.lockfree"]
        assert layer == {"block": "per_layer", "unit": "us",
                         "better": "lower"}
        assert DECLARED["serve.cache_hit_ratio"]["better"] == "higher"

    def test_unknown_is_informational(self):
        verdict = judge_series("jobs", [10, 10, 10, 10, 10, 100])
        assert verdict.better == "none"
        assert verdict.status == "drift"
        assert not verdict.gated


class TestIngest:
    def test_parse_run_reads_header_and_last_line(self):
        run = parse_run(_run_text(workload="campaign-dense", seed=3,
                                  trace=1))
        assert (run.workload, run.seed, run.seconds, run.trace) == \
            ("campaign-dense", 3, 20.0, 1)
        assert run.metrics == {"core.schedule_us_p50.lockfree": 12.9,
                               "sim.events": 132942}

    def test_entry_holds_both_blocks(self):
        workload, entry = entry_from_runs(
            [parse_run(_run_text(trace=1)), parse_run(_run_text())],
            DECLARED)
        assert workload == "sim-long"
        assert entry["end_to_end"]["throughput_per_s"] == 12599.6
        assert entry["per_layer"]["sim.events"] == 132942

    @pytest.mark.parametrize("texts, message", [
        ((_run_text(trace=1),), "no --trace 0 run"),
        ((_run_text(), _run_text()), "two --trace 0 runs"),
        ((_run_text(), _run_text(trace=1, seed=1)), "workload and seed"),
        ((_run_text(), _run_text(trace=1, workload="serve-mix")),
         "workload and seed"),
        ((_run_text(metrics={"throughput": 1.0}),),
         "spec's end_to_end block"),
    ])
    def test_mismatched_runs_are_refused(self, texts, message):
        with pytest.raises(RecordError, match=message):
            entry_from_runs([parse_run(text) for text in texts], DECLARED)

    def test_output_without_header_or_result_is_refused(self):
        with pytest.raises(RecordError, match="header"):
            parse_run("setup_s = 1 s\n{}\n")
        with pytest.raises(RecordError, match="JSON result"):
            parse_run("# sim-long seed=0 seconds=20 trace=0\nsetup_s = 1\n")

    def test_incorrect_run_is_refused_and_store_untouched(self, tmp_path,
                                                          capsys):
        store = tmp_path / "store"
        shutil.copytree(CLEAN_FIXTURE, store)
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        runs = _write_runs(tmp_path, _run_text(correct=False))
        rc = main(["bench", "record", *runs, "--dir", str(store),
                   "--spec", str(SPEC_PATH)])
        assert rc != 0
        assert "not correct" in capsys.readouterr().err
        after = {path.name: path.read_bytes() for path in store.iterdir()}
        assert after == before

    def test_incorrect_traced_run_refuses_the_whole_entry(self, tmp_path):
        runs = _write_runs(tmp_path, _run_text(),
                           _run_text(trace=1, correct=False))
        rc = main(["bench", "record", *runs, "--dir",
                   str(tmp_path / "store"), "--spec", str(SPEC_PATH)])
        assert rc != 0
        assert not (tmp_path / "store").exists()


class TestTrajectoryStore:
    def test_append_copies_declared_directions(self, tmp_path):
        append_trajectory("k", _entry({"setup_s": 0.3},
                                      {"sim.events": 10}),
                          DECLARED, directory=tmp_path, now=10.0)
        document = load_trajectory("k", tmp_path)
        assert document["metrics"] == {
            "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
            "sim.events": {"unit": "count", "better": "lower"},
        }
        entry = document["entries"][0]
        assert entry["seq"] == 1
        assert entry["end_to_end"] == {"setup_s": 0.3}
        assert entry["per_layer"] == {"sim.events": 10}

    def test_seq_monotonic_and_survives_corruption(self, tmp_path):
        append_trajectory("k", _entry({"setup_s": 1}), DECLARED,
                          directory=tmp_path, now=1.0)
        append_trajectory("k", _entry({"setup_s": 2}), DECLARED,
                          directory=tmp_path, now=2.0)
        assert [e["seq"] for e in
                load_trajectory("k", tmp_path)["entries"]] == [1, 2]
        trajectory_path("bad", tmp_path).write_text("{not json")
        assert load_trajectory("bad", tmp_path)["entries"] == []

    def test_eviction_is_oldest_first(self, tmp_path):
        document = {"bench": "k", "schema": 2, "metrics": {}, "entries": [
            {"seq": seq, "unix_time": 0.0, **_entry({"setup_s": 1.0})}
            for seq in range(MAX_ENTRIES, 0, -1)   # stored newest-first
        ]}
        trajectory_path("k", tmp_path).write_text(json.dumps(document))
        append_trajectory("k", _entry({"setup_s": 1.0}), DECLARED,
                          directory=tmp_path, now=0.0)
        kept = load_trajectory("k", tmp_path)["entries"]
        assert len(kept) == MAX_ENTRIES
        assert [e["seq"] for e in kept] == \
            list(range(2, MAX_ENTRIES + 2))

    def test_list_trajectories(self, tmp_path):
        assert list_trajectories(tmp_path / "absent") == []
        append_trajectory("b", _entry(), DECLARED, directory=tmp_path,
                          now=0.0)
        append_trajectory("a", _entry(), DECLARED, directory=tmp_path,
                          now=0.0)
        assert list_trajectories(tmp_path) == ["a", "b"]


class TestStats:
    def test_ewma_weights_recent_points(self):
        assert ewma([1.0]) == 1.0
        assert ewma([0.0, 10.0], alpha=0.5) == 5.0
        with pytest.raises(ValueError):
            ewma([])

    def test_changepoint_finds_level_shift(self):
        values = [1.0, 1.1, 0.9, 1.0, 3.0, 3.1, 2.9, 3.0]
        index, score = changepoint_scan(values)
        assert index == 4
        assert score > 3.0

    def test_changepoint_too_short(self):
        assert changepoint_scan([1.0, 2.0]) is None


class TestJudgeSeries:
    def test_insufficient_history(self):
        verdict = judge_series("latency_ms", [1.0] * MIN_HISTORY,
                               better="lower")
        assert verdict.status == "insufficient-history"
        assert not verdict.gated

    def test_stable_series_ok(self):
        verdict = judge_series("latency_ms",
                               [1.0, 1.01, 0.99, 1.02, 0.98, 1.0],
                               better="lower")
        assert verdict.status == "ok"

    def test_three_x_slowdown_gates(self):
        verdict = judge_series("latency_ms",
                               [1.0, 1.01, 0.99, 1.02, 0.98, 3.0],
                               better="lower")
        assert verdict.status == "regression"
        assert verdict.gated
        assert verdict.z > 4.0
        assert verdict.rel_change > 1.5
        # A single-point jump: the shift is at the newest entry.
        assert verdict.changepoint_seq == 6

    def test_regression_names_the_changepoint_seq(self):
        verdict = judge_series("latency_ms",
                               [1.0, 1.01, 0.99, 1.0, 3.0, 3.0, 3.0],
                               better="lower", seqs=[3, 4, 5, 6, 7, 8, 9])
        assert verdict.gated
        assert verdict.changepoint_seq == 7
        assert verdict.changepoint_score > 3.0

    def test_speedup_never_gates(self):
        verdict = judge_series("latency_ms",
                               [1.0, 1.01, 0.99, 1.02, 0.98, 0.3],
                               better="lower")
        assert verdict.status == "drift"     # large but better direction

    def test_lower_is_worse_direction(self):
        verdict = judge_series("serve.cache_hit_ratio",
                               [0.9, 0.91, 0.89, 0.9, 0.9, 0.3],
                               better="higher")
        assert verdict.status == "regression"

    def test_bound_sets_the_relative_threshold(self):
        values = [100.0, 101.0, 99.0, 100.5, 99.5, 88.0]   # -12 %
        assert judge_series("peak_rss_mb", [200 - v for v in values],
                            better="lower", threshold=0.05).gated
        assert not judge_series("throughput_per_s", values,
                                better="higher", threshold=0.2).gated

    def test_sparse_count_series_does_not_gate(self):
        # MAD degenerates to 0 on majority-identical histories; the
        # stdev fallback keeps a 0->1 count wobble below the gate.
        verdict = judge_series("campaign.retries", [0, 0, 1, 0, 0, 1],
                               better="lower")
        assert verdict.status == "ok"
        assert abs(verdict.z) < 4.0

    def test_constant_history_still_detects_real_jump(self):
        # A deterministic metric that was flat and genuinely moved
        # must still gate (scale floors, not the stdev fallback).
        verdict = judge_series("sim.events", [5, 5, 5, 5, 5, 20],
                               better="lower")
        assert verdict.status == "regression"

    def test_unknown_direction_reports_drift_only(self):
        verdict = judge_series("jobs", [10, 10, 10, 10, 10, 100],
                               better=None)
        assert verdict.status == "drift"
        assert not verdict.gated


class TestCheckTrajectories:
    def _seed(self, tmp_path, latencies):
        for i, latency in enumerate(latencies):
            append_trajectory(
                "sim-long", _entry({"latency_ms": latency},
                                   {"core.schedule_us_p50.lockfree": 12.0}),
                DECLARED, directory=tmp_path, now=float(i))

    def test_clean_store(self, tmp_path):
        self._seed(tmp_path, [1.0, 1.01, 0.99, 1.02, 0.98, 1.0])
        report = check_trajectories(tmp_path)
        assert not report.regressed
        assert "gate clean" in report.render()

    def test_regressed_store_and_report(self, tmp_path):
        self._seed(tmp_path, [1.0, 1.01, 0.99, 1.02, 0.98, 3.1])
        report = check_trajectories(tmp_path)
        assert report.regressed
        [verdict] = report.benches[0].regressions
        assert (verdict.metric, verdict.layer) == ("latency_ms",
                                                    "end_to_end")
        assert verdict.threshold == 0.25
        text = report.render()
        assert "REGRESSION" in text
        assert "sim-long: layer end_to_end regressed at seq 6" in text
        assert "GATE FAILED: 1 regressed series" in text

    def test_empty_store(self, tmp_path):
        report = check_trajectories(tmp_path)
        assert not report.regressed
        assert "nothing to gate" in report.render()


class TestBenchCheckCli:
    """Acceptance: `repro bench check` exits 0 on the clean perfbench
    fixture and 1 once a worse point is appended to it.

    The fixture is a ``sim-long`` trajectory in the shape ``record``
    writes: six entries at recorded median values with a ±2 % wobble.
    It exercises the gate's mechanics; traced per-layer timings of real
    runs spread wider than that, and the gate is only as sensitive as
    the history it is given.
    """

    def test_clean_fixture_passes(self, tmp_path, capsys):
        rc = main(["bench", "check", "--dir", str(CLEAN_FIXTURE),
                   "--json", str(tmp_path / "out.json")])
        assert rc == 0
        assert "gate clean" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["command"] == "bench"
        assert payload["regressed"] is False
        assert payload["exit_code"] == 0

    def _append_scaled(self, tmp_path, block, metric, factor):
        """A copy of the fixture whose newest entry repeats the last one
        with ``metric`` scaled by ``factor``; returns (store, seq)."""
        store = tmp_path / "trajectories"
        shutil.copytree(CLEAN_FIXTURE, store)
        path = store / "sim-long.json"
        document = json.loads(path.read_text())
        last = document["entries"][-1]
        moved = json.loads(json.dumps(last))
        moved["seq"] = last["seq"] + 1
        moved[block][metric] = last[block][metric] * factor
        document["entries"].append(moved)
        path.write_text(json.dumps(document))
        return store, moved["seq"]

    def test_injected_slowdown_fails_gate(self, tmp_path, capsys):
        store, seq = self._append_scaled(
            tmp_path, "per_layer", "core.schedule_us_p50.lockfree", 1.3)
        report_path = tmp_path / "gate.txt"
        rc = main(["bench", "check", "--dir", str(store),
                   "--report", str(report_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert f"sim-long: layer core regressed at seq {seq}: " \
               f"core.schedule_us_p50.lockfree +" in out
        assert "GATE FAILED: 1 regressed series" in out
        # The --report artifact CI uploads carries the same verdict.
        assert "GATE FAILED" in report_path.read_text()

    @pytest.mark.parametrize("factor, rc", [(0.7, 1), (1.4, 0)])
    def test_falling_throughput_gates_rising_does_not(self, tmp_path,
                                                       capsys, factor, rc):
        store, seq = self._append_scaled(
            tmp_path, "end_to_end", "throughput_per_s", factor)
        assert main(["bench", "check", "--dir", str(store)]) == rc
        out = capsys.readouterr().out
        red = f"layer end_to_end regressed at seq {seq}: throughput_per_s"
        assert (red in out) == (rc == 1)

    def test_report_action_never_gates(self, tmp_path, capsys):
        store, _ = self._append_scaled(
            tmp_path, "end_to_end", "latency_ms", 3.0)
        rc = main(["bench", "report", "--dir", str(store)])
        assert rc == 0
        assert "GATE FAILED" in capsys.readouterr().out

    def test_record_appends_entry(self, tmp_path, capsys):
        store = tmp_path / "store"
        runs = _write_runs(tmp_path, _run_text(), _run_text(trace=1))
        rc = main(["bench", "record", *runs, "--dir", str(store),
                   "--spec", str(SPEC_PATH),
                   "--json", str(tmp_path / "record.json")])
        assert rc == 0
        document = load_trajectory("sim-long", store)
        [entry] = document["entries"]
        assert entry["seed"] == 0
        assert entry["end_to_end"]["latency_ms"] == 69.2
        assert entry["per_layer"]["sim.events"] == 132942
        assert document["metrics"]["latency_ms"]["bound"] == 0.25
        assert "entry seq 1 appended" in capsys.readouterr().out
        payload = json.loads((tmp_path / "record.json").read_text())
        assert (payload["bench"], payload["seq"]) == ("sim-long", 1)

    def test_check_rejects_record_arguments(self, tmp_path, capsys):
        assert main(["bench", "check", "run.out", "--dir",
                     str(CLEAN_FIXTURE)]) == 2
        assert "for 'record'" in capsys.readouterr().err
