"""Unit + acceptance tests for the trace-diff diagnoser
(repro.obs.diff and ``repro diff``)."""

import json

import pytest

from repro.cli import main
from repro.obs.diff import (
    TraceFormatError,
    diff_trace_files,
    diff_traces,
    load_trace,
)
from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.profile import run_profile


def _jsonl(path, rows):
    path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    return path


def _decision(t, n, chosen, passes=1, cost=100):
    return {"type": "span", "name": "sched.decision", "cat": "sched",
            "tid": "kernel", "start": t, "duration": cost,
            "args": {"n": n, "chosen": chosen, "passes": passes}}


def _trace_rows(chosen_at_20="T1", t1_retries=0):
    rows = [
        _decision(10, 2, "T0"),
        _decision(20, 2, chosen_at_20),
        {"type": "span", "name": "exec", "cat": "cpu", "tid": "T0",
         "start": 100, "duration": 400, "args": {}},
        {"type": "span", "name": "blocked:2", "cat": "lock", "tid": "T1",
         "start": 150, "duration": 250, "args": {}},
        {"type": "instant", "name": "complete", "cat": "kernel",
         "tid": "T0", "ts": 500, "args": {"utility": 1.5}},
        {"type": "instant", "name": "abort", "cat": "kernel",
         "tid": "T1", "ts": 600, "args": {}},
    ]
    rows += [{"type": "instant", "name": "retry", "cat": "lockfree",
              "tid": "T1", "ts": 200 + i, "args": {"object": 2}}
             for i in range(t1_retries)]
    return rows


class TestLoadTrace:
    def test_jsonl_roundtrip(self, tmp_path):
        path = _jsonl(tmp_path / "a.jsonl", _trace_rows())
        view = load_trace(path)
        assert len(view.spans) == 4
        assert len(view.instants) == 2
        assert view.task_tids() == ["T0", "T1"]
        assert [d["args"]["chosen"] for d in view.decisions()] == \
            ["T0", "T1"]

    def test_multiline_jsonl_starting_with_brace(self, tmp_path):
        # A JSONL stream also starts with "{"; it must not be mistaken
        # for (or rejected as) a Chrome document.
        path = _jsonl(tmp_path / "a.jsonl", _trace_rows())
        assert path.read_text().startswith("{")
        assert len(load_trace(path).spans) == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        view = load_trace(path)
        assert view.spans == [] and view.instants == []

    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_json_without_trace_events_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"some": "document"}))
        with pytest.raises(TraceFormatError):
            load_trace(path)


class TestFormatParity:
    def test_chrome_and_jsonl_exports_diff_clean(self, tmp_path):
        """Both exporters are lossless over the event model: exporting
        the same run twice must yield an identical schedule."""
        prof = run_profile(workload="step", horizon_us=20_000, seed=3)
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.json"
        write_jsonl(jsonl, prof.observer)
        write_chrome_trace(chrome, prof.observer)
        diff = diff_trace_files(jsonl, chrome)
        assert diff.identical_schedule
        assert diff.decisions_a == diff.decisions_b > 0
        assert not any(task.changed for task in diff.tasks)
        assert "schedules agree" in diff.render()


class TestDivergence:
    def test_identical_traces(self, tmp_path):
        a = _jsonl(tmp_path / "a.jsonl", _trace_rows())
        b = _jsonl(tmp_path / "b.jsonl", _trace_rows())
        diff = diff_trace_files(a, b)
        assert diff.identical_schedule
        assert diff.to_dict()["first_divergence"] is None

    def test_first_divergent_decision(self, tmp_path):
        a = _jsonl(tmp_path / "a.jsonl", _trace_rows(chosen_at_20="T1"))
        b = _jsonl(tmp_path / "b.jsonl", _trace_rows(chosen_at_20="T0"))
        diff = diff_trace_files(a, b)
        assert not diff.identical_schedule
        assert diff.divergence.index == 1     # decision #0 agreed
        assert diff.divergence.a["chosen"] == "T1"
        assert diff.divergence.b["chosen"] == "T0"
        assert "first divergent scheduling decision: #1" in diff.render()

    def test_truncated_trace_diverges_at_end(self, tmp_path):
        rows = _trace_rows()
        a = _jsonl(tmp_path / "a.jsonl", rows)
        b = _jsonl(tmp_path / "b.jsonl",
                   [r for r in rows
                    if not (r["name"] == "sched.decision"
                            and r["start"] == 20)])
        diff = diff_trace_files(a, b)
        assert diff.divergence.index == 1
        assert diff.divergence.b is None      # B ran out of decisions
        assert "(no further decisions)" in diff.render()

    def test_per_task_deltas(self, tmp_path):
        a = _jsonl(tmp_path / "a.jsonl", _trace_rows(t1_retries=2))
        b = _jsonl(tmp_path / "b.jsonl", _trace_rows(t1_retries=5))
        diff = diff_trace_files(a, b)
        t1 = next(task for task in diff.tasks if task.tid == "T1")
        assert t1.retries == (2, 5)
        assert t1.changed
        assert t1.deltas()["retries"] == 3
        t0 = next(task for task in diff.tasks if task.tid == "T0")
        assert not t0.changed
        assert t0.utility == (1.5, 1.5)
        assert t0.exec_ns == (400, 400)
        assert t1.blocking_ns == (250, 250)
        payload = diff.to_dict()
        assert payload["changed_tasks"] == 1
        assert "2->5" in diff.render()

    def test_kernel_lane_excluded_from_task_deltas(self, tmp_path):
        a = _jsonl(tmp_path / "a.jsonl", _trace_rows())
        b = _jsonl(tmp_path / "b.jsonl", _trace_rows())
        diff = diff_trace_files(a, b)
        assert all(task.tid not in ("kernel", "trace")
                   for task in diff.tasks)


class TestLockfreeVsLockbasedAcceptance:
    """Acceptance: diffing lock-based vs lock-free runs at the same seed
    reports the first divergent decision, deterministically."""

    def _views(self, tmp_path):
        paths = {}
        for sync in ("lockfree", "lockbased"):
            prof = run_profile(workload="step", sync=sync,
                               horizon_us=50_000, seed=5)
            paths[sync] = tmp_path / f"{sync}.jsonl"
            write_jsonl(paths[sync], prof.observer)
        return paths

    def test_divergence_found_and_deterministic(self, tmp_path):
        paths = self._views(tmp_path)
        first = diff_trace_files(paths["lockfree"], paths["lockbased"])
        again = diff_trace_files(paths["lockfree"], paths["lockbased"])
        assert not first.identical_schedule
        assert first.to_dict() == again.to_dict()
        assert first.divergence.index >= 0
        # The mechanisms differ where the paper says they do: only the
        # lock-free side pays retries.
        retries_lf = sum(task.retries[0] for task in first.tasks)
        retries_lb = sum(task.retries[1] for task in first.tasks)
        assert retries_lf > 0
        assert retries_lb == 0
        assert any(task.changed for task in first.tasks)
        text = first.render()
        assert "first divergent scheduling decision" in text
        assert "accrued utility" in text


class TestDiffCli:
    def _export(self, tmp_path, sync, seed=5):
        prof = run_profile(workload="step", sync=sync,
                           horizon_us=20_000, seed=seed)
        path = tmp_path / f"{sync}.jsonl"
        write_jsonl(path, prof.observer)
        return path

    def test_diff_command(self, tmp_path, capsys):
        a = self._export(tmp_path, "lockfree")
        b = self._export(tmp_path, "lockbased")
        out = tmp_path / "diff.json"
        rc = main(["diff", str(a), str(b), "--json", str(out)])
        assert rc == 0
        assert "trace diff" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["command"] == "diff"
        assert payload["decisions"]["a"] > 0
        assert isinstance(payload["tasks"], list)

    def test_missing_file_is_rc_2(self, tmp_path, capsys):
        a = self._export(tmp_path, "lockfree")
        rc = main(["diff", str(a), str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "trace not found" in capsys.readouterr().err

    def test_unreadable_trace_is_rc_2(self, tmp_path, capsys):
        a = self._export(tmp_path, "lockfree")
        bad = tmp_path / "bad.txt"
        bad.write_text("definitely not a trace\n")
        rc = main(["diff", str(a), str(bad)])
        assert rc == 2
        assert "unreadable trace" in capsys.readouterr().err
