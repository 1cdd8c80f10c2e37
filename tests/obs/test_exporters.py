"""Unit tests for the Chrome-trace / JSONL / summary exporters."""

import json

from repro.obs import Histogram, Observer
from repro.obs.exporters import (
    chrome_trace,
    events_jsonl,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)


def _sample_observer() -> Observer:
    obs = Observer()
    obs.span("exec", "cpu", "T0", 1_000, 2_000, {"job": "T0#0"})
    obs.span("sched.decision", "sched", "kernel", 3_000, 500)
    obs.instant("retry", "lockfree", "T1", 4_000, {"object": 2})
    obs.tick_counter("retries.2", ts=4_000)
    return obs


class TestChromeTrace:
    def test_thread_metadata_and_phases(self):
        doc = chrome_trace(_sample_observer())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ns"
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # One metadata record per distinct tid lane, first-seen order.
        names = [m["args"]["name"] for m in by_ph["M"]]
        assert names == ["T0", "kernel", "T1"]
        tids = [m["tid"] for m in by_ph["M"]]
        assert tids == [1, 2, 3]
        assert len(by_ph["X"]) == 2
        assert len(by_ph["i"]) == 1
        assert len(by_ph["C"]) == 1

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(_sample_observer())
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 1.0      # 1000 ns -> 1 µs
        assert span["dur"] == 2.0

    def test_counter_track(self):
        doc = chrome_trace(_sample_observer())
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert counter["name"] == "retries.2"
        assert counter["tid"] == 0
        assert counter["args"] == {"value": 1}

    def test_empty_observer(self):
        doc = chrome_trace(Observer())
        assert doc["traceEvents"] == []

    def test_write_is_parseable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _sample_observer())
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded
        assert path.read_text().endswith("\n")


class TestJsonl:
    def test_one_json_object_per_line(self, tmp_path):
        obs = _sample_observer()
        text = events_jsonl(obs)
        lines = text.strip().split("\n")
        assert len(lines) == 4      # 2 spans + 1 instant + 1 sample
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds == ["span", "span", "instant", "counter"]
        path = tmp_path / "events.jsonl"
        write_jsonl(path, obs)
        assert path.read_text() == text

    def test_empty_is_empty_string(self):
        assert events_jsonl(Observer()) == ""


class TestExporterEdgeCases:
    """Degenerate observers must still export valid artifacts."""

    def test_empty_observer_writes_valid_chrome_json(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(path, Observer())
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == []
        assert loaded["displayTimeUnit"] == "ns"

    def test_counter_only_run(self, tmp_path):
        obs = Observer()
        obs.tick_counter("retries.0", ts=100)
        obs.tick_counter("retries.0", ts=200)
        obs.counter("kernel.arrivals", 3)      # scalar only, no samples
        doc = chrome_trace(obs)
        phases = sorted({e["ph"] for e in doc["traceEvents"]})
        assert phases == ["C"]                 # no spans/instants/meta
        values = [e["args"]["value"] for e in doc["traceEvents"]]
        assert values == [1, 2]
        path = tmp_path / "counters.json"
        write_chrome_trace(path, obs)
        assert json.loads(path.read_text())["traceEvents"] == \
            doc["traceEvents"]
        # JSONL mirrors the same two samples.
        lines = events_jsonl(obs).strip().split("\n")
        assert [json.loads(line)["type"] for line in lines] == \
            ["counter", "counter"]

    def test_zero_completed_jobs_still_valid(self, tmp_path):
        from repro.obs.profile import run_profile

        # 50 µs horizon: jobs arrive and the scheduler runs, but no job
        # can finish — the trace must still be a valid Chrome document.
        prof = run_profile(workload="step", horizon_us=50, seed=0)
        assert prof.observer.counters.get("kernel.completions", 0) == 0
        assert not any(i.name == "complete"
                       for i in prof.observer.instants)
        path = tmp_path / "nocomplete.json"
        write_chrome_trace(path, prof.observer)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)
        meta = [e for e in loaded["traceEvents"] if e["ph"] == "M"]
        assert meta, "thread metadata must still label the lanes"
        # And the summary table renders without a completions section.
        text = render_summary(prof.observer.summary())
        assert "counters:" in text


class TestRenderSummary:
    def test_disabled(self):
        text = render_summary({"enabled": False})
        assert "observability disabled" in text

    def test_sections_present(self):
        obs = _sample_observer()
        obs.histogram("job.retries", 2.0)
        obs.decision(3, 100, 5_000)
        text = render_summary(obs.summary(), title="profile: test")
        assert text.startswith("profile: test")
        assert "counters:" in text
        assert "retries.2" in text
        assert "histograms" in text
        assert "scheduler decisions: 1" in text
        assert "n=  3" in text

    def test_empty_histogram_renders_n0(self):
        obs = Observer()
        obs.histograms["empty"] = Histogram()
        text = render_summary(obs.summary())
        assert "n=0" in text
