"""``run_profile`` smoke and determinism tests."""

import pytest

from repro.obs.exporters import chrome_trace, write_chrome_trace
from repro.obs.profile import (
    PROFILE_SYNCS,
    PROFILE_WORKLOADS,
    run_profile,
)

HORIZON_US = 20_000   # short horizon keeps these fast


def _small(**kwargs):
    kwargs.setdefault("n_tasks", 5)
    kwargs.setdefault("n_objects", 4)
    kwargs.setdefault("horizon_us", HORIZON_US)
    return run_profile(**kwargs)


class TestRunProfile:
    def test_headline_keys(self):
        prof = _small()
        headline = prof.headline()
        assert headline["workload"] == "step"
        assert headline["sync"] == "lockfree"
        assert headline["horizon"] == HORIZON_US * 1000
        for key in ("wall_s", "aur", "cmr", "jobs", "retries",
                    "blockings", "scheduler_invocations"):
            assert key in headline

    def test_observer_populated(self):
        prof = _small()
        assert prof.observer.counters.get("kernel.arrivals", 0) > 0
        assert any(s.name == "sched.decision" for s in prof.observer.spans)
        assert prof.tracer is not None and prof.tracer.events

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown profile workload"):
            _small(workload="nope")

    def test_unknown_retry_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy"):
            _small(retry_policy="nope")

    @pytest.mark.parametrize("workload", PROFILE_WORKLOADS)
    def test_all_workloads_run(self, workload):
        prof = _small(workload=workload)
        assert len(prof.result.records) > 0

    @pytest.mark.parametrize("sync", PROFILE_SYNCS)
    def test_all_syncs_run(self, sync):
        prof = _small(sync=sync)
        assert prof.sync == sync


class TestProfileDeterminism:
    def test_fixed_seed_trace_is_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            prof = _small(seed=13)
            path = tmp_path / f"trace{run}.json"
            write_chrome_trace(path, prof.observer, prof.tracer)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        a = chrome_trace(_small(seed=0).observer)
        b = chrome_trace(_small(seed=1).observer)
        assert a != b

    def test_step_workload_has_retry_counters_and_decision_spans(self):
        # The acceptance-criterion artifact: scheduler-decision spans and
        # per-object retry counter tracks in the default step profile.
        prof = _small(workload="step", horizon_us=50_000)
        doc = chrome_trace(prof.observer, prof.tracer)
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "sched.decision"
                   for e in events)
        assert any(e["ph"] == "C" and e["name"].startswith("retries.")
                   for e in events)
