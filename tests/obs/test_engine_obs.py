"""Campaign-engine instrumentation: trial/retry/journal counters."""

from repro.campaign import CampaignConfig, CampaignEngine
from repro.campaign.spec import TransientTrialError
from repro.obs import Observer


def _double(x):
    return 2 * x


_FLAKY_CALLS = {"n": 0}


def _flaky_once(x):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise TransientTrialError("first call fails")
    return x


def _always_raises(x):
    raise RuntimeError("boom")


class TestSerialEngineObs:
    def test_trial_counters_and_wall_histogram(self):
        obs = Observer()
        engine = CampaignEngine(observer=obs)
        result = engine.map(_double, [(1,), (2,), (3,)])
        assert result.ok
        assert obs.counters["campaign.trials"] == 3
        assert obs.counters["campaign.ok"] == 3
        assert "campaign.failed" not in obs.counters
        assert obs.histograms["campaign.trial_wall_s"].count == 3

    def test_retry_and_backoff_instrumented(self):
        _FLAKY_CALLS["n"] = 0
        obs = Observer()
        engine = CampaignEngine(
            CampaignConfig(max_attempts=3),
            observer=obs, sleep=lambda s: None)
        result = engine.map(_flaky_once, [(7,)])
        assert result.ok
        assert obs.counters["campaign.retries"] == 1
        assert obs.counters["campaign.attempt_failures.transient"] == 1
        assert obs.histograms["campaign.backoff_s"].count == 1

    def test_terminal_failure_counted(self):
        obs = Observer()
        engine = CampaignEngine(observer=obs)
        result = engine.map(_always_raises, [(1,)])
        assert not result.ok
        assert obs.counters["campaign.failed"] == 1
        assert obs.counters["campaign.attempt_failures.exception"] == 1

    def test_journal_writes_counted(self, tmp_path):
        obs = Observer()
        journal = str(tmp_path / "campaign.jsonl")
        with CampaignEngine(CampaignConfig(journal=journal),
                            observer=obs) as engine:
            engine.map(_double, [(1,), (2,)])
        assert obs.counters["campaign.journal_writes"] == 2

    def test_resume_hits_counted(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        with CampaignEngine(CampaignConfig(journal=journal),
                            tag="t") as engine:
            engine.map(_double, [(1,), (2,)])
        obs = Observer()
        with CampaignEngine(CampaignConfig(resume=journal),
                            tag="t", observer=obs) as engine:
            result = engine.map(_double, [(1,), (2,)])
        assert result.ok
        assert obs.counters["campaign.from_journal"] == 2
        # Journal hits have no wall time (nothing ran).
        assert "campaign.trial_wall_s" not in obs.histograms

    def test_default_engine_records_nothing(self):
        engine = CampaignEngine()
        result = engine.map(_double, [(1,)])
        assert result.ok
        assert engine.obs.enabled is False


class TestParallelEngineObs:
    def test_parallel_counters_and_worker_histogram(self):
        obs = Observer()
        engine = CampaignEngine(CampaignConfig(workers=2), observer=obs)
        result = engine.map(_double, [(i,) for i in range(4)])
        assert result.ok
        assert result.values == [0, 2, 4, 6]
        assert obs.counters["campaign.trials"] == 4
        assert obs.counters["campaign.ok"] == 4
        assert obs.histograms["campaign.trial_wall_s"].count == 4
        busy = obs.histograms["campaign.workers_busy"]
        assert busy.count > 0
        assert max(busy.values) <= 2
