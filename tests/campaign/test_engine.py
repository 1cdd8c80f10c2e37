"""Serial-mode engine tests: retry, backoff schedule, classification.

Everything here runs in-process (``workers=1``) with an injected fake
``sleep``, so the retry/backoff behavior is tested without real waiting.
"""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    ChaosPlan,
    SimulatedWorkerCrash,
    TransientTrialError,
    as_engine,
)
from repro.campaign.engine import BACKOFF_BASE, BACKOFF_CAP
from repro.campaign.seeding import backoff_delay, derive_seed
from repro.campaign.spec import TrialSpec

# Per-test mutable state for trial functions (serial mode runs them
# in-process, so plain module globals are visible to assertions).
CALLS: dict[str, int] = {}


def trial_value(seed):
    return seed * 10


def trial_flaky(key, fail_times, value):
    CALLS[key] = CALLS.get(key, 0) + 1
    if CALLS[key] <= fail_times:
        raise TransientTrialError(f"flaky attempt {CALLS[key]}")
    return value


def trial_boom():
    raise ValueError("deterministic bug")


def trial_always_transient():
    raise TransientTrialError("never recovers")


def trial_simulated_crash(key):
    CALLS[key] = CALLS.get(key, 0) + 1
    if CALLS[key] == 1:
        raise SimulatedWorkerCrash("worker died")
    return "recovered"


def _engine(config=None, **kwargs):
    sleeps = []
    engine = CampaignEngine(config or CampaignConfig(),
                            sleep=sleeps.append, **kwargs)
    return engine, sleeps


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


class TestSerialExecution:
    def test_map_returns_values_in_trial_order(self):
        engine, _ = _engine()
        result = engine.map(trial_value, [(3,), (1,), (2,)])
        assert result.values == [30, 10, 20]
        assert result.ok

    def test_success_outcome_shape(self):
        engine, _ = _engine()
        outcome = engine.map(trial_value, [(5,)]).outcomes[0]
        assert outcome.ok and outcome.value == 50
        assert outcome.attempts == 1
        assert outcome.failures == []
        assert not outcome.from_journal

    def test_global_indices_span_batches(self):
        engine, _ = _engine()
        first = engine.map(trial_value, [(1,), (2,)])
        second = engine.map(trial_value, [(3,)])
        assert [o.index for o in first.outcomes] == [0, 1]
        assert [o.index for o in second.outcomes] == [2]
        assert len(engine.outcomes) == 3

    def test_kwargs_reach_the_trial(self):
        engine, _ = _engine()
        spec = TrialSpec(index=0, fn=trial_flaky,
                         kwargs=(("key", "kw"), ("fail_times", 0),
                                 ("value", "v")))
        assert engine.run([spec]).values == ["v"]


class TestRetrySemantics:
    def test_transient_failure_retried_until_success(self):
        engine, sleeps = _engine()
        outcome = engine.map(trial_flaky, [("t1", 2, "done")]).outcomes[0]
        assert outcome.ok and outcome.value == "done"
        assert outcome.attempts == 3
        assert [f.kind for f in outcome.failures] == ["transient"] * 2
        assert [f.attempt for f in outcome.failures] == [0, 1]
        assert len(sleeps) == 2

    def test_backoff_schedule_is_seeded_and_reproducible(self):
        cfg = CampaignConfig(max_attempts=3, retry_seed=99)
        engine, sleeps = _engine(cfg)
        engine.map(trial_always_transient, [()])
        expected = [
            backoff_delay(attempt, base=BACKOFF_BASE, cap=BACKOFF_CAP,
                          seed=derive_seed(99, 0, f"backoff:{attempt}"))
            for attempt in range(2)      # no sleep after the final attempt
        ]
        assert sleeps == expected
        engine2, sleeps2 = _engine(cfg)
        engine2.map(trial_always_transient, [()])
        assert sleeps2 == sleeps

    def test_deterministic_exception_not_retried(self):
        engine, sleeps = _engine()
        outcome = engine.map(trial_boom, [()]).outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == 1
        assert [f.kind for f in outcome.failures] == ["exception"]
        assert "deterministic bug" in outcome.failures[0].message
        assert sleeps == []

    def test_exhausted_attempts_fail_terminally(self):
        engine, _ = _engine(CampaignConfig(max_attempts=3))
        result = engine.map(trial_always_transient, [()])
        outcome = result.outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == 3
        assert len(outcome.failures) == 3
        assert result.failed == [outcome]
        assert result.values == []

    def test_max_attempts_one_disables_retry(self):
        engine, sleeps = _engine(CampaignConfig(max_attempts=1))
        outcome = engine.map(trial_always_transient, [()]).outcomes[0]
        assert not outcome.ok and outcome.attempts == 1
        assert sleeps == []

    def test_simulated_crash_classified_and_retried(self):
        engine, _ = _engine()
        outcome = engine.map(trial_simulated_crash, [("c1",)]).outcomes[0]
        assert outcome.ok and outcome.value == "recovered"
        assert [f.kind for f in outcome.failures] == ["crash"]


class TestChaosSerial:
    def test_transient_chaos_recovers_to_identical_values(self):
        clean, _ = _engine()
        clean_values = clean.map(trial_value, [(1,), (2,), (3,)]).values

        chaotic, _ = _engine(CampaignConfig(
            chaos=ChaosPlan(transient=(0, 2))))
        result = chaotic.map(trial_value, [(1,), (2,), (3,)])
        assert result.values == clean_values
        kinds = [f.kind for f in result.failures]
        assert kinds == ["transient", "transient"]

    def test_crash_chaos_recovers_serially(self):
        engine, _ = _engine(CampaignConfig(chaos=ChaosPlan(crash=(1,))))
        result = engine.map(trial_value, [(1,), (2,)])
        assert result.values == [10, 20]
        assert [f.kind for f in result.failures] == ["crash"]


class TestStats:
    def test_stats_aggregate_outcomes(self):
        engine, _ = _engine(CampaignConfig(max_attempts=2))
        engine.map(trial_value, [(1,)])
        engine.map(trial_boom, [()])
        engine.map(trial_always_transient, [()])
        stats = engine.stats()
        assert stats.trials == 3
        assert stats.completed == 1
        assert stats.failed_trials == 2
        assert dict(stats.attempt_failures) == {"exception": 1,
                                                "transient": 2}
        assert stats.workers == 1
        line = stats.summary_line()
        assert "3 trials" in line and "2 failed" in line


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(workers=0)
        with pytest.raises(ValueError):
            CampaignConfig(max_attempts=0)
        with pytest.raises(ValueError):
            CampaignConfig(timeout=0.0)

    def test_as_engine_normalizes(self):
        assert as_engine(None, tag="t") is None
        engine = as_engine(CampaignConfig(), tag="t")
        assert isinstance(engine, CampaignEngine) and engine.tag == "t"
        assert as_engine(engine, tag="other") is engine
        with pytest.raises(TypeError):
            as_engine(object(), tag="t")
