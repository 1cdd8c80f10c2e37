"""Crash-isolated worker pool: retry taxonomy, rebuilds, deadlines."""

import os
import threading
import time

import pytest

from repro.api import quick_scenario, simulate
from repro.campaign import CampaignConfig, CampaignEngine
from repro.campaign.chaos import ChaosPlan
from repro.campaign.spec import TransientTrialError
from repro.scenario import Scenario
from repro.serve import pool as serve_pool
from repro.serve.pool import (PoolFailure, SimulationPool, result_payload,
                              simulate_trial)


def scenario_dict(seed=1):
    return quick_scenario(n_tasks=3, horizon_us=5_000,
                          seed=seed).to_dict()


def trial_always_transient():
    raise TransientTrialError("never recovers")


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


def lines(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


def released_trial(scenario_dict, starts=None, marker=None, delay=0.0):
    """Sleep ``delay``; log each start to ``starts``, then wait for
    ``marker`` to exist before simulating (``None``: simulate at once)."""
    time.sleep(delay)
    if starts is not None:
        with open(starts, "a") as handle:
            handle.write("start\n")
        wait_for(lambda: os.path.exists(marker))
    return simulate_trial(scenario_dict)


def simulate_released(scenario_dict):
    """``simulate_trial`` for a wire dict that may carry a ``release``
    pair of paths for :func:`released_trial`."""
    release = scenario_dict.pop("release", None) or (None, None)
    return released_trial(scenario_dict, *release)


NO_SLEEP = staticmethod(lambda _s: None)


@pytest.fixture
def pool_factory():
    pools = []

    def make(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("sleep", lambda _s: None)   # skip real backoff
        pool = SimulationPool(**kwargs)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.shutdown()


class TestExecute:
    def test_returns_the_canonical_payload(self, pool_factory):
        pool = pool_factory()
        wire = scenario_dict()
        payload = pool.execute(wire)
        scenario = Scenario.from_dict(wire)
        assert payload == result_payload(scenario, simulate(scenario))
        assert payload["scenario_digest"] == scenario.digest()
        assert pool.executions == 1

    def test_transient_failure_is_retried(self, pool_factory):
        pool = pool_factory(chaos=ChaosPlan(transient=(0,)), max_attempts=3)
        payload = pool.execute(scenario_dict())
        assert payload["jobs"] >= 0
        assert pool.retries == 1
        assert pool.failure_kinds == {"transient": 1}

    def test_worker_crash_is_retried_after_rebuild(self, pool_factory):
        pool = pool_factory(chaos=ChaosPlan(crash=(0,)), max_attempts=3)
        payload = pool.execute(scenario_dict())
        assert payload["unfinished"] >= 0
        assert pool.rebuilds >= 1
        assert pool.failure_kinds.get("crash", 0) >= 1

    def test_hung_worker_times_out_and_retries(self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
            trial_timeout=0.5, max_attempts=2)
        started = time.monotonic()
        payload = pool.execute(scenario_dict())
        assert payload["seed"] == 1
        assert time.monotonic() - started < 10.0   # did not wait out the hang
        assert pool.failure_kinds == {"timeout": 1}
        assert pool.rebuilds == 1

    def test_exhausted_attempts_raise_with_the_terminal_kind(
            self, pool_factory):
        pool = pool_factory(max_attempts=2)
        with pytest.raises(PoolFailure) as err:
            pool.run(0, lambda _attempt: (trial_always_transient, (), {}))
        assert err.value.kind == "transient"
        assert err.value.attempts == 2

    def test_chaos_is_addressed_by_request_not_by_retry(self, pool_factory):
        # Request 0 crashes on its first attempt only; its retry keeps
        # index 0, so the faults planned for requests 1 and 2 stay theirs.
        pool = pool_factory(chaos=ChaosPlan(crash=(0, 1, 2)),
                            max_attempts=3)
        assert pool.execute(scenario_dict())["seed"] == 1
        assert pool.failure_kinds == {"crash": 1}
        assert pool.retries == 1

    def test_scenario_error_is_not_retried(self, pool_factory):
        pool = pool_factory(max_attempts=3)
        with pytest.raises(PoolFailure) as err:
            pool.execute({"bogus": True})
        assert err.value.kind == "exception"
        assert err.value.attempts == 1            # no retry on bad input
        assert pool.retries == 0


class TestDeadline:
    def test_exhausted_deadline_fails_before_dispatch(self, pool_factory):
        pool = pool_factory()
        with pytest.raises(PoolFailure) as err:
            pool.execute(scenario_dict(), deadline=time.monotonic() - 1.0)
        assert err.value.kind == "deadline"

    def test_deadline_cancels_a_running_trial(self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0, 1), hang_seconds=30.0),
            trial_timeout=None, max_attempts=3)
        started = time.monotonic()
        with pytest.raises(PoolFailure) as err:
            pool.execute(scenario_dict(), deadline=time.monotonic() + 0.4)
        assert err.value.kind == "deadline"
        assert time.monotonic() - started < 10.0
        assert pool.retries == 0                  # client is gone: no retry

    def test_trial_timeout_wins_when_shorter_than_deadline(
            self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
            trial_timeout=0.4, max_attempts=2)
        payload = pool.execute(scenario_dict(),
                               deadline=time.monotonic() + 30.0)
        assert payload["seed"] == 1               # retried as a timeout


class TestCollateral:
    """Trial A hangs past the trial timeout while trial B is in flight on
    the other worker, blocked until the test creates a marker after the
    rebuild: the timeout is charged to A alone, B re-runs uncharged.
    B starts ``SPACING`` seconds after A, so A's timer runs out first."""

    SPACING = 0.5

    def test_served_bystander_of_a_timeout_kill_is_not_charged(
            self, pool_factory, monkeypatch, tmp_path):
        monkeypatch.setattr(serve_pool, "simulate_trial", simulate_released)
        starts, marker = str(tmp_path / "starts"), str(tmp_path / "go")
        pool = pool_factory(workers=2, trial_timeout=1.0, max_attempts=3,
                            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0))
        results = {}

        def request(name, wire):
            results[name] = pool.execute(wire)

        hung = threading.Thread(target=request, args=("A", scenario_dict(1)))
        hung.start()
        wait_for(lambda: pool.busy == 1)
        time.sleep(self.SPACING)
        bystander = dict(scenario_dict(2), release=(starts, marker))
        blocked = threading.Thread(target=request, args=("B", bystander))
        blocked.start()
        wait_for(lambda: lines(starts) == 1)
        wait_for(lambda: pool.rebuilds == 1)
        open(marker, "w").close()
        hung.join(30.0)
        blocked.join(30.0)
        assert not hung.is_alive() and not blocked.is_alive()
        assert results["A"]["seed"] == 1 and results["B"]["seed"] == 2
        assert pool.failure_kinds == {"timeout": 1}     # A's, not B's
        assert pool.retries == 1
        assert lines(starts) == 2                      # B re-ran once

    def test_campaign_bystander_of_a_timeout_kill_is_not_charged(
            self, tmp_path):
        starts, marker = str(tmp_path / "starts"), str(tmp_path / "go")

        def release():
            wait_for(lambda: lines(starts) == 2)       # B's re-run
            open(marker, "w").close()

        releaser = threading.Thread(target=release, daemon=True)
        releaser.start()
        with CampaignEngine(CampaignConfig(
                workers=2, timeout=1.0, backoff_base=0.01,
                chaos=ChaosPlan(hang=(0,), hang_seconds=30.0))) as engine:
            # Trial 1 holds the second worker for SPACING, then B starts.
            result = engine.map(released_trial,
                                [(scenario_dict(1),),
                                 (scenario_dict(3), None, None, self.SPACING),
                                 (scenario_dict(2), starts, marker)])
        releaser.join(30.0)
        assert not releaser.is_alive()
        hung, _, bystander = result.outcomes
        assert [f.kind for f in hung.failures] == ["timeout"]
        assert bystander.ok and bystander.attempts == 1
        assert bystander.failures == []
        assert bystander.value["seed"] == 2


class TestResultPayload:
    def test_is_deterministic_and_json_stable(self):
        scenario = Scenario.from_dict(scenario_dict(seed=9))
        first = result_payload(scenario, simulate(scenario))
        second = result_payload(scenario, simulate(scenario))
        assert first == second
        import json
        json.dumps(first)                          # JSON-serializable
