"""Chaos acceptance: the service never serves a wrong result.

Under sustained load with injected worker crashes, a hung trial, and a
corrupted cache entry (ISSUE 6 acceptance criteria):

* every 200 response is byte-identical to a clean ``simulate(scenario)``
  run at the same seed (crashes, retries, rebuilds and cache round-trips
  are invisible in the payload);
* overload is shed with 429s, never queued unboundedly;
* no 5xx caused by the injected faults (retries absorb them);
* the circuit breaker re-closes after the fault burst passes.
"""

import json
import time

import pytest

from repro.api import quick_scenario, simulate
from repro.campaign.chaos import ChaosPlan
from repro.scenario import Scenario
from repro.serve import LoadConfig, ServeApp, ServeConfig, run_load
from repro.serve.breaker import CLOSED
from repro.serve.cache import canonical_payload_json
from repro.serve.pool import result_payload


@pytest.mark.slow
def test_chaos_load_never_serves_a_wrong_result(tmp_path):
    chaos = ChaosPlan(crash=(1, 4), transient=(6,), hang=(2,),
                      hang_seconds=30.0)
    config = ServeConfig(
        workers=2,
        queue_capacity=8,
        queue_watermark=4,
        trial_timeout=0.5,          # kills the hung trial fast
        max_attempts=3,             # retries absorb every injected fault
        breaker_threshold=5,
        breaker_reset_s=0.5,
        default_deadline_s=30.0,
        cache_dir=str(tmp_path / "cache"),
        drain_grace_s=2.0,
        chaos=chaos,
    )
    app = ServeApp(config).start()
    try:
        # Prime the cache with the load run's first scenario, then
        # corrupt the entry on disk: the run must quarantine it and
        # recompute, not serve the damage.
        load_config = LoadConfig(
            url=app.url,
            consumers=4,
            rate=40.0,
            duration_s=1.5,
            seed=0,
            n_scenarios=4,
            n_tasks=4,
            horizon_us=10_000,
            deadline_s=30.0,
            verify=True,            # byte-compare vs clean local runs
        )
        from repro.serve.loadgen import _build_scenarios
        prime = _build_scenarios(load_config)[0]
        status, payload, _ = app.handle_simulate(json.dumps(
            {"scenario": prime}).encode())
        assert status == 200
        entry = app.cache.path_for(payload["digest"])
        entry.write_text(entry.read_text()[:-30] + "GARBAGE-TAIL")

        report = run_load(load_config)
    finally:
        drain = app.shutdown(grace_s=5.0, reason="test over")

    outcomes = report["outcomes"]
    # Every accepted request was answered correctly: the injected
    # crashes, the hang, the transient and the corrupt entry produced
    # zero 5xx and zero wrong bytes.
    assert outcomes["failed"] == 0, report
    assert outcomes["unavailable"] == 0, report
    assert outcomes["transport_error"] == 0, report
    assert outcomes["ok"] > 0
    assert report["verification"]["mismatches"] == []
    assert report["verification"]["verified"] >= 1

    # The faults actually fired and were absorbed.  (The hung trial may
    # surface as "timeout" or as "crash" collateral of a concurrent
    # crash's pool rebuild; both are retryable.)
    kinds = app.pool.failure_kinds
    assert kinds.get("crash", 0) >= 2
    assert kinds.get("crash", 0) + kinds.get("timeout", 0) >= 3
    assert app.pool.retries >= 3
    assert app.pool.rebuilds >= 1
    assert app.cache.stats()["corrupt"] == 1        # the tampered entry
    assert app.cache.stats()["hits"] > 0            # repeats hit the cache

    # Breaker ended the run closed (it may never have tripped: that is
    # the point of retry absorption).
    assert app.breaker.state == CLOSED
    assert drain["unfinished"] == 0


@pytest.mark.slow
def test_overload_sheds_429_and_recovers(tmp_path):
    """A single worker pinned by a hung trial behind a tiny queue: the
    flood is shed with 429s while the queue depth stays bounded, and
    service recovers once the hang is killed."""
    config = ServeConfig(
        workers=1,
        queue_capacity=2,
        queue_watermark=1,
        trial_timeout=0.6,
        max_attempts=2,
        default_deadline_s=30.0,
        cache_dir=str(tmp_path / "cache"),
        drain_grace_s=2.0,
        chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
    )
    app = ServeApp(config).start()
    try:
        report = run_load(LoadConfig(
            url=app.url,
            consumers=4,
            rate=60.0,
            duration_s=1.0,
            seed=1,
            n_scenarios=3,
            n_tasks=4,
            horizon_us=10_000,
            deadline_s=30.0,
        ))
        assert app.queue.depth() <= config.queue_capacity
    finally:
        app.shutdown(grace_s=5.0, reason="test over")

    outcomes = report["outcomes"]
    assert outcomes["shed"] > 0                     # overload answered 429
    assert outcomes["ok"] > 0                       # ... but not starved
    assert outcomes["failed"] == 0
    assert app.queue.shed_total > 0
    # Served results still byte-match clean runs (passive check: any
    # divergent 200 for one digest would have been recorded).
    assert report["verification"]["mismatches"] == [] \
        if "verification" in report else True


@pytest.mark.slow
def test_breaker_trips_under_fault_burst_then_recloses(tmp_path):
    """With retries disabled, a crash burst trips the breaker: clients
    get fast 503s instead of queue timeouts, and one clean probe after
    the reset timer re-closes it — end-to-end over HTTP."""
    config = ServeConfig(
        workers=1,
        max_attempts=1,                 # every crash is terminal
        breaker_threshold=2,
        breaker_reset_s=0.4,
        trial_timeout=10.0,
        default_deadline_s=20.0,
        cache_dir=str(tmp_path / "cache"),
        drain_grace_s=2.0,
        chaos=ChaosPlan(crash=(0, 1)),
    )
    app = ServeApp(config).start()
    try:
        def post(seed):
            scenario = quick_scenario(n_tasks=3, horizon_us=5_000,
                                      seed=seed)
            return app.handle_simulate(json.dumps(
                {"scenario": scenario.to_dict(),
                 "deadline_s": 20.0}).encode())

        assert post(100)[0] == 500      # crash 1
        assert post(101)[0] == 500      # crash 2 -> trips
        status, payload, headers = post(102)
        assert status == 503 and payload["reason"] == "breaker"
        time.sleep(0.45)                # half-open
        status, payload, _ = post(103)  # probe, chaos exhausted: succeeds
        assert status == 200
        assert app.breaker.state == CLOSED

        # And the recovered service serves correct bytes.
        scenario = Scenario.from_dict(
            quick_scenario(n_tasks=3, horizon_us=5_000, seed=103).to_dict())
        clean = result_payload(scenario, simulate(scenario))
        assert canonical_payload_json(payload["result"]) == \
            canonical_payload_json(clean)
    finally:
        app.shutdown(grace_s=2.0, reason="test over")
