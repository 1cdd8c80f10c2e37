"""Write-ahead request log: a torn tail must not swallow the next admit."""

import json
import sys
import threading
import time

from repro.api import quick_scenario
from repro.serve import RequestLog, ServeApp, ServeConfig

TORN = b'{"deadline_s": null, "digest": "ab'      # cut mid-record


def scenario_dict(seed=3):
    return quick_scenario(n_tasks=3, horizon_us=5_000, seed=seed).to_dict()


def test_append_after_a_lone_torn_line_is_loaded(tmp_path):
    path = tmp_path / "requests.jsonl"
    path.write_bytes(TORN)
    log = RequestLog(path)
    log.append("cd" * 32, scenario_dict(), priority=2.0, deadline_s=5.0)
    log.close()
    entries = RequestLog(path).load()
    assert [entry["digest"] for entry in entries] == ["cd" * 32]
    assert entries[0]["priority"] == 2.0
    assert entries[0]["scenario"] == scenario_dict()


def test_appended_lines_keep_their_bytes(tmp_path):
    path = tmp_path / "requests.jsonl"
    log = RequestLog(path)
    log.append("cd" * 32, {"seed": 1})
    log.close()
    assert path.read_bytes() == (json.dumps(
        {"type": "request", "digest": "cd" * 32, "scenario": {"seed": 1},
         "priority": 1.0, "deadline_s": None}, sort_keys=True)
        + "\n").encode()


def _wait_recovered(app, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while (not app.recovery_status["complete"]
           and time.monotonic() < deadline):
        time.sleep(0.02)
    return app.recovery_status


def test_serve_app_on_a_torn_only_wal_recovers_the_admitted_request(
        tmp_path):
    wal = tmp_path / "requests.jsonl"
    wal.write_bytes(TORN)

    def config(cache):
        return ServeConfig(workers=1, trial_timeout=20.0,
                           drain_grace_s=2.0, request_log=str(wal),
                           cache_dir=str(tmp_path / cache))

    app = ServeApp(config("cache")).start()
    try:
        status, payload, _ = app.handle_simulate(json.dumps(
            {"scenario": scenario_dict()}).encode())
        assert status == 200
        digest = payload["digest"]
    finally:
        app.shutdown(grace_s=2.0)

    # A fresh cache stands in for a kill -9 that lost the result before
    # it landed: the restart must find the request in the WAL and serve
    # it exactly once.
    restarted = ServeApp(config("fresh-cache")).start()
    try:
        assert _wait_recovered(restarted) == {
            "enabled": True, "recovered": 1, "pending": 0,
            "complete": True}
        assert restarted.cache.get(digest) == payload["result"]
        assert restarted.pool.executions == 1
    finally:
        restarted.shutdown(grace_s=0.0)


def test_concurrent_appends_are_whole_lines_and_all_counted(tmp_path):
    log = RequestLog(tmp_path / "requests.jsonl")
    threads, per_thread = 8, 25
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda t=t: [
            log.append(f"{t:02x}{i:02x}" * 16, {"seed": i})
            for i in range(per_thread)]) for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(previous)
        log.close()
    assert log.appended == threads * per_thread
    assert len(RequestLog(log.path).load()) == threads * per_thread
