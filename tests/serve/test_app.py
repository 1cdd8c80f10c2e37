"""ServeApp end-to-end: request pipeline, HTTP surface, drain."""

import http.client
import json
import re
import threading
import time

import pytest

from repro.api import quick_scenario
from repro.campaign.chaos import ChaosPlan
from repro.serve import RequestLog, ServeApp, ServeConfig
from repro.serve.breaker import CLOSED, OPEN


def scenario_body(seed=1, n_tasks=3, horizon_us=5_000, **extra):
    scenario = quick_scenario(n_tasks=n_tasks, horizon_us=horizon_us,
                              seed=seed)
    return json.dumps({"scenario": scenario.to_dict(), **extra}).encode()


def make_config(tmp_path, **overrides):
    overrides.setdefault("workers", 1)
    overrides.setdefault("cache_dir", str(tmp_path / "cache"))
    overrides.setdefault("trial_timeout", 20.0)
    overrides.setdefault("drain_grace_s", 2.0)
    return ServeConfig(**overrides)


@pytest.fixture
def app_factory(tmp_path, monkeypatch):
    apps = []

    def make(start=True, dispatch=True, **overrides):
        app = ServeApp(make_config(tmp_path, **overrides))
        apps.append(app)
        if not dispatch:
            # Started, but the dispatchers never take: the queue can
            # only fill.
            monkeypatch.setattr(app.queue, "take",
                                lambda timeout=None: time.sleep(timeout))
        if start:
            app.start()
        return app

    yield make
    for app in apps:
        app.close()


class TestSimulatePipeline:
    def test_compute_then_cache_hit_byte_identical(self, app_factory):
        app = app_factory()
        status, first, _ = app.handle_simulate(scenario_body())
        assert status == 200 and first["cached"] is False
        status, second, _ = app.handle_simulate(scenario_body())
        assert status == 200 and second["cached"] is True
        assert first["result"] == second["result"]
        assert first["digest"] == second["digest"]
        assert app.cache.stats()["hits"] == 1

    def test_corrupted_cache_entry_recomputes_same_bytes(self, app_factory):
        app = app_factory()
        _, first, _ = app.handle_simulate(scenario_body())
        path = app.cache.path_for(first["digest"])
        path.write_text(path.read_text()[:40])     # tear the entry
        status, again, _ = app.handle_simulate(scenario_body())
        assert status == 200 and again["cached"] is False
        assert again["result"] == first["result"]  # recompute, not garbage
        assert app.cache.stats()["corrupt"] == 1

    def test_bad_requests_are_400(self, app_factory):
        app = app_factory(start=False)
        for body in (b"", b"not json", b"[1,2]",
                     b'{"scenario": {"bogus": 1}}',
                     b'{"scenario": 7}'):
            status, payload, _ = app.handle_simulate(body)
            assert status == 400, body
            assert payload["error"] in ("bad_request", "bad_scenario")
        status, payload, _ = app.handle_simulate(
            scenario_body(deadline_s=-1))
        assert status == 400
        status, payload, _ = app.handle_simulate(
            scenario_body(priority="high"))
        assert status == 400

    def test_queue_full_sheds_429_with_retry_after(self, app_factory):
        app = app_factory(dispatch=False, queue_capacity=1,
                          queue_watermark=1)
        results = []
        first = threading.Thread(target=lambda: results.append(
            app.handle_simulate(scenario_body(seed=1, deadline_s=0.5))))
        first.start()
        deadline = time.monotonic() + 2.0
        while app.queue.depth() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        # Equal density at the watermark: shed immediately.
        status, payload, headers = app.handle_simulate(
            scenario_body(seed=2, deadline_s=5.0))
        assert status == 429
        assert payload["reason"] == "queue_full"
        assert "Retry-After" in headers
        first.join(timeout=5.0)
        status_first, _, _ = results[0]
        assert status_first == 504              # nobody served it

    def test_denser_request_evicts_and_answers_the_sparse_one(
            self, app_factory):
        app = app_factory(dispatch=False, queue_capacity=1,
                          queue_watermark=1)
        results = []
        sparse = threading.Thread(target=lambda: results.append(
            app.handle_simulate(
                scenario_body(seed=1, priority=1.0, deadline_s=10.0))))
        sparse.start()
        deadline = time.monotonic() + 2.0
        while app.queue.depth() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        done = threading.Event()
        dense_out = []

        def dense():
            dense_out.append(app.handle_simulate(
                scenario_body(seed=2, priority=50.0, deadline_s=0.3)))
            done.set()

        threading.Thread(target=dense).start()
        sparse.join(timeout=5.0)                # evicted -> answered now
        status, payload, _ = results[0]
        assert status == 429
        assert payload["reason"] == "evicted"
        done.wait(timeout=5.0)
        assert dense_out[0][0] == 504           # admitted, never dispatched

    def test_deadline_in_queue_is_504(self, app_factory):
        app = app_factory(dispatch=False)
        started = time.monotonic()
        status, payload, _ = app.handle_simulate(
            scenario_body(deadline_s=0.2))
        assert status == 504
        assert payload["reason"] == "deadline"
        assert 0.15 < time.monotonic() - started < 5.0

    def test_unstarted_app_refuses_a_miss_at_once(self, app_factory):
        app = app_factory(start=False)
        started = time.monotonic()
        status, payload, headers = app.handle_simulate(
            scenario_body(deadline_s=20))
        assert status == 503
        assert payload == {"error": "not_started", "reason": "not_started"}
        assert "Retry-After" in headers
        assert time.monotonic() - started < 1.0
        assert app.queue.depth() == 0

    def test_unstarted_app_still_serves_a_cache_hit(self, app_factory):
        status, first, _ = app_factory().handle_simulate(scenario_body())
        assert status == 200 and first["cached"] is False
        app = app_factory(start=False)      # same cache directory
        status, hit, _ = app.handle_simulate(scenario_body())
        assert status == 200 and hit["cached"] is True
        assert hit["result"] == first["result"]

    def test_start_admits_the_miss_it_refused(self, app_factory):
        app = app_factory(start=False)
        assert app.handle_simulate(scenario_body())[0] == 503
        app.start()
        status, payload, _ = app.handle_simulate(scenario_body())
        assert status == 200 and payload["cached"] is False


class TestBreaker:
    def test_trips_fast_fails_then_recovers(self, app_factory):
        app = app_factory(
            max_attempts=1,                      # crashes are terminal
            breaker_threshold=2, breaker_reset_s=0.3,
            chaos=ChaosPlan(crash=(0, 1)))
        for seed in (10, 11):                    # two crashing trials
            status, payload, _ = app.handle_simulate(
                scenario_body(seed=seed, deadline_s=20.0))
            assert status == 500
            assert payload["kind"] == "crash"
        assert app.breaker.state == OPEN
        # Hard-open: fast 503 without touching queue or pool.
        status, payload, headers = app.handle_simulate(
            scenario_body(seed=12, deadline_s=20.0))
        assert status == 503 and payload["reason"] == "breaker"
        assert "Retry-After" in headers
        time.sleep(0.35)                         # half-open timer
        status, payload, _ = app.handle_simulate(
            scenario_body(seed=13, deadline_s=20.0))
        assert status == 200                     # probe succeeded
        assert app.breaker.state == CLOSED
        assert app.breaker.transitions >= 3


class TestMetrics:
    def test_each_serve_count_is_reported_once(self, app_factory):
        """Responses and pool failures appear only as their labelled
        families, not again as per-status/per-kind observer counters."""
        app = app_factory(max_attempts=1, chaos=ChaosPlan(crash=(0,)))
        status, _, _ = app.handle_simulate(
            scenario_body(seed=20, deadline_s=20.0))
        assert status == 500
        status, _, _ = app.handle_simulate(
            scenario_body(seed=21, deadline_s=20.0))
        assert status == 200
        text = app.render_metrics()
        lines = text.splitlines()
        assert 'repro_serve_responses_total{code="200"} 1' in lines
        assert 'repro_serve_responses_total{code="500"} 1' in lines
        assert 'repro_serve_pool_failures_total{kind="crash"} 1' in lines
        assert re.findall(r"^repro_serve_(?:responses|pool_failures)_"
                          r"(?!total\{).*$", text, re.M) == []


class TestDrain:
    def test_queued_request_stays_in_the_wal_and_is_served_once(
            self, app_factory, tmp_path):
        wal = tmp_path / "requests.jsonl"
        app = app_factory(dispatch=False, request_log=str(wal))
        results = []
        waiter = threading.Thread(target=lambda: results.append(
            app.handle_simulate(scenario_body(seed=5, deadline_s=10.0))))
        waiter.start()
        deadline = time.monotonic() + 2.0
        while app.queue.depth() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        report = app.shutdown(grace_s=0.0, reason="SIGTERM")
        waiter.join(timeout=5.0)
        status, payload, _ = results[0]
        assert status == 503 and payload["error"] == "draining"
        assert report["unfinished"] == 1
        digest = payload["digest"]
        assert [e["digest"] for e in RequestLog(wal).load()] == [digest]
        # Draining app refuses fresh work.
        status, payload, headers = app.handle_simulate(scenario_body())
        assert status == 503 and "Retry-After" in headers

        # A second app on the same WAL and cache serves it exactly once.
        restarted = app_factory(request_log=str(wal))
        deadline = time.monotonic() + 30.0
        while (not restarted.recovery_status["complete"]
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert restarted.recovery_status == {
            "enabled": True, "recovered": 1, "pending": 0,
            "complete": True}
        status, payload, _ = restarted.handle_simulate(
            scenario_body(seed=5))
        assert status == 200 and payload["cached"] is True
        assert payload["digest"] == digest
        assert restarted.pool.executions == 1

    def test_grace_lets_inflight_work_finish(self, app_factory):
        app = app_factory()
        status, payload, _ = app.handle_simulate(scenario_body(seed=6))
        assert status == 200
        report = app.shutdown(grace_s=2.0)
        assert report["unfinished"] == 0
        assert app.stats()["draining"] is True


class TestHTTP:
    def post(self, app, path, body):
        connection = http.client.HTTPConnection("127.0.0.1", app.port,
                                                timeout=30)
        try:
            connection.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def get(self, app, path):
        connection = http.client.HTTPConnection("127.0.0.1", app.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_full_http_surface(self, app_factory):
        app = app_factory()
        status, payload = self.post(app, "/simulate", scenario_body(seed=8))
        assert status == 200
        digest = payload["digest"]

        status, raw = self.get(app, f"/result/{digest}")
        assert status == 200
        assert json.loads(raw)["result"] == payload["result"]
        assert self.get(app, "/result/" + "0" * 64)[0] == 404
        assert self.get(app, "/result/nope")[0] == 400

        status, raw = self.get(app, "/healthz")
        assert status == 200 and json.loads(raw)["status"] == "ok"

        status, raw = self.get(app, "/stats")
        stats = json.loads(raw)
        assert status == 200
        assert stats["cache"]["writes"] == 1
        assert stats["responses"].get("200") == 1

        status, raw = self.get(app, "/metrics")
        text = raw.decode()
        assert status == 200
        for name in ("repro_serve_queue_depth", "repro_serve_breaker_state",
                     "repro_serve_cache_hit_rate", "repro_serve_workers",
                     "repro_serve_responses", "repro_serve_worker_saturation"):
            assert name in text, name
        assert text.rstrip().endswith("# EOF")

        assert self.get(app, "/nothing")[0] == 404
        assert self.post(app, "/nothing", b"{}")[0] == 404
        assert self.post(app, "/simulate", b"x" * (1 << 20 + 1))[0] == 413

    def test_keepalive_hit_is_not_stalled(self, app_factory):
        """A cache hit on a reused keep-alive connection must answer at
        fresh-connection speed.  With Nagle on, each response's body
        waited for the client's delayed ACK of its headers (~40 ms)."""
        app = app_factory()
        body = scenario_body(seed=3)

        def timed(connection):
            began = time.perf_counter()
            connection.request("POST", "/simulate", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
            elapsed = time.perf_counter() - began
            assert response.status == 200
            return elapsed, payload

        keepalive = http.client.HTTPConnection("127.0.0.1", app.port,
                                               timeout=30)
        try:
            _, first = timed(keepalive)             # the one miss
            assert first["cached"] is False
            reused = []
            for _ in range(50):
                elapsed, payload = timed(keepalive)
                assert payload["cached"] is True
                reused.append(elapsed)
        finally:
            keepalive.close()
        fresh = []
        for _ in range(20):
            connection = http.client.HTTPConnection("127.0.0.1", app.port,
                                                    timeout=30)
            try:
                fresh.append(timed(connection)[0])
            finally:
                connection.close()

        reused_p50 = sorted(reused)[len(reused) // 2]
        fresh_p50 = sorted(fresh)[len(fresh) // 2]
        assert reused_p50 < 0.020, (reused_p50, fresh_p50)
        assert reused_p50 <= 3 * fresh_p50, (reused_p50, fresh_p50)

    def test_healthz_reports_draining(self, app_factory):
        app = app_factory()
        app.drain.begin("test")
        status, raw = self.get(app, "/healthz")
        assert status == 503
        assert json.loads(raw)["status"] == "draining"
