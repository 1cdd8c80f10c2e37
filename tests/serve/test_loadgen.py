"""repro load measures from the scheduled arrival (no coordinated
omission) and reports the send lag separately."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import LoadConfig, run_load

SERVICE_S = 0.03


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        time.sleep(SERVICE_S)
        body = json.dumps({"cached": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_latency_counts_the_wait_behind_a_slow_response(slow_url):
    # One consumer, arrivals every 10 ms, 30 ms per response: the
    # consumer falls further behind with every request.  Timed from the
    # actual send, every request would read ~30 ms.
    report = run_load(LoadConfig(url=slow_url, consumers=1, rate=100.0,
                                 duration_s=0.2, n_scenarios=1,
                                 n_tasks=2, horizon_us=1_000))
    assert report["outcomes"]["ok"] == report["requests_sent"] == 20
    lag, latency = report["lag_s"], report["latency_s"]
    # The last request is scheduled ~0.19 s in, but goes out only after
    # 19 earlier responses of 30 ms each (~0.57 s).
    assert lag["max"] > 0.25, lag
    assert latency["max"] >= lag["max"] + SERVICE_S * 0.9, report
    assert latency["p50"] > 3 * SERVICE_S, latency
    assert lag["p50"] <= lag["p99"] <= lag["max"]


def test_lag_stays_small_when_the_server_keeps_up(slow_url):
    report = run_load(LoadConfig(url=slow_url, consumers=2, rate=20.0,
                                 duration_s=0.3, n_scenarios=1,
                                 n_tasks=2, horizon_us=1_000))
    assert report["outcomes"]["ok"] == report["requests_sent"]
    assert report["lag_s"]["p50"] < SERVICE_S
    assert report["latency_s"]["p50"] >= SERVICE_S
