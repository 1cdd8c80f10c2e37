"""SIGTERM drain, exercised against a real ``repro serve`` process."""

import http.client
import json
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

REPO = pathlib.Path(__file__).parent.parent.parent


@pytest.mark.slow
def test_sigterm_drains_and_exits_zero(tmp_path):
    summary = tmp_path / "serve.json"
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0", "--workers", "1",
         "--cache-dir", str(tmp_path / "cache"),
         "--drain-grace", "5",
         "--json", str(summary)],
        cwd=REPO, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # The startup banner prints the ephemeral port.
        line = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"no URL in startup banner: {line!r}"
        port = int(match.group(1))

        # Serve one real request so the drain has state behind it.
        from repro.api import quick_scenario
        scenario = quick_scenario(n_tasks=3, horizon_us=5_000, seed=2)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        connection.request("POST", "/simulate", body=json.dumps(
            {"scenario": scenario.to_dict()}).encode())
        response = connection.getresponse()
        body = json.loads(response.read())
        connection.close()
        assert response.status == 200

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        assert returncode == 0              # a drain is a success

        payload = json.loads(summary.read_text())
        assert payload["command"] == "serve"
        assert payload["drain"]["reason"] == "SIGTERM"
        assert payload["stats"]["responses"]["200"] == 1
        assert payload["stats"]["cache"]["writes"] == 1
        # Nothing was left behind.
        assert payload["drain"]["unfinished"] == 0
        assert body["cached"] is False
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


@pytest.mark.slow
def test_duration_mode_exits_zero_without_signals(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--duration", "0.2", "--drain-grace", "1",
         "--cache-dir", str(tmp_path / "cache")],
        cwd=REPO, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "drained (duration elapsed)" in result.stdout
