"""The crash harness: real ``kill -9`` at randomized points.

Two end-to-end recovery stories, each against live subprocesses:

* **mid-campaign** — a checkpointed campaign process is SIGKILLed after
  a randomized number of trials have been journaled; rerunning with
  ``--resume`` semantics must produce every trial's value exactly once
  (zero lost, zero duplicated — journaled trials are replayed from
  disk, interrupted ones resume or rerun).
* **mid-serve** — a serve process journaling admitted requests to the
  write-ahead log is SIGKILLed with work queued and in flight; the warm
  restart must recover every admitted request (zero lost), serve it
  exactly once (zero duplicated — the content-addressed cache is the
  commit record), answer no 5xx, and return payloads byte-identical to
  a local ``simulate()``.

Every child starts in its own session, so its pool workers share its
process group.  The mid-test kill hits the parent process alone (the
warm-restart check rebinds the port while its orphaned workers still
live); teardown SIGKILLs every group the test started, so no worker
outlives the test.
"""

import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

HERE = pathlib.Path(__file__).parent
REPO = HERE.parent.parent


def _env():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def spawn():
    """``spawn(cmd, **popen_kwargs)`` starts ``cmd`` as the leader of a
    new process group; every group is SIGKILLed at teardown."""
    groups = []

    def _spawn(cmd, **kwargs):
        proc = subprocess.Popen(cmd, env=_env(), start_new_session=True,
                                **kwargs)
        groups.append(proc.pid)
        return proc

    yield _spawn
    for group in groups:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _run(spawn, cmd):
    """Run ``cmd`` to completion; returns ``(returncode, stdout, stderr)``."""
    proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True)
    stdout, stderr = proc.communicate(timeout=300)
    return proc.returncode, stdout, stderr


def _wait_for(predicate, timeout_s: float, message: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# Mid-campaign
# ----------------------------------------------------------------------

N_TRIALS = 6
SEED = 1200


def _campaign_cmd(journal, ckdir, resume):
    return [sys.executable, str(HERE / "_campaign_proc.py"),
            str(journal), str(ckdir), str(N_TRIALS), str(SEED),
            "resume" if resume else "fresh"]


def _journaled_ok(journal) -> int:
    try:
        lines = pathlib.Path(journal).read_text().splitlines()
    except FileNotFoundError:
        return 0
    count = 0
    for line in lines:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("type") == "trial" and entry.get("ok"):
            count += 1
    return count


@pytest.mark.parametrize("kill_after", [1, 3])
def test_campaign_sigkill_and_resume(tmp_path, kill_after, spawn):
    journal = tmp_path / "journal.jsonl"
    ckdir = tmp_path / "checkpoints"

    # Expected values: one uninterrupted run in its own directories.
    code, stdout, stderr = _run(spawn, _campaign_cmd(
        tmp_path / "clean.jsonl", tmp_path / "clean-ck", resume=False))
    assert code == 0, stderr
    expected = json.loads(stdout)["values"]
    assert len(expected) == N_TRIALS

    # Round 1: kill -9 once `kill_after` trials are journaled, at a
    # jittered moment inside the next trial's execution.
    proc = spawn(_campaign_cmd(journal, ckdir, resume=False),
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _wait_for(lambda: _journaled_ok(journal) >= kill_after,
                  timeout_s=240, message=f"{kill_after} journaled trials")
        time.sleep(random.Random(SEED + kill_after).uniform(0.0, 0.25))
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    survived = _journaled_ok(journal)
    assert survived < N_TRIALS, "kill landed after the campaign finished"

    # Round 2: resume.  Zero lost: every trial value present and equal
    # to the uninterrupted run.  Zero duplicated: every trial journaled
    # before the kill is served from the journal, not recomputed.
    code, stdout, stderr = _run(spawn,
                                _campaign_cmd(journal, ckdir, resume=True))
    assert code == 0, stderr
    report = json.loads(stdout)
    assert report["ok"]
    assert json.dumps(report["values"], sort_keys=True) == \
        json.dumps(expected, sort_keys=True)
    assert report["from_journal"] == survived
    # The journal holds exactly one successful record per trial index.
    by_index: dict[int, int] = {}
    for line in journal.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("type") == "trial" and entry.get("ok"):
            by_index[entry["index"]] = by_index.get(entry["index"], 0) + 1
    assert sorted(by_index) == list(range(N_TRIALS))
    assert all(count == 1 for count in by_index.values()), by_index


# ----------------------------------------------------------------------
# Mid-serve
# ----------------------------------------------------------------------


def _serve_scenarios(count):
    from repro.experiments.workloads import BuilderSpec
    from repro.scenario import Scenario

    # ~0.9s wall per request: the kill is guaranteed to land with work
    # still queued and in flight behind the two dispatchers.
    return [Scenario(workload=BuilderSpec.make("paper", n_tasks=4),
                     sync="lockfree" if index % 2 == 0 else "lockbased",
                     seed=2000 + index, horizon=2_000_000_000)
            for index in range(count)]


def _post(url, scenario, timeout=60.0):
    body = json.dumps({"scenario": scenario.to_dict(),
                       "deadline_s": 120.0}).encode()
    request = urllib.request.Request(
        url + "/simulate", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _start_server(spawn, cache_dir, wal, port=0):
    proc = spawn([sys.executable, str(HERE / "_serve_proc.py"),
                  str(cache_dir), str(wal), str(port)],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    url = proc.stdout.readline().strip()
    assert url.startswith("http"), proc.stderr.read()
    return proc, url


def _post_until_killed(url, scenario):
    """A flood request: the kill (or the teardown reap) drops its
    connection, which is the expected end."""
    try:
        _post(url, scenario)
    except OSError:
        pass


def _wal_digests(wal) -> set:
    digests = set()
    try:
        lines = pathlib.Path(wal).read_text().splitlines()
    except FileNotFoundError:
        return digests
    for line in lines:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("type") == "request":
            digests.add(entry["digest"])
    return digests


def test_serve_sigkill_warm_restart(tmp_path, spawn):
    import threading

    from repro.api import simulate
    from repro.serve import canonical_payload_json, result_payload

    cache_dir = tmp_path / "cache"
    wal = tmp_path / "requests.wal"
    scenarios = _serve_scenarios(6)

    proc, url = _start_server(spawn, cache_dir, wal)
    threads = []
    try:
        # Flood more work than the two dispatchers can finish, so the
        # kill lands with requests both in flight and queued.
        for scenario in scenarios:
            thread = threading.Thread(target=_post_until_killed,
                                      args=(url, scenario), daemon=True)
            thread.start()
            threads.append(thread)
        _wait_for(lambda: len(_wal_digests(wal)) == len(scenarios),
                  timeout_s=60, message="all requests journaled")
        time.sleep(random.Random(SEED).uniform(0.0, 0.2))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    admitted = _wal_digests(wal)
    assert admitted == {s.digest() for s in scenarios}

    # Warm restart against the same cache + WAL, on the SAME port: the
    # SIGKILLed server's orphaned pool workers must not hold the
    # inherited listener against the rebind.
    port = int(url.rsplit(":", 1)[1])
    proc, url = _start_server(spawn, cache_dir, wal, port=port)
    try:
        def recovered():
            try:
                with urllib.request.urlopen(url + "/healthz",
                                            timeout=5) as response:
                    health = json.loads(response.read())
            except (urllib.error.URLError, OSError):
                return False
            return health["recovery"]["complete"] and \
                health["recovery"]["recovered"] > 0

        _wait_for(recovered, timeout_s=240, message="recovery complete")

        # Zero lost, zero duplicated, zero 5xx: every admitted request
        # answers 200 from the cache, byte-identical to local compute.
        for scenario in scenarios:
            status, body = _post(url, scenario)
            assert status == 200
            assert body["cached"] is True, body
            local = result_payload(scenario, simulate(scenario))
            assert canonical_payload_json(body["result"]) == \
                canonical_payload_json(local)

        with urllib.request.urlopen(url + "/stats", timeout=5) as response:
            stats = json.loads(response.read())
        assert stats["recovery"]["recovered"] == len(scenarios)
        assert not any(code.startswith("5")
                       for code in stats["responses"])
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
