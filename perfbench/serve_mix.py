"""``serve-mix``: a ``repro serve`` child (one pool worker, request log
on, fresh cache directory) driven open-loop over two keep-alive
connections.

Set-up starts the service and pre-warms a pool of scenarios.  The
schedule then sends requests at fixed intervals: first at the nominal
rate for most of the run, then for a fixed time at each higher rate
step, up the ladder until a step misses the latency limit.  One request
in :data:`MISS_EVERY` is a never-seen scenario (a miss: request log
fsync, queue, pool, kernel, cache put); the rest repeat pre-warmed
scenarios (hits: HTTP, parse and digest, verified cache read) drawn by
the seed.  The hit and miss counts are exact and are asserted.

Every 200 is byte-compared, after timing, with the response a local
``simulate()`` of the same scenario implies.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys

from perfbench.client import encode_request, run_schedule
from perfbench.common import (ROOT, SETUP_REPEATS, median, median_setup,
                              proc_tree_peak_rss_mb, tail, timed)
from perfbench.inputs import serve_scenarios
from perfbench.layers import overhead_pct
from perfbench.trace import ID, NAME, PARENT, Tracer, install_serve_layers

HOST = "127.0.0.1"
CONNECTIONS = 2
#: ``repro load``'s default scenario pool (``--scenarios 8``).
POOL_SIZE = 8
#: ``repro load``'s defaults (50 rps for 5 s over 8 scenarios) make 8
#: misses in 250 requests, one in 31; one in 32 keeps the positions
#: regular.  Hit latency does not hinge on the share: at 35 rps the hit
#: median read 43.5-44.5 ms for every share from 1/32 to 1/5, and
#: 1.8 ms with no misses at all (Linux 6.18 loopback).
MISS_EVERY = 32
#: The nominal rate sits above the ~25 rps where hits start paying a
#: ~44 ms keep-alive stall once misses are in the mix, and below the
#: ~45 rps ceiling that stall puts on two connections.
NOMINAL_RPS = 35
#: Rate steps above the nominal one, about 1.27x apart, each
#: ``STEP_SECONDS`` long.  40 rps lies below today's stall ceiling and
#: 55 rps above it; the ladder skips 45, which sits on the ceiling and
#: would pass or fail by chance.
STEPS_RPS = (40, 55, 70, 90, 115, 145, 185, 235)
STEP_SECONDS = 3.0
#: Latency limit on each step's tail percentile.
LIMIT_MS = 200.0


def _plan(seed, seconds, pool, ladder):
    """Entries ``(offset, step, kind, scenario)`` with ``step`` 0 for
    the nominal rate; without ``ladder`` the nominal rate fills the
    run."""
    rng = random.Random(f"perfbench:serve-mix:plan:{seed}")
    # Today's code runs two steps; the run grows when more pass.
    reserve = 2 * STEP_SECONDS if ladder else 0.0
    nominal = max(MISS_EVERY, int((seconds - reserve) * NOMINAL_RPS))
    counts = [(NOMINAL_RPS, nominal)] + [(r, int(r * STEP_SECONDS))
                                         for r in STEPS_RPS if ladder]
    miss_scenarios = serve_scenarios(
        seed, sum((count + MISS_EVERY // 2 - 1) // MISS_EVERY
                  for _, count in counts), "miss")
    misses = iter(miss_scenarios)
    plan = []
    for step, (rate, count) in enumerate(counts):
        for position in range(count):
            if position % MISS_EVERY == MISS_EVERY // 2:
                plan.append((position / rate, step, "miss", next(misses)))
            else:
                plan.append((position / rate, step, "hit",
                             pool[rng.randrange(len(pool))]))
    return plan


def _bodies(entries, first_rid=0):
    return [(offset, step, kind,
             encode_request(first_rid + i, scenario.to_dict()))
            for i, (offset, step, kind, scenario) in enumerate(entries)]


class _Child:
    """A ``repro serve`` process; stopped (and waited for) on close."""

    def __init__(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        env.pop("REPRO_NO_FASTPATH", None)
        self.stderr = open(directory / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--workers", "1",
             "--cache-dir", str(directory / "cache"),
             "--request-log", str(directory / "requests.wal"),
             "--drain-grace", "5"],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            env=env, cwd=directory)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def peak_rss_mb(self):
        return proc_tree_peak_rss_mb(self.proc.pid)

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.stderr.close()


class _InProcess:
    """``ServeApp`` hosted in this process, so the wrappers see it."""

    def __init__(self, directory):
        from repro.serve.app import ServeApp, ServeConfig

        directory.mkdir(parents=True, exist_ok=True)
        self.app = ServeApp(ServeConfig(
            host=HOST, port=0, workers=1,
            cache_dir=str(directory / "cache"),
            request_log=str(directory / "requests.wal"))).start()
        self.port = self.app.port

    def close(self):
        self.app.shutdown(grace_s=5.0)


def _setup(server_type, directory, pool):
    server = server_type(directory)
    try:
        warm = run_schedule(HOST, server.port,
                            _bodies([(0.0, -1, "miss", s) for s in pool],
                                    first_rid=-len(pool)),
                            CONNECTIONS)
    except BaseException:
        server.close()
        raise
    return server, warm


def _serve_run(server_type, seed, seconds, work_dir, tracer=None,
               ladder=True):
    """Set up (several times), run the plan up the rate ladder until a
    step misses the limit; returns the server's samples plus what
    verification and the report need."""
    pool = serve_scenarios(seed, POOL_SIZE, "pool")
    plan = _plan(seed, seconds, pool, ladder)
    bodies = _bodies(plan)
    attempts = iter(range(SETUP_REPEATS))
    setup_s, (server, warm) = median_setup(
        lambda: _setup(server_type, work_dir / f"server-{next(attempts)}",
                       pool),
        cleanup=lambda started: started[0].close())
    try:
        if tracer is not None:
            install_serve_layers(tracer)
        try:
            samples, steps = [], []
            rates = (NOMINAL_RPS,) + (STEPS_RPS if ladder else ())
            for step, rate in enumerate(rates):
                ran = run_schedule(
                    HOST, server.port,
                    [entry for entry in bodies if entry[1] == step],
                    CONNECTIONS)
                samples += ran
                steps.append(_step_report(ran, rate))
                if not steps[-1]["passed"]:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss = server.peak_rss_mb() if isinstance(server, _Child) else 0.0
    finally:
        server.close()
    return {"setup_s": setup_s, "samples": samples, "steps": steps, "warm": warm,
            "plan": plan[:len(samples)], "pool": pool, "rss": rss}


def _expected_bodies(scenarios):
    """Per scenario digest: (cached=False body, cached=True body, local
    simulate seconds)."""
    from repro.api import simulate
    from repro.serve.pool import result_payload

    expected = {}
    for scenario in scenarios:
        digest = scenario.digest()
        if digest in expected:
            continue
        summary, wall = timed(simulate, scenario)
        payload = result_payload(scenario, summary)
        bodies = tuple(
            (json.dumps({"cached": cached, "digest": digest,
                         "result": payload}, sort_keys=True,
                        separators=(",", ":")) + "\n").encode()
            for cached in (False, True))
        expected[digest] = bodies + (wall,)
    return expected


def _verify(run, outcome):
    """Byte-compare every response; assert the exact hit/miss split of
    the steps that ran.  Returns the expected bodies and the nominal
    step's hit and miss counts."""
    expected = _expected_bodies(
        run["pool"] + [entry[3] for entry in run["plan"]
                       if entry[2] == "miss"])
    checked = [(sample, scenario) for sample, scenario in
               zip(run["warm"], run["pool"])]
    checked += [(sample, entry[3])
                for sample, entry in zip(run["samples"], run["plan"])]
    counts = {"hit": 0, "miss": 0}
    nominal = {"hit": 0, "miss": 0}
    for sample, scenario in checked:
        outcome.attempted += 1
        miss_body, hit_body, _ = expected[scenario.digest()]
        if sample.status != 200:
            outcome.fail(f"request {sample.rid}: status {sample.status} "
                         f"{sample.error or sample.body[:200]!r}")
        elif sample.body != (hit_body if sample.kind == "hit"
                             else miss_body):
            outcome.fail(f"request {sample.rid} ({sample.kind}): body "
                         f"differs from local simulate()")
        elif sample.step >= 0:
            counts[sample.kind] += 1
            nominal[sample.kind] += sample.step == 0
    planned = {kind: sum(1 for entry in run["plan"] if entry[2] == kind)
               for kind in counts}
    if counts != planned:
        outcome.fail(f"hit/miss split {counts} != planned {planned}")
    return expected, nominal


def _step_report(samples, rate):
    """Latency summary of one rate step."""
    ok = [s for s in samples if s.status == 200]
    latencies = [1e3 * s.latency for s in ok]
    within = sum(1 for value in latencies if value <= LIMIT_MS)
    span = max(s.done for s in samples) - min(s.scheduled for s in samples)
    tail_ms = tail(latencies)[0] if latencies else float("inf")
    last_scheduled = max(s.scheduled for s in samples)
    drained_in_time = max(s.done for s in samples) \
        <= last_scheduled + LIMIT_MS / 1e3
    passed = (len(ok) == len(samples) and tail_ms <= LIMIT_MS
              and drained_in_time)
    return {"rate": rate, "tail_ms": tail_ms, "passed": passed,
            "achieved_rps": within / span, "requests": len(samples)}


def _kind_latency(samples, kind):
    values = [1e3 * s.latency for s in samples
              if s.kind == kind and s.status == 200]
    return median(values), tail(values)


def run(seed, seconds, traced, outcome, work_dir):
    if traced:
        return _traced(seed, seconds, outcome, work_dir)
    result = _serve_run(_Child, seed, seconds, work_dir)
    _verify(result, outcome)
    outcome.put("setup_s", result["setup_s"], "s",
                f"median of {SETUP_REPEATS}: start repro serve, pre-warm "
                f"{POOL_SIZE} scenarios", gated_as="setup_s")

    samples = result["samples"]
    nominal = [s for s in samples if s.step == 0]
    for kind in ("hit", "miss"):
        p50, (tail_ms, pct, count) = _kind_latency(nominal, kind)
        outcome.put(f"serve_{kind}_p50_ms", p50, "ms",
                    f"{count} {kind} requests at {NOMINAL_RPS} rps")
        outcome.put(f"serve_{kind}_tail_ms", tail_ms, "ms",
                    f"p{pct:.1f} of {count} {kind} requests at "
                    f"{NOMINAL_RPS} rps")
    everything = [1e3 * s.latency for s in nominal if s.status == 200]
    tail_ms, pct, count = tail(everything)
    outcome.put("serve_p50_ms", median(everything), "ms",
                f"{count} requests at {NOMINAL_RPS} rps",
                gated_as="latency_ms")
    outcome.put("serve_tail_ms", tail_ms, "ms",
                f"p{pct:.1f} of {count} requests at {NOMINAL_RPS} rps")

    steps = result["steps"]
    outcome.put("serve_goodput_rps", steps[0]["achieved_rps"], "1/s",
                f"200s within {LIMIT_MS:g} ms per second at "
                f"{NOMINAL_RPS} rps")
    for step in steps:
        outcome.put(f"serve_step_{step['rate']}rps_tail_ms",
                    step["tail_ms"], "ms",
                    "ok" if step["passed"] else "over limit or backlog")
    # The highest step that met the limit (the ladder stops at the
    # first that did not); when none did, the nominal step's
    # within-limit rate still says how far off it was.
    passed = [step for step in steps if step["passed"]]
    best = passed[-1] if passed else steps[0]
    outcome.put("serve_max_ok_rps", best["achieved_rps"], "1/s",
                f"step {best['rate']} rps "
                f"({'met' if best['passed'] else 'missed'} the limit): "
                f"200s within limit per second",
                gated_as="throughput_per_s")
    outcome.put("peak_rss_mb", result["rss"], "MB",
                "largest of server and pool worker", gated_as="peak_rss_mb")
    lag = [1e3 * s.lag for s in nominal]
    outcome.put("client_lag_ms", tail(lag)[0], "ms",
                f"send lag tail at {NOMINAL_RPS} rps (validity check)")


def _traced(seed, seconds, outcome, work_dir):
    """In-process service: an untraced and a traced run of the same
    plan at the nominal rate, then the stage attribution from the traced
    one."""
    plain = _serve_run(_InProcess, seed, seconds / 2, work_dir / "plain",
                       ladder=False)
    _verify(plain, outcome)
    tracer = Tracer()
    result = _serve_run(_InProcess, seed, seconds / 2, work_dir / "traced",
                        tracer=tracer, ladder=False)
    expected, counts = _verify(result, outcome)
    outcome.put("setup_s", result["setup_s"], "s")
    tracer.write_chrome(work_dir / f"trace-serve-mix-{seed}.json")

    by_rid = {s.rid: s for s in result["samples"]}
    plan = result["plan"]
    handles = {}
    for index, record in enumerate(tracer.spans):
        if record[NAME] == "serve.handle" and record[ID] in by_rid:
            handles[record[ID]] = index
    children = {}
    for index, record in enumerate(tracer.spans):
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append(index)

    def duration(index):
        return tracer.spans[index][2] - tracer.spans[index][1]

    def child_time(handle, names):
        return sum(duration(c) for c in children.get(handle, ())
                   if tracer.spans[c][NAME] in names)

    hit_handles = [h for rid, h in handles.items()
                   if by_rid[rid].kind == "hit"]
    miss_handles = [h for rid, h in handles.items()
                    if by_rid[rid].kind == "miss"]
    outcome.put("serve.handle_us.hit",
                1e6 * median([duration(h) for h in hit_handles]), "us")
    outcome.put("serve.handle_us.miss",
                1e6 * median([duration(h) for h in miss_handles]), "us")
    overhead = [1e3 * ((by_rid[rid].done - by_rid[rid].sent) - duration(h))
                for rid, h in handles.items()
                if by_rid[rid].kind == "hit" and by_rid[rid].step == 0]
    outcome.put("serve.http_overhead_ms", median(overhead), "ms",
                "hits at the nominal rate: client service time minus "
                "handle_simulate time")
    outcome.put("serve.parse_digest_us", 1e6 * median(
        [child_time(h, ("serve.parse", "serve.digest"))
         for h in hit_handles]), "us")
    outcome.put("serve.cache_get_us", 1e6 * median(
        [child_time(h, ("serve.cache_get",)) for h in hit_handles]), "us")
    served = counts["hit"] + counts["miss"]
    outcome.put("serve.cache_hit_ratio",
                counts["hit"] / served if served else 0.0, "ratio",
                f"{counts['hit']} hits of {served} requests served at the "
                f"nominal rate")
    outcome.put("serve.hits", counts["hit"], "count")
    outcome.put("serve.misses", counts["miss"], "count")
    outcome.put("serve.wal_append_ms",
                1e3 * median(tracer.durations("serve.wal_append")), "ms")
    outcome.put("serve.queue_wait_ms",
                1e3 * median(tracer.values["serve.queue_wait"]), "ms")
    outcome.put("serve.pool_execute_ms",
                1e3 * median(tracer.durations("serve.pool_execute")), "ms")
    ipc = []
    for record in tracer.closed("serve.pool_execute"):
        rid = record[ID]
        if rid in by_rid and 0 <= rid < len(plan):
            local = expected[plan[rid][3].digest()][2]
            ipc.append(1e3 * (record[2] - record[1] - local))
    outcome.put("serve.pool_ipc_ms", median(ipc), "ms",
                "pool execute minus local simulate() of the same scenario")
    outcome.put("serve.cache_put_ms",
                1e3 * median(tracer.durations("serve.cache_put")), "ms")
    lag = [1e3 * s.lag for s in result["samples"] if s.step == 0]
    outcome.put("client.lag_ms", tail(lag)[0], "ms",
                "send lag tail at the nominal rate")

    def hit_p50(run):
        return median([1e3 * s.latency for s in run["samples"]
                       if s.kind == "hit" and s.step == 0])

    outcome.put("trace.overhead_pct",
                overhead_pct(hit_p50(plain), hit_p50(result),
                             higher_is_better=False), "%",
                "hit p50 at the nominal rate, traced vs untraced")
