"""Overhead guard: the disabled observability path must stay free.

Two hard promises from DESIGN.md §10:

* **Runtime** — with no observer configured the kernel holds the shared
  :data:`NULL_OBSERVER` and every instrumentation site is a single
  ``obs.enabled`` attribute test, so a disabled run makes no call at
  all into :mod:`repro.obs`.  That is counted, not timed:
  ``sys.setprofile`` counts every Python-level call, which is
  deterministic for a fixed seed, so the guard neither misses an
  unguarded call nor fails on machine noise.
* **Determinism** — a fixed seed yields byte-for-byte identical trace
  artifacts across runs; wall-clock readings never enter them.
"""

import json
import os
import random
import sys
import time

import repro.obs
from repro.experiments.runner import run_once
from repro.experiments.workloads import paper_taskset
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.exporters import chrome_trace, events_jsonl
from repro.sim.kernel import Kernel, SimulationConfig
from repro.units import MS
from tests.helpers import zero_cost_policy

SEED = 99
ROUNDS = 5
#: Every module of the observability layer lives under this directory.
OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


def _reference_run(observer=None):
    # Long enough (~60 ms wall) that a 5 % relative gate sits above
    # OS-scheduler noise on a min-of-N statistic.
    rng = random.Random(SEED)
    tasks = paper_taskset(rng, n_tasks=6, n_objects=4,
                          accesses_per_job=2, target_load=0.9)
    return run_once(tasks, "lockfree", 120 * MS,
                    random.Random(SEED + 1), observer=observer)


def _min_wall(observer_factory, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _reference_run(observer_factory())
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledOverhead:
    def test_kernel_defaults_to_shared_null_observer(self):
        config = SimulationConfig(tasks=[], arrival_traces=[],
                                  policy=zero_cost_policy("edf"),
                                  horizon=1)
        assert Kernel(config).obs is NULL_OBSERVER

    def test_disabled_runtime_within_5_percent_of_baseline(self):
        # Zero calls into repro.obs is the disabled path's whole cost
        # beyond the attribute tests: stricter than any 5 % bound.
        _reference_run(observer=None)  # warm lazy imports
        calls = {}

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(OBS_DIR):
                name = f"{os.path.basename(code.co_filename)}:{code.co_name}"
                calls[name] = calls.get(name, 0) + 1

        sys.setprofile(profile)
        try:
            _reference_run(observer=None)
        finally:
            sys.setprofile(None)
        assert calls == {}, (
            f"a run without an observer called into repro.obs: {calls}")

    def test_enabled_overhead_is_bounded(self):
        # Recording costs something, but must stay the same order of
        # magnitude — a regression here means an instrumentation site
        # started doing real work per event.
        disabled = _min_wall(lambda: None)
        enabled = _min_wall(Observer)
        assert enabled <= disabled * 4 + 0.05, (
            f"enabled run {enabled:.4f}s vs disabled {disabled:.4f}s")


class TestTraceDeterminism:
    def test_fixed_seed_traces_are_byte_identical(self):
        artifacts = []
        for _ in range(2):
            obs = Observer()
            _reference_run(observer=obs)
            doc = json.dumps(chrome_trace(obs), sort_keys=True,
                             separators=(",", ":"))
            artifacts.append((doc.encode(), events_jsonl(obs).encode()))
        assert artifacts[0] == artifacts[1]

    def test_disabled_and_enabled_simulate_identically(self):
        # Observation must not perturb the simulation itself.
        plain = _reference_run(observer=None)
        observed = _reference_run(observer=Observer())
        snapshot = lambda r: [
            (rec.task_name, rec.jid, rec.completion_time, rec.retries,
             rec.accrued_utility) for rec in r.records
        ]
        assert snapshot(plain) == snapshot(observed)
        assert plain.scheduler_overhead_time == \
            observed.scheduler_overhead_time
