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

import dataclasses
import json
import os
import random
import sys
import time

import pytest

import repro.obs
from repro.api import quick_scenario, simulate
from repro.experiments.runner import run_once
from repro.experiments.workloads import paper_taskset
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.exporters import chrome_trace, events_jsonl
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.units import MS
from tests.helpers import run_scenario, simple_task, zero_cost_policy

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

    def test_disabled_lock_based_run_makes_no_obs_call(self):
        # The reference run is lock-free and never unblocks a job; this
        # EDF holder/dependent pair blocks on a lock and is woken by
        # its release, so the lock hooks run with no observer too.
        holder = simple_task("H", critical_us=40_000, compute_us=100,
                             accesses=[(0, 3000)], window_us=50_000)
        dependent = simple_task("D", critical_us=5000, compute_us=100,
                                accesses=[(0, 200)], window_us=50_000)

        def run():
            return run_scenario(
                [holder, dependent], [[0], [1000]],
                sync=SyncMode.LOCK_BASED, policy=zero_cost_policy("edf"),
                horizon_us=50_000, trace=False)

        run()  # warm lazy imports
        calls = {}

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(OBS_DIR):
                name = f"{os.path.basename(code.co_filename)}:{code.co_name}"
                calls[name] = calls.get(name, 0) + 1

        sys.setprofile(profile)
        try:
            _, result = run()
        finally:
            sys.setprofile(None)
        assert result.total_blockings >= 1
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

    @pytest.mark.parametrize("sync", ["lockfree", "lockbased"])
    def test_every_instrumented_setting_simulates_identically(self, sync):
        # Monitors and an observer see each execution slice through
        # guarded hooks in the run loop, and tracing adds the trace
        # emits; none may change what is simulated.
        base = quick_scenario(n_tasks=5, n_objects=3, sync=sync, load=1.1,
                              horizon_us=60_000, seed=SEED)
        plain = simulate(base).result
        both = dataclasses.replace(base, monitors=True, trace=True)
        variants = {
            "monitors": simulate(dataclasses.replace(base, monitors=True)),
            "observer": simulate(base, observer=Observer()),
            "trace": simulate(dataclasses.replace(base, trace=True)),
            "all": simulate(both, observer=Observer()),
        }
        assert len(plain.records) > 50
        for name, summary in variants.items():
            result = summary.result
            assert result.records == plain.records, name
            assert (result.scheduler_overhead_time
                    == plain.scheduler_overhead_time), name
