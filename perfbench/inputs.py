"""Seeded inputs.  The benchmark seed picks every scenario seed; the
program under test only ever sees the generated scenarios."""

from __future__ import annotations

import random

SYNCS = ("lockfree", "lockbased")


def _paper(n_tasks, load, sync, seed, horizon_ms, n_objects):
    from repro.experiments.workloads import BuilderSpec
    from repro.scenario import Scenario

    return Scenario(
        sync=sync, horizon=horizon_ms * 1_000_000, seed=seed,
        seeding="split",
        workload=BuilderSpec.make(
            "paper", n_tasks=n_tasks, n_objects=n_objects,
            accesses_per_job=2, avg_exec=300_000, access_duration=5_000,
            target_load=load))


def _seeds(seed, salt):
    rng = random.Random(f"perfbench:{salt}:{seed}")
    while True:
        yield rng.randrange(1 << 31)


def sim_long_batch(seed):
    """Small task sets over a long (150 ms) horizon: the ``paper``
    builder at n = 5..10, AL 0.8, three shared queues, plus the
    Theorem 2 ``interference`` set, three task sets of each; every task
    set once lock-free, once lock-based.  Three sets per size keep one
    seed's draw from moving the batch's cost much."""
    from repro.experiments.workloads import BuilderSpec
    from repro.scenario import Scenario

    seeds = _seeds(seed, "sim-long")
    batch = []
    for _ in range(3):
        for n_tasks in range(5, 11):
            task_seed = next(seeds)
            batch += [_paper(n_tasks, 0.8, sync, task_seed, 150, 3)
                      for sync in SYNCS]
        task_seed = next(seeds)
        batch += [Scenario(sync=sync, horizon=150_000_000, seed=task_seed,
                           workload=BuilderSpec.make("interference"))
                  for sync in SYNCS]
    return batch


def campaign_batch(seed):
    """Overloaded large task sets: n in {32, 40, 48, 56, 64} at AL 1.2
    and 1.5 over ten queues and a 40 ms horizon, two task sets of each,
    both syncs."""
    seeds = _seeds(seed, "campaign-dense")
    batch = []
    for _ in range(2):
        for n_tasks in (32, 40, 48, 56, 64):
            for load in (1.2, 1.5):
                task_seed = next(seeds)
                batch += [_paper(n_tasks, load, sync, task_seed, 40, 10)
                          for sync in SYNCS]
    return batch


def serve_scenarios(seed, count, salt):
    """``count`` distinct small lock-free scenarios (n = 5, AL 0.8,
    40 ms horizon); ``salt`` keeps pools disjoint.  One sync keeps the
    cost of a miss nearly uniform (lock-based runs of this set cost
    about twice as much), so miss latency does not hinge on which
    scenarios a seed happens to draw."""
    seeds = _seeds(seed, f"serve-mix:{salt}")
    return [_paper(5, 0.8, "lockfree", next(seeds), 40, 3)
            for _ in range(count)]
