"""Seeded simulation repetition.

Each trial builds a fresh task set and arrival trace from its own RNG
stream (so repeats vary workload *and* arrivals, like re-running the
paper's campaign) and runs one kernel.  Everything is deterministic in
the base seed.

**Determinism contract (DESIGN.md §9):** the RNG stream of trial ``k``
is ``random.Random(seeds[k])`` — a pure function of that trial's own
seed, never of shared-RNG draw order or of which trial ran before it.
That is what makes serial, parallel (``CampaignEngine`` with
``workers > 1``), retried and resumed campaigns agree on every result;
``tests/experiments/test_runner_campaign.py`` pins the property.  Trial
functions that a campaign fans out (:func:`simulation_trial`) are
module-level and take only picklable arguments, so the builder must be a
picklable callable — use
:class:`repro.experiments.workloads.BuilderSpec` rather than a closure.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.api import simulate
from repro.arrivals.generators import generator_for
from repro.campaign import CampaignConfig, CampaignEngine, as_engine
from repro.campaign.spec import TrialSpec
from repro.faults.degradation import AdmissionPolicy, RetryGuard
from repro.faults.plan import FaultPlan
from repro.scenario import Scenario
from repro.sim.metrics import SimulationResult
from repro.sim.objects import RetryPolicy
from repro.tasks.task import TaskSpec

TasksetBuilder = Callable[[random.Random], list[TaskSpec]]


def run_once(tasks: list[TaskSpec], sync: str, horizon: int,
             rng: random.Random, arrival_style: str = "uniform",
             retry_policy: RetryPolicy = RetryPolicy.ON_CONFLICT,
             trace: bool = False,
             faults: "FaultPlan | None" = None,
             admission: "AdmissionPolicy | None" = None,
             retry_guard: "RetryGuard | None" = None,
             monitors: bool = False,
             observer=None) -> SimulationResult:
    """One simulation of a concrete task set: a thin wrapper over
    :func:`repro.api.simulate`.

    The caller owns ``rng`` (it may be mid-stream), so the arrival
    traces are drawn here and handed to the Scenario explicitly rather
    than re-derived from a seed.  The optional fault layer and
    ``observer`` arguments mirror
    :class:`repro.sim.kernel.SimulationConfig`.
    """
    traces = [
        generator_for(task.arrival, arrival_style).generate(rng, horizon)
        for task in tasks
    ]
    scenario = Scenario(
        sync=sync,
        horizon=horizon,
        tasks=tuple(tasks),
        arrival_traces=tuple(tuple(trace) for trace in traces),
        retry_policy=retry_policy,
        trace=trace,
        faults=faults,
        admission=admission,
        retry_guard=retry_guard,
        monitors=monitors,
    )
    return simulate(scenario, observer=observer).result


def simulation_trial(build_tasks: TasksetBuilder, sync: str, horizon: int,
                     seed: int, arrival_style: str = "uniform",
                     retry_policy: RetryPolicy = RetryPolicy.ON_CONFLICT
                     ) -> SimulationResult:
    """One self-contained campaign trial: taskset + arrivals + kernel,
    all derived from ``seed`` alone.  Module-level so worker processes
    can unpickle it."""
    rng = random.Random(seed)
    tasks = build_tasks(rng)
    return run_once(tasks, sync, horizon, rng,
                    arrival_style=arrival_style,
                    retry_policy=retry_policy)


def run_many(build_tasks: TasksetBuilder, sync: str, horizon: int,
             seeds: list[int], arrival_style: str = "uniform",
             retry_policy: RetryPolicy = RetryPolicy.ON_CONFLICT,
             campaign: "CampaignConfig | CampaignEngine | None" = None
             ) -> list[SimulationResult]:
    """One simulation per seed, fresh workload each.

    With ``campaign`` unset this is the plain serial loop.  With a
    :class:`~repro.campaign.CampaignConfig` or a shared
    :class:`~repro.campaign.CampaignEngine`, trials route through the
    resilient engine instead: parallel workers, per-trial timeouts,
    retry with backoff, journaling.  Failed trials are *dropped* from
    the returned list (graceful degradation); consult the engine's
    ``stats()`` for failure counts.  An engine built here from a config
    is closed before returning; a passed engine stays the caller's.
    """
    engine = as_engine(campaign, tag=f"run_many:{sync}")
    if engine is None:
        return [
            simulation_trial(build_tasks, sync, horizon, seed,
                             arrival_style=arrival_style,
                             retry_policy=retry_policy)
            for seed in seeds
        ]
    specs = [
        TrialSpec(index=k, fn=simulation_trial,
                  args=(build_tasks, sync, horizon, seed),
                  kwargs=(("arrival_style", arrival_style),
                          ("retry_policy", retry_policy)))
        for k, seed in enumerate(seeds)
    ]
    try:
        return engine.run(specs).values
    finally:
        if engine is not campaign:
            engine.close()
