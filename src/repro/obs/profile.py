"""``python -m repro profile`` — one instrumented workload run.

Builds a workload (the paper's step / heterogeneous task sets or the
Theorem 2 interference set), attaches a recording
:class:`~repro.obs.observer.Observer` plus the kernel tracer, runs the
simulation, and hands back everything the exporters need: the observer,
the tracer, the simulation result and the wall time of the run.

The simulation itself is seeded and deterministic; only ``wall_s`` and
the observer's decision samples vary across runs, and neither enters the
exported trace (determinism contract, DESIGN.md §10).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro.obs.observer import Observer

#: Workloads ``repro profile`` can run.
PROFILE_WORKLOADS = ("step", "hetero", "interference")

#: Sync styles, mirroring :func:`repro.api.build_policy_and_mode`.
PROFILE_SYNCS = ("lockfree", "lockbased", "ideal", "edf")


@dataclass
class ProfileResult:
    """One instrumented run, ready for export."""

    workload: str
    sync: str
    seed: int
    horizon: int
    wall_s: float
    aur: float
    cmr: float
    observer: Observer
    tracer: Any          # repro.sim.tracing.Tracer
    result: Any          # repro.sim.metrics.SimulationResult

    def headline(self) -> dict[str, Any]:
        """The JSON payload head (everything but the obs block)."""
        return {
            "workload": self.workload,
            "sync": self.sync,
            "seed": self.seed,
            "horizon": self.horizon,
            "wall_s": round(self.wall_s, 6),
            "aur": self.aur,
            "cmr": self.cmr,
            "jobs": len(self.result.records),
            "retries": self.result.total_retries,
            "blockings": self.result.total_blockings,
            "scheduler_invocations": self.result.scheduler_invocations,
        }


def build_profile_tasks(workload: str, rng: random.Random,
                        n_tasks: int = 10, n_objects: int = 10,
                        load: float = 0.6):
    """Task set for a profile workload name."""
    from repro.experiments.workloads import (
        interference_taskset,
        paper_taskset,
    )

    if workload in ("step", "hetero"):
        # Longer-than-default object accesses (40 µs vs the figures'
        # 2 µs): preemptions then land inside access windows often
        # enough that the retry instrumentation has data to show.
        return paper_taskset(
            rng,
            n_tasks=n_tasks,
            n_objects=n_objects,
            accesses_per_job=min(2, max(n_objects, 1)),
            tuf_class=workload,
            target_load=load,
            access_duration=40_000,
        )
    if workload == "interference":
        return interference_taskset(rng)
    raise ValueError(
        f"unknown profile workload {workload!r}; known: "
        f"{', '.join(PROFILE_WORKLOADS)}")


def run_profile(workload: str = "step",
                sync: str = "lockfree",
                n_tasks: int = 10,
                n_objects: int = 10,
                load: float = 0.6,
                horizon_us: int = 100_000,
                seed: int = 0,
                retry_policy: str = "preemption",
                observer: Observer | None = None) -> ProfileResult:
    """Run one fully instrumented simulation and return the artifacts.

    The same seed drives task-set generation and arrival generation, so
    a (workload, sync, seed) triple pins the whole run.

    ``retry_policy`` defaults to ``"preemption"`` — the paper's
    pessimistic Lemma 1 model (every preemption mid-access retries),
    which keeps the retry instrumentation populated on moderate loads;
    ``"conflict"`` switches to the optimistic commit-conflict model the
    figure campaigns use.
    """
    from repro.api import build_policy_and_mode
    from repro.arrivals.generators import generator_for
    from repro.sim.kernel import Kernel, SimulationConfig
    from repro.sim.objects import RetryPolicy

    retry = {"preemption": RetryPolicy.ON_PREEMPTION,
             "conflict": RetryPolicy.ON_CONFLICT}.get(retry_policy)
    if retry is None:
        raise ValueError(
            f"unknown retry policy {retry_policy!r}; "
            f"known: preemption, conflict")
    horizon = horizon_us * 1_000
    rng = random.Random(seed)
    tasks = build_profile_tasks(workload, rng, n_tasks=n_tasks,
                                n_objects=n_objects, load=load)
    traces = [
        generator_for(task.arrival, "uniform").generate(rng, horizon)
        for task in tasks
    ]
    policy, mode, costs = build_policy_and_mode(sync)
    obs = observer if observer is not None else Observer()
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=traces,
        policy=policy,
        horizon=horizon,
        sync=mode,
        costs=costs,
        retry_policy=retry,
        trace=True,
        observer=obs,
    )
    kernel = Kernel(config)
    wall_start = time.perf_counter()
    result = kernel.run()
    wall_s = time.perf_counter() - wall_start
    return ProfileResult(
        workload=workload,
        sync=sync,
        seed=seed,
        horizon=horizon,
        wall_s=wall_s,
        aur=result.aur,
        cmr=result.cmr,
        observer=obs,
        tracer=kernel.tracer,
        result=result,
    )
