"""Shared builders for scenario tests.

All times in nanosecond ticks; helpers default to µs/ms magnitudes so
scenarios read like the paper's workloads.
"""

from __future__ import annotations

from repro.arrivals import UAMSpec
from repro.core.edf import EDF
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.obs import Observer
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.objects import RetryPolicy
from repro.sim.overheads import KernelCosts, ZeroCost
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tasks.segments import AccessKind
from repro.tuf import StepTUF
from repro.tuf.base import TimeUtilityFunction
from repro.units import MS, US


def simple_task(name: str, critical_us: int, compute_us: int,
                window_us: int | None = None,
                accesses: list[tuple[int, int]] | None = None,
                tuf: TimeUtilityFunction | None = None,
                kind: AccessKind = AccessKind.WRITE,
                handler_us: int = 0) -> TaskSpec:
    """A task with compute first, then the listed (object, duration_us)
    accesses, then a tail compute tick."""
    window = (window_us or critical_us) * US
    body: list = [Compute(compute_us * US)]
    for obj, dur_us in accesses or []:
        body.append(ObjectAccess(obj=obj, duration=dur_us * US, kind=kind))
    return TaskSpec(
        name=name,
        arrival=UAMSpec(1, 1, window),
        tuf=tuf or StepTUF(critical_time=critical_us * US),
        body=tuple(body),
        abort_handler_time=handler_us * US,
    )


def run_scenario(tasks, traces_us, sync=SyncMode.NONE, policy=None,
                 horizon_us=100_000, costs=None, trace=True,
                 retry_policy=RetryPolicy.ON_CONFLICT,
                 allow_nesting=False):
    """Run a hand-built scenario with zero-cost scheduling by default, so
    assertions about timing are exact.  ``trace`` attaches an
    :class:`~repro.obs.Observer` (read it through :func:`instants`)."""
    if policy is None:
        policy = EDF(cost_model=ZeroCost())
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=[[t * US for t in trace] for trace in traces_us],
        policy=policy,
        horizon=horizon_us * US,
        sync=sync,
        costs=costs or KernelCosts.ideal(),
        retry_policy=retry_policy,
        allow_nesting=allow_nesting,
        observer=Observer() if trace else None,
    )
    kernel = Kernel(config)
    result = kernel.run()
    return kernel, result


def instants(kernel, name: str) -> list:
    """The kernel observer's instants called ``name``, in order."""
    return [event for event in kernel.obs.instants if event.name == name]


def job_of(event) -> str:
    """The ``job`` argument of an observer event."""
    return dict(event.args)["job"]


def random_workload(rng, horizon_us: int = 20_000, kind: str | None = None):
    """Seeded random workload for property-based tests.

    Draws a small task set (paper step/hetero classes or the Theorem 2
    interference set), then arrival traces over the horizon, all from
    ``rng`` — so a single seed pins the entire scenario.  Returns
    ``(tasks, traces, horizon)`` in nanoseconds, ready for
    :class:`~repro.sim.kernel.SimulationConfig`.
    """
    from repro.arrivals.generators import generator_for
    from repro.experiments.workloads import (
        interference_taskset,
        paper_taskset,
    )

    kind = kind or rng.choice(("step", "hetero", "interference"))
    if kind == "interference":
        tasks = interference_taskset(
            rng, n_victims=2, n_interferers=2, n_objects=2,
            max_arrivals=rng.randint(1, 2))
    else:
        n_objects = rng.randint(2, 4)
        tasks = paper_taskset(
            rng,
            n_tasks=rng.randint(3, 6),
            n_objects=n_objects,
            accesses_per_job=rng.randint(1, min(2, n_objects)),
            avg_exec=rng.randint(50, 200) * US,
            target_load=rng.uniform(0.4, 1.2),
            tuf_class=kind,
            max_arrivals=rng.randint(1, 2),
            access_duration=rng.choice((2, 20, 40)) * US,
        )
    horizon = horizon_us * US
    traces = [
        generator_for(task.arrival, "uniform").generate(rng, horizon)
        for task in tasks
    ]
    return tasks, traces, horizon


def zero_cost_policy(kind: str):
    """Policies with zero simulated pass cost (timing-exact tests)."""
    if kind == "edf":
        return EDF(cost_model=ZeroCost())
    if kind == "rua-lockfree":
        return LockFreeRUA(cost_model=ZeroCost())
    if kind == "rua-lockbased":
        return LockBasedRUA(cost_model=ZeroCost())
    raise ValueError(kind)
