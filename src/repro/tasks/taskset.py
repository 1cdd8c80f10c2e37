"""Task-set construction helpers.

The paper's experiments use task sets of ~10 tasks sharing ~10 queues, with
controlled *approximate load* ``AL = sum(u_i / C_i)`` (Section 6.1, which
deliberately excludes object access time from the load so that scheduler
and synchronization overheads show up as the gap between ideal and actual
behaviour).  These helpers build such task sets reproducibly.
"""

from __future__ import annotations

import random

from repro.arrivals.spec import UAMSpec
from repro.tasks.segments import (
    AccessKind,
    Compute,
    ObjectAccess,
    Segment,
)
from repro.tasks.task import TaskSpec
from repro.tuf.base import TimeUtilityFunction
from repro.tuf.catalog import heterogeneous_tuf_mix, step_tuf_mix


def make_task(name: str,
              arrival: UAMSpec,
              tuf: TimeUtilityFunction,
              compute: int,
              accesses: list[tuple[int | str, int]] | None = None,
              access_kind: AccessKind = AccessKind.WRITE,
              abort_handler_time: int = 0,
              scale: float | None = None) -> TaskSpec:
    """Build a task whose body interleaves computation with object
    accesses.

    ``compute`` ticks of computation is split evenly around the given
    ``(object, duration)`` accesses, so accesses are spread across the
    body rather than clustered — matching the paper's workloads where jobs
    access queues at arbitrary points of their execution.  ``scale``
    rescales each compute chunk exactly as :func:`scale_to_load` would,
    so a builder that knows its :func:`load_scale` builds the task once.
    """
    def work(duration: int) -> Compute:
        if scale is not None:
            duration = max(1, round(duration * scale))
        return Compute(duration)

    accesses = accesses or []
    chunks = len(accesses) + 1
    base, leftover = divmod(compute, chunks)
    body: list[Segment] = []
    for index, (obj, duration) in enumerate(accesses):
        chunk = base + (1 if index < leftover else 0)
        if chunk:
            body.append(work(chunk))
        body.append(ObjectAccess(obj=obj, duration=duration, kind=access_kind))
    if base:
        body.append(work(base))
    if not body:
        body.append(work(compute))
    return TaskSpec(
        name=name,
        arrival=arrival,
        tuf=tuf,
        body=tuple(body),
        abort_handler_time=abort_handler_time,
    )


def approximate_load(tasks: list[TaskSpec]) -> float:
    """The paper's approximate load ``AL = sum(u_i / C_i)``.

    Uses pure computation time ``u_i`` only — object access time is
    excluded, exactly as in Section 6.1's definition.
    """
    return sum(t.compute_time / t.critical_time for t in tasks)


def total_access_time(tasks: list[TaskSpec]) -> int:
    return sum(t.access_time for t in tasks)


def load_scale(computes: list[int], criticals: list[int],
               target_load: float) -> float:
    """The factor that takes ``AL`` over tasks with these compute and
    critical times to ``target_load`` (summed as :func:`approximate_load`
    sums, so the factor is bit-identical)."""
    if target_load <= 0:
        raise ValueError("target load must be positive")
    current = sum(u / c for u, c in zip(computes, criticals))
    if current == 0:
        raise ValueError("cannot scale a task set with zero compute time")
    return target_load / current


def scale_to_load(tasks: list[TaskSpec], target_load: float) -> list[TaskSpec]:
    """Rescale every task's compute segments so ``AL`` hits
    ``target_load``, preserving access structure and time constraints."""
    factor = load_scale([t.compute_time for t in tasks],
                        [t.critical_time for t in tasks], target_load)
    rescaled = []
    for task in tasks:
        body = tuple(
            Compute(max(1, round(s.duration * factor)))
            if isinstance(s, Compute) else s
            for s in task.body
        )
        rescaled.append(TaskSpec(
            name=task.name,
            arrival=task.arrival,
            tuf=task.tuf,
            body=body,
            abort_handler_time=task.abort_handler_time,
        ))
    return rescaled


def random_taskset(rng: random.Random,
                   n_tasks: int = 10,
                   n_objects: int = 10,
                   accesses_per_job: int = 2,
                   avg_compute: int = 300,
                   access_duration: int = 10,
                   window_range: tuple[int, int] = (20_000, 60_000),
                   max_arrivals: int = 1,
                   tuf_class: str = "step",
                   target_load: float | None = None) -> list[TaskSpec]:
    """Generate a reproducible random task set in the style of the paper's
    experiments (10 tasks, 10 shared queues, arbitrary access patterns).

    ``tuf_class`` is ``"step"`` (Figures 10/12) or ``"hetero"``
    (Figures 11/13/14).  Critical times are drawn at 40–90 % of each
    task's window (keeping ``C_i <= W_i``).  If ``target_load`` is given,
    compute segments are rescaled so ``AL`` matches it.
    """
    if n_tasks <= 0:
        raise ValueError("need at least one task")
    windows = [rng.randint(*window_range) for _ in range(n_tasks)]
    criticals = [int(w * rng.uniform(0.4, 0.9)) for w in windows]
    if tuf_class == "step":
        tufs = step_tuf_mix(criticals)
    elif tuf_class == "hetero":
        tufs = heterogeneous_tuf_mix(criticals)
    else:
        raise ValueError(f"unknown tuf_class {tuf_class!r}")
    tasks = []
    for index in range(n_tasks):
        compute = max(1, int(rng.uniform(0.5, 1.5) * avg_compute))
        accesses = [
            (rng.randrange(n_objects), access_duration)
            for _ in range(min(accesses_per_job, n_objects) if n_objects else 0)
        ]
        arrival = UAMSpec(
            min_arrivals=1,
            max_arrivals=max_arrivals,
            window=windows[index],
        )
        tasks.append(make_task(
            name=f"T{index}",
            arrival=arrival,
            tuf=tufs[index],
            compute=compute,
            accesses=accesses,
        ))
    if target_load is not None:
        tasks = scale_to_load(tasks, target_load)
    return tasks
