"""The paper's experimental workloads (Section 6).

The evaluation uses a task set of 10 tasks, accessing 10 shared queues
"arbitrarily", with two TUF classes (step-only and heterogeneous), average
job execution times between 10 µs and 1 ms, and approximate loads
``AL = sum(u_i / C_i)`` of ≈0.4 (underload) and ≈1.1 (overload).

Exact per-task parameters are not published; these builders fix the
unstated ones with documented conventions:

* task windows are drawn around ``10 u_i / AL_target`` so that the task
  count, execution times and load target are mutually consistent;
* critical times sit at 90–100 % of the window (keeping ``C_i <= W_i``
  while making AL track true utilization closely, so AL ≈ 1.1 genuinely
  overloads);
* each job accesses ``m`` of the shared queues, one operation each, with
  the object choice rotating across tasks so all queues see contention.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.arrivals.spec import UAMSpec
from repro.tasks.segments import AccessKind
from repro.tasks.task import TaskSpec
from repro.tasks.taskset import load_scale, make_task, scale_to_load
from repro.tuf.catalog import heterogeneous_tuf_mix, step_tuf_mix
from repro.units import US

#: Intrinsic time of one queue operation (enqueue/dequeue) — the paper's
#: Figure 8 shows lock-free access times of a few microseconds on the
#: 500 MHz testbed.
DEFAULT_ACCESS_DURATION = 2 * US


def paper_taskset(rng: random.Random,
                  n_tasks: int = 10,
                  n_objects: int = 10,
                  accesses_per_job: int = 2,
                  avg_exec: int = 300 * US,
                  target_load: float = 0.4,
                  tuf_class: str = "step",
                  max_arrivals: int = 1,
                  access_duration: int = DEFAULT_ACCESS_DURATION,
                  access_kind: AccessKind = AccessKind.WRITE) -> list[TaskSpec]:
    """The 10-task / 10-queue workload of Figures 8–13.

    ``accesses_per_job`` is the figures' x-axis "number of shared objects
    accessed"; each job touches that many distinct queues (rotating
    starting offset per task, so contention spreads over all queues).
    """
    if accesses_per_job > max(n_objects, 1):
        raise ValueError("cannot access more distinct objects than exist")
    computes = [
        max(1, int(rng.uniform(0.5, 1.5) * avg_exec)) for _ in range(n_tasks)
    ]
    # Windows consistent with the load target: AL = sum(u_i / C_i) and
    # C_i ≈ 0.95 W_i  =>  W_i ≈ n u_i / (0.95 AL).
    windows = [
        max(10, int(n_tasks * u / max(target_load, 1e-6) / 0.95))
        for u in computes
    ]
    criticals = [int(w * rng.uniform(0.90, 1.0)) for w in windows]
    if tuf_class == "step":
        tufs = step_tuf_mix(criticals)
    elif tuf_class == "hetero":
        tufs = heterogeneous_tuf_mix(criticals)
    else:
        raise ValueError(f"unknown tuf_class {tuf_class!r}")
    scale = load_scale(computes, [tuf.critical_time for tuf in tufs],
                       target_load)
    tasks = []
    for index in range(n_tasks):
        if n_objects and accesses_per_job:
            accesses = [
                ((index + k) % n_objects, access_duration)
                for k in range(accesses_per_job)
            ]
        else:
            accesses = []
        tasks.append(make_task(
            name=f"T{index}",
            arrival=UAMSpec(min_arrivals=1, max_arrivals=max_arrivals,
                            window=windows[index]),
            tuf=tufs[index],
            compute=computes[index],
            accesses=accesses,
            access_kind=access_kind,
            scale=scale,
        ))
    return tasks


def scaled_paper_taskset(rng: random.Random, target_load: float,
                         **kwargs) -> list[TaskSpec]:
    """``paper_taskset`` rescaled exactly to ``target_load`` (builders
    already hit it approximately; this pins it for CML bisection)."""
    tasks = paper_taskset(rng, target_load=target_load, **kwargs)
    return scale_to_load(tasks, target_load)


def interference_taskset(rng: random.Random,
                         n_victims: int = 5,
                         n_interferers: int = 5,
                         n_objects: int = 4,
                         max_arrivals: int = 2) -> list[TaskSpec]:
    """Retry-inducing workload for validating Theorem 2.

    *Victims* have long critical times and long lock-free accesses, so
    they are frequently on the CPU mid-access.  *Interferers* have short
    critical times (they preempt whatever runs, under any ECF-ordered
    dispatch) and burst-arrive up to ``max_arrivals`` at a time, writing
    the same objects — each burst can invalidate a victim's in-flight
    access.  The total utilization stays feasible so jobs actually
    interleave instead of being rejected.
    """
    from repro.units import US

    tasks: list[TaskSpec] = []
    for index in range(n_victims):
        window = 4_000 * US + rng.randint(0, 500) * US
        tasks.append(make_task(
            name=f"V{index}",
            arrival=UAMSpec(1, 1, window),
            tuf=step_tuf_mix([window - 100 * US])[0],
            compute=100 * US,
            accesses=[(index % n_objects, 400 * US)],
        ))
    for index in range(n_interferers):
        window = 2_000 * US + rng.randint(0, 300) * US
        tasks.append(make_task(
            name=f"I{index}",
            arrival=UAMSpec(1, max_arrivals, window),
            tuf=step_tuf_mix([500 * US])[0],
            compute=40 * US,
            accesses=[(index % n_objects, 20 * US)],
        ))
    return tasks


def readers_taskset(rng: random.Random,
                    n_readers: int,
                    n_writers: int = 2,
                    n_objects: int = 10,
                    accesses_per_job: int = 2,
                    avg_exec: int = 300 * US,
                    target_load: float | None = None,
                    access_duration: int = DEFAULT_ACCESS_DURATION
                    ) -> list[TaskSpec]:
    """Figure 14's workload: a fixed pool of writer tasks plus an
    increasing number of reader tasks, heterogeneous TUFs.

    If ``target_load`` is None, the load grows with the reader count
    (≈0.1 per task, the paper's "AL = 0.1–1.1" sweep); otherwise the set
    is rescaled to the given AL.
    """
    n_tasks = n_readers + n_writers
    load = target_load if target_load is not None else 0.1 * n_tasks
    computes = [
        max(1, int(rng.uniform(0.5, 1.5) * avg_exec)) for _ in range(n_tasks)
    ]
    windows = [
        max(10, int(n_tasks * u / max(load, 1e-6) / 0.95)) for u in computes
    ]
    criticals = [int(w * rng.uniform(0.90, 1.0)) for w in windows]
    tufs = heterogeneous_tuf_mix(criticals)
    scale = load_scale(computes, [tuf.critical_time for tuf in tufs], load)
    tasks = []
    for index in range(n_tasks):
        kind = AccessKind.WRITE if index < n_writers else AccessKind.READ
        accesses = [
            ((index + k) % n_objects, access_duration)
            for k in range(min(accesses_per_job, n_objects))
        ]
        tasks.append(make_task(
            name=("W" if kind is AccessKind.WRITE else "R") + str(index),
            arrival=UAMSpec(min_arrivals=1, max_arrivals=1,
                            window=windows[index]),
            tuf=tufs[index],
            compute=computes[index],
            accesses=accesses,
            access_kind=kind,
            scale=scale,
        ))
    return tasks


# ----------------------------------------------------------------------
# Picklable taskset builders (campaign workers)
# ----------------------------------------------------------------------
#
# The figure campaigns used to close over their sweep variables
# (``def build(rng, m=m): ...``), which pickles neither under ``spawn``
# nor by reference.  A :class:`BuilderSpec` is the declarative
# equivalent: a registered factory name plus frozen keyword arguments,
# so a campaign worker can rebuild the exact same taskset from the spec
# and the trial's own RNG.

WORKLOAD_FACTORIES: dict[str, Any] = {
    "paper": paper_taskset,
    "scaled_paper": scaled_paper_taskset,
    "interference": interference_taskset,
    "readers": readers_taskset,
}


@dataclass(frozen=True)
class BuilderSpec:
    """Picklable ``TasksetBuilder``: ``spec(rng)`` invokes the named
    factory with the frozen keyword arguments."""

    factory: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, factory: str, **params: Any) -> "BuilderSpec":
        if factory not in WORKLOAD_FACTORIES:
            raise ValueError(
                f"unknown workload factory {factory!r}; "
                f"known: {sorted(WORKLOAD_FACTORIES)}")
        return cls(factory=factory, params=tuple(sorted(params.items())))

    def __call__(self, rng: random.Random) -> list[TaskSpec]:
        return WORKLOAD_FACTORIES[self.factory](rng, **dict(self.params))


@dataclass(frozen=True)
class LoadedBuilderSpec:
    """Picklable ``LoadedTasksetBuilder`` for CML bisection:
    ``spec(rng, load)`` forwards the probed load as ``target_load``."""

    factory: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, factory: str, **params: Any) -> "LoadedBuilderSpec":
        if factory not in WORKLOAD_FACTORIES:
            raise ValueError(
                f"unknown workload factory {factory!r}; "
                f"known: {sorted(WORKLOAD_FACTORIES)}")
        return cls(factory=factory, params=tuple(sorted(params.items())))

    def __call__(self, rng: random.Random,
                 load: float) -> list[TaskSpec]:
        return WORKLOAD_FACTORIES[self.factory](
            rng, target_load=load, **dict(self.params))
