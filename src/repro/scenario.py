"""Declarative simulation scenarios.

A :class:`Scenario` is a frozen value object that captures *everything*
that defines one simulation run — workload, synchronization style,
horizon, seed and seeding convention, arrival generation, the optional
fault/degradation layer — so that the one entry point,
:func:`repro.api.simulate`, can execute it.  The convenience helpers
(``quick_simulation``, ``experiments.runner.run_once``) are thin
wrappers that build a Scenario and call ``simulate``.

Two sourcing styles are supported, exactly one of which must be set:

* ``workload=`` — a picklable
  :class:`repro.experiments.workloads.BuilderSpec`; the task set is
  rebuilt from the scenario's own seed, so the scenario is fully
  serializable (:meth:`to_dict` / :meth:`from_dict` round-trip).
* ``tasks=`` — an explicit tuple of :class:`~repro.tasks.task.TaskSpec`;
  optionally with explicit ``arrival_traces`` (used by ``run_once``,
  whose caller owns the RNG that produced the traces).

Seeding conventions (``seeding=``):

* ``"shared"`` — one ``random.Random(seed)`` stream builds the task set
  (if any) and then continues into arrival generation.  With explicit
  ``tasks=`` this equals ``run_once(tasks, ..., random.Random(seed))``;
  with ``workload=`` it is the ``simulation_trial`` behaviour.
* ``"split"`` — tasks from ``Random(seed)``, arrivals from
  ``Random(seed + 1)``.  This is the :func:`repro.api.quick_scenario`
  convention.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

from repro.arrivals.generators import generator_for
from repro.faults.degradation import AdmissionPolicy, RetryGuard
from repro.faults.plan import FaultPlan
from repro.sim.objects import RetryPolicy
from repro.sim.overheads import KernelCosts
from repro.tasks.task import TaskSpec

if TYPE_CHECKING:  # import-cycle guard: workloads -> experiments -> runner
    from repro.experiments.workloads import BuilderSpec

__all__ = ["Scenario", "SYNC_STYLES", "SEEDING_STYLES", "POLICY_OVERRIDES"]

#: Synchronization styles understood by
#: :func:`repro.api.build_policy_and_mode`.
SYNC_STYLES = ("lockfree", "lockbased", "ideal", "edf")

SEEDING_STYLES = ("shared", "split")

#: Optional scheduler-policy overrides.  ``None`` derives the policy
#: from ``sync`` (RUA variants, or EDF for ``sync="edf"``).
POLICY_OVERRIDES = ("edf", "llf")


@dataclass(frozen=True, slots=True)
class Scenario:
    """One fully-specified simulation run.

    Frozen and hashable-by-equality; lists passed for ``tasks`` /
    ``arrival_traces`` are normalized to tuples.
    """

    sync: str = "lockfree"
    horizon: int = 500_000_000
    seed: int = 0
    workload: BuilderSpec | None = None
    tasks: tuple[TaskSpec, ...] | None = None
    arrival_traces: tuple[tuple[int, ...], ...] | None = None
    seeding: str = "shared"
    arrival_style: str = "uniform"
    policy: str | None = None
    retry_policy: RetryPolicy = RetryPolicy.ON_CONFLICT
    trace: bool = False
    faults: FaultPlan | None = None
    admission: AdmissionPolicy | None = None
    retry_guard: RetryGuard | None = None
    monitors: bool = False
    costs: KernelCosts | None = None

    def __post_init__(self) -> None:
        if self.sync not in SYNC_STYLES:
            raise ValueError(
                f"unknown sync style {self.sync!r}; known: {SYNC_STYLES}")
        if self.seeding not in SEEDING_STYLES:
            raise ValueError(
                f"unknown seeding style {self.seeding!r}; "
                f"known: {SEEDING_STYLES}")
        if self.policy is not None and self.policy not in POLICY_OVERRIDES:
            raise ValueError(
                f"unknown policy override {self.policy!r}; "
                f"known: {POLICY_OVERRIDES}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if (self.workload is None) == (self.tasks is None):
            raise ValueError(
                "exactly one of workload= and tasks= must be given")
        if isinstance(self.retry_policy, str):
            object.__setattr__(
                self, "retry_policy", RetryPolicy(self.retry_policy))
        if self.tasks is not None and not isinstance(self.tasks, tuple):
            object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.arrival_traces is not None:
            if self.tasks is None:
                raise ValueError(
                    "explicit arrival_traces require explicit tasks")
            object.__setattr__(
                self, "arrival_traces",
                tuple(tuple(trace) for trace in self.arrival_traces))
            if len(self.arrival_traces) != len(self.tasks):
                raise ValueError(
                    "arrival_traces must match tasks one-to-one")

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(self) -> tuple[list[TaskSpec], list[list[int]]]:
        """Build the concrete task set and per-task arrival traces.

        Pure function of the scenario (deterministic in ``seed``), per
        the seeding conventions in the module docstring.
        """
        rng = random.Random(self.seed)
        if self.workload is not None:
            tasks = list(self.workload(rng))
        else:
            tasks = list(self.tasks)
        if self.arrival_traces is not None:
            return tasks, [list(trace) for trace in self.arrival_traces]
        if self.seeding == "split":
            rng = random.Random(self.seed + 1)
        traces = [
            generator_for(task.arrival,
                          self.arrival_style).generate(rng, self.horizon)
            for task in tasks
        ]
        return tasks, traces

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize a *declarative* scenario (``workload=``-sourced, no
        runtime-object components) to plain JSON-compatible types.

        Raises :class:`ValueError` for scenarios carrying explicit task
        objects, traces, or fault-layer components — those are runtime
        objects without a stable wire format.
        """
        for name in ("tasks", "arrival_traces", "faults", "admission",
                     "retry_guard"):
            if getattr(self, name) is not None:
                raise ValueError(
                    f"Scenario.{name} is not serializable; only "
                    f"declarative (workload=) scenarios round-trip")
        return {
            "sync": self.sync,
            "horizon": self.horizon,
            "seed": self.seed,
            "workload": {
                "factory": self.workload.factory,
                "params": dict(self.workload.params),
            },
            "seeding": self.seeding,
            "arrival_style": self.arrival_style,
            "policy": self.policy,
            "retry_policy": self.retry_policy.value,
            "trace": self.trace,
            "monitors": self.monitors,
            "costs": None if self.costs is None else {
                "context_switch": self.costs.context_switch,
                "lock_overhead": self.costs.lock_overhead,
                "cas_overhead": self.costs.cas_overhead,
                "timer_overhead": self.costs.timer_overhead,
            },
        }

    def canonical_json(self) -> str:
        """The canonical wire encoding of this scenario: :meth:`to_dict`
        serialized with sorted keys and no whitespace.  Two scenarios
        are equal iff their canonical encodings are equal, regardless of
        the key order any transport delivered them in."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Stable SHA-256 hex digest of the canonical encoding.

        The digest is a pure function of the scenario's declarative
        content — identical across process restarts, dict orderings and
        machines — so it can key a content-addressed result store: any
        field change yields a different digest, and equal digests imply
        byte-identical ``simulate(scenario)`` results at a fixed code
        version.  Like :meth:`to_dict`, it is only defined for
        declarative (``workload=``-sourced) scenarios.
        """
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown Scenario keys: {sorted(unknown)}")
        from repro.experiments.workloads import BuilderSpec

        payload = dict(data)
        workload = payload.pop("workload", None)
        if workload is not None:
            workload = BuilderSpec.make(workload["factory"],
                                        **workload["params"])
        costs = payload.pop("costs", None)
        if costs is not None:
            costs = KernelCosts(**costs)
        return cls(workload=workload, costs=costs, **payload)
