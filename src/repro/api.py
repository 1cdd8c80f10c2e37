"""High-level convenience API.

The one entry point is :func:`simulate` applied to a
:class:`~repro.scenario.Scenario` — a frozen, declarative description of
one run (workload, sync style, horizon, seed, fault layer).
:func:`quick_simulation` builds the quick-look random-workload Scenario
(see :func:`quick_scenario`) and runs it.

The resilient campaign layer is re-exported here for one-stop imports:
:class:`CampaignConfig` / :class:`CampaignEngine` (crash-isolated
parallel trials, per-trial timeouts, seeded retry with backoff,
checkpointed resume) and :func:`atomic_write` (interrupt-safe artifact
writes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._lazy import lazy_exports
from repro.core.edf import EDF
from repro.core.llf import LLF
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.scenario import Scenario
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.metrics import SimulationResult
from repro.sim.overheads import KernelCosts
from repro.tasks.taskset import approximate_load

# The campaign and observer re-exports load on first use, so that
# ``simulate`` alone never imports the campaign engine.
__getattr__, __dir__, _ = lazy_exports(__name__, {
    "repro.campaign.spec": ("CampaignConfig", "CampaignResult",
                            "CampaignStats", "TrialFailure"),
    "repro.campaign.engine": ("CampaignEngine",),
    "repro.campaign.io": ("atomic_write",),
    "repro.obs.observer": ("NULL_OBSERVER", "Observer"),
})

__all__ = [
    "Scenario",
    "SimulationSummary",
    "simulate",
    "quick_scenario",
    "quick_simulation",
    "build_policy_and_mode",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "CampaignStats",
    "TrialFailure",
    "atomic_write",
    "Observer",
    "NULL_OBSERVER",
]


@dataclass(frozen=True)
class SimulationSummary:
    """Headline numbers of one run, with the full result attached."""

    policy: str
    sync: str
    load: float
    aur: float
    cmr: float
    result: SimulationResult

    def __str__(self) -> str:
        return (
            f"{self.policy}/{self.sync}: AL={self.load:.2f} "
            f"AUR={self.aur:.3f} CMR={self.cmr:.3f} "
            f"({len(self.result.records)} jobs, "
            f"{self.result.total_retries} retries, "
            f"{self.result.total_blockings} blockings)"
        )


def build_policy_and_mode(sync: str):
    """Map a sync style name to (policy, SyncMode, KernelCosts).

    * ``"lockfree"`` — lock-free RUA over lock-free objects;
    * ``"lockbased"`` — lock-based RUA over locks;
    * ``"ideal"`` — lock-free RUA over ideal (zero-cost) objects, the
      paper's "ideal RUA" baseline;
    * ``"edf"`` — EDF over ideal objects.
    """
    if sync == "lockfree":
        return LockFreeRUA(), SyncMode.LOCK_FREE, KernelCosts()
    if sync == "lockbased":
        return LockBasedRUA(), SyncMode.LOCK_BASED, KernelCosts()
    if sync == "ideal":
        return LockFreeRUA(), SyncMode.NONE, KernelCosts.ideal()
    if sync == "edf":
        return EDF(), SyncMode.NONE, KernelCosts.ideal()
    raise ValueError(f"unknown sync style {sync!r}")


def simulate(scenario: Scenario, *, observer=None, checkpoints=None,
             checkpoint_sink=None, resume_from=None) -> SimulationSummary:
    """Run one :class:`~repro.scenario.Scenario`.

    ``observer=`` attaches a recording :class:`repro.obs.Observer`; its
    end-of-run summary lands on ``summary.result.obs``; a scenario with
    ``trace=True`` and no ``observer=`` gets a fresh one.  The scenario's
    fault/degradation fields (see :mod:`repro.faults`) inject a
    deterministic fault plan, guard UAM admission, bound lock-free
    retries and attach the runtime invariant monitors; the run's
    degradation report lands on ``summary.result.degradation``.

    Crash recovery (see :mod:`repro.sim.checkpoint`): ``checkpoints=``
    attaches a :class:`~repro.sim.checkpoint.CheckpointPolicy` (each
    snapshot goes to ``checkpoint_sink``, a callable, or accumulates on
    the kernel); ``resume_from=`` restores a
    :class:`~repro.sim.checkpoint.KernelCheckpoint` and finishes the
    run byte-identically to the uninterrupted simulation.
    """
    if not isinstance(scenario, Scenario):
        raise TypeError(f"simulate() takes a repro.Scenario, not "
                        f"{type(scenario).__name__}")
    tasks, traces = scenario.materialize()
    policy, mode, costs = build_policy_and_mode(scenario.sync)
    if scenario.policy == "edf":
        policy = EDF()
    elif scenario.policy == "llf":
        policy = LLF()
    if scenario.costs is not None:
        costs = scenario.costs
    if observer is None and scenario.trace:
        from repro.obs.observer import Observer

        observer = Observer()
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=traces,
        policy=policy,
        horizon=scenario.horizon,
        sync=mode,
        costs=costs,
        retry_policy=scenario.retry_policy,
        fault_plan=scenario.faults,
        admission=scenario.admission,
        retry_guard=scenario.retry_guard,
        monitors=scenario.monitors,
        observer=observer,
        checkpoints=checkpoints,
        checkpoint_sink=checkpoint_sink,
    )
    if resume_from is not None:
        kernel = Kernel.restore(config, resume_from)
    else:
        kernel = Kernel(config)
    result = kernel.run()
    return SimulationSummary(
        policy=policy.name,
        sync=scenario.sync,
        load=approximate_load(tasks),
        aur=result.aur,
        cmr=result.cmr,
        result=result,
    )


def quick_scenario(n_tasks: int = 5,
                   n_objects: int = 3,
                   sync: str = "lockfree",
                   load: float = 0.8,
                   horizon_us: int = 500_000,
                   seed: int = 0,
                   tuf_class: str = "step",
                   arrival_style: str = "uniform") -> Scenario:
    """The declarative form of :func:`quick_simulation`'s run: the
    paper-style random workload with the quick-look parameter defaults.

    ``horizon_us`` is in microseconds for convenience; everything else in
    the package uses nanosecond ticks.  ``seeding="split"`` preserves the
    historical convention exactly: tasks from ``Random(seed)``, arrivals
    from ``Random(seed + 1)``.
    """
    from repro.experiments.workloads import BuilderSpec

    workload = BuilderSpec.make(
        "paper",
        n_tasks=n_tasks,
        n_objects=n_objects,
        accesses_per_job=min(2, n_objects),
        avg_exec=300_000,                   # 300 µs
        access_duration=5_000,              # 5 µs per operation
        tuf_class=tuf_class,
        target_load=load,
    )
    return Scenario(
        sync=sync,
        horizon=horizon_us * 1_000,
        seed=seed,
        workload=workload,
        seeding="split",
        arrival_style=arrival_style,
    )


def quick_simulation(n_tasks: int = 5,
                     n_objects: int = 3,
                     sync: str = "lockfree",
                     load: float = 0.8,
                     horizon_us: int = 500_000,
                     seed: int = 0,
                     tuf_class: str = "step",
                     arrival_style: str = "uniform",
                     observer=None) -> SimulationSummary:
    """One-call random-workload simulation (see the package docstring):
    a thin wrapper over ``simulate(quick_scenario(...))``."""
    scenario = quick_scenario(
        n_tasks=n_tasks, n_objects=n_objects, sync=sync, load=load,
        horizon_us=horizon_us, seed=seed, tuf_class=tuf_class,
        arrival_style=arrival_style)
    return simulate(scenario, observer=observer)
