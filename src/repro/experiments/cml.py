"""Critical-time-Miss Load measurement (Section 6.1).

The CML of a scheduler is "the approximate load *after which* the
scheduler begins to miss task critical times".  We measure it by
bisecting the approximate load: a load is *clean* when, across the seeded
trials, the critical-time-meet ratio stays at (or above) a tolerance-
adjusted 100 %.  The CML is the highest clean load found.

Object access time is excluded from AL by definition (the taskset
builders already define AL over pure compute time), so the gap between a
scheduler's CML and the ideal 1.0 exposes exactly the scheduler +
synchronization overhead the figure is about.

The bisection itself is inherently sequential (each probe depends on the
last verdict), but the seeded trials *within* one probe are independent
and route through the campaign engine when one is supplied — the probe's
verdict is then computed from whichever trials succeeded, and a trial
that failed terminally (crash/timeout past its retry budget) makes the
probed load count as not-clean, the conservative direction.
"""

from __future__ import annotations

import random
import statistics
from typing import TYPE_CHECKING, Callable

from repro.experiments.runner import run_once
from repro.tasks.task import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign import CampaignConfig, CampaignEngine

LoadedTasksetBuilder = Callable[[random.Random, float], list[TaskSpec]]


def cml_probe_trial(build_tasks: LoadedTasksetBuilder, sync: str,
                    horizon: int, load: float, seed: int,
                    arrival_style: str) -> tuple[bool, float]:
    """One seeded probe trial: ``(any jobs finished, cmr)``.  Module-level
    and picklable for campaign workers."""
    rng = random.Random(seed)
    tasks = build_tasks(rng, load)
    result = run_once(tasks, sync, horizon, rng,
                      arrival_style=arrival_style)
    return bool(result.records), result.cmr


def _clean_at(build_tasks: LoadedTasksetBuilder, sync: str, horizon: int,
              load: float, seeds: list[int], tolerance: float,
              arrival_style: str,
              engine: "CampaignEngine | None" = None) -> bool:
    if engine is None:
        ratios = []
        for seed in seeds:
            populated, cmr = cml_probe_trial(build_tasks, sync, horizon,
                                             load, seed, arrival_style)
            if not populated:
                return False
            ratios.append(cmr)
        return statistics.fmean(ratios) >= 1.0 - tolerance
    batch = engine.map(
        cml_probe_trial,
        [(build_tasks, sync, horizon, load, seed, arrival_style)
         for seed in seeds],
    )
    values = batch.values
    if len(values) < len(seeds):          # lost trials: conservative
        return False
    if any(not populated for populated, _ in values):
        return False
    return statistics.fmean(cmr for _, cmr in values) >= 1.0 - tolerance


def measure_cml(build_tasks: LoadedTasksetBuilder, sync: str, horizon: int,
                seeds: list[int],
                low: float = 0.02, high: float = 1.2,
                iterations: int = 8, tolerance: float = 0.002,
                arrival_style: str = "uniform",
                campaign: "CampaignConfig | CampaignEngine | None" = None
                ) -> float:
    """Bisect for the highest clean load in ``[low, high]``.

    Returns ``low`` if even the lowest probed load misses (a scheduler
    whose overhead swamps the workload), or ``high`` if nothing misses in
    range.  ``campaign`` routes each probe's seeded trials through the
    resilient engine (the builder must then be picklable, e.g. a
    :class:`repro.experiments.workloads.LoadedBuilderSpec`).  An engine
    built here from a config is closed before returning; a passed engine
    stays the caller's.
    """
    from repro.campaign import as_engine

    engine = as_engine(campaign, tag=f"cml:{sync}")
    try:
        if not _clean_at(build_tasks, sync, horizon, low, seeds, tolerance,
                         arrival_style, engine):
            return low
        if _clean_at(build_tasks, sync, horizon, high, seeds, tolerance,
                     arrival_style, engine):
            return high
        lo, hi = low, high
        for _ in range(iterations):
            mid = (lo + hi) / 2.0
            if _clean_at(build_tasks, sync, horizon, mid, seeds, tolerance,
                         arrival_style, engine):
                lo = mid
            else:
                hi = mid
        return lo
    finally:
        if engine is not None and engine is not campaign:
            engine.close()
