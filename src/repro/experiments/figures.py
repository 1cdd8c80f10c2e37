"""Per-figure experiment functions (Figures 8–14, the theorem/lemma
validations and the retry-policy ablation).

Each function runs the seeded simulation campaign for one figure of the
paper and returns a :class:`FigureResult` whose ``render()`` produces the
ASCII table recorded in EXPERIMENTS.md, then one verdict per paper claim
the function checked on its own data (:class:`Claim`).  ``repeats`` and
``horizon`` trade fidelity for speed: ``repro figure NAME`` runs the
settings that EXPERIMENTS.md records and exits 1 when a claim fails, and
``tests/experiments/test_paper_shapes.py`` requires every claim to pass.

Every figure accepts ``campaign=`` — a
:class:`repro.campaign.CampaignConfig` (or a pre-built
:class:`repro.campaign.CampaignEngine`) that routes the figure's trials
through the resilient campaign engine: parallel workers, per-trial
timeouts, retry with backoff, write-ahead journaling and resume.  The
default (``None``) preserves the original in-process serial loops
byte-for-byte.  Trial functions are module-level and rebuild their
tasksets from ``(base_seed, trial_index)``-derived seeds alone, so
serial and parallel campaigns agree on every data point.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.retry_bound import retry_bound_for_taskset, x_i
from repro.analysis.sojourn import compare_sojourn
from repro.analysis.aur_bounds import (
    lemma4_lockfree_aur_bounds,
    lemma5_lockbased_aur_bounds,
)
from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignStats,
    as_engine,
)
from repro.experiments.cml import measure_cml
from repro.experiments.report import format_scalar_rows, format_series_table
from repro.experiments.runner import run_many, run_once
from repro.experiments.stats import Series
from repro.experiments.workloads import (
    DEFAULT_ACCESS_DURATION,
    BuilderSpec,
    LoadedBuilderSpec,
    interference_taskset,
    paper_taskset,
)
from repro.sim.objects import RetryPolicy
from repro.units import MS, US, ns_to_us

CampaignArg = "CampaignConfig | CampaignEngine | None"

_OPS = {"<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _min(values) -> float:
    """``min`` that is NaN when any value is.  A hollow point (``n == 0``,
    every trial behind it failed) has a NaN mean; NaN must reach the
    claim's comparison, which it fails."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else min(values)


def _max(values) -> float:
    return -_min(-value for value in values)


@dataclass(frozen=True)
class Claim:
    """One paper claim checked on its figure's own data.

    ``text`` states the claim with its margin; ``observed`` is the value
    the predicate tested (a minimum ratio, a last-point gap, ...), so a
    verdict shows how close the data came to the margin."""

    text: str
    section: str
    observed: float
    passed: bool

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} [{self.section}] {self.text}: "
                f"observed {self.observed:.4g}")


@dataclass
class FigureResult:
    """Structured outcome of one figure's campaign."""

    figure: str
    title: str
    x_label: str
    series: list[Series] = field(default_factory=list)
    notes: str = ""
    #: Campaign health when the figure ran through the resilient engine
    #: (None for the plain serial path).  Failed trials thin the sample
    #: behind a point; the render makes that visible instead of silent.
    campaign: CampaignStats | None = None
    #: Results without an x axis (Theorem 3, the retry ablation), in
    #: place of series: label -> (value, format spec).
    scalars: dict[str, tuple[Any, str]] = field(default_factory=dict)
    #: The paper's claims about this figure, checked on its data.
    claims: list[Claim] = field(default_factory=list)

    def scalar(self, label: str) -> Any:
        return self.scalars[label][0]

    def means(self, label: str) -> list[float]:
        return next(s.means() for s in self.series if s.label == label)

    def claim(self, section: str, quantity: str, op: str, limit: float,
              observed: float) -> None:
        """Check the claim ``quantity op limit`` and append it.  A claim
        over a hollow point fails: the point's NaN mean makes
        ``observed`` NaN, and every comparison with NaN is false."""
        self.claims.append(Claim(
            text=f"{quantity} {op} {limit:.4g}", section=section,
            observed=float(observed), passed=_OPS[op](observed, limit)))

    @property
    def passed(self) -> bool:
        return all(claim.passed for claim in self.claims)

    def render(self) -> str:
        title = f"{self.figure}: {self.title}"
        if self.scalars:
            text = format_scalar_rows(title, [
                (label, format(value, spec))
                for label, (value, spec) in self.scalars.items()])
        else:
            text = format_series_table(title, self.x_label, self.series,
                                       show_n=self.campaign is not None)
        if self.notes:
            text += f"\n{self.notes}"
        for claim in self.claims:
            text += f"\n{claim.render()}"
        if self.campaign is not None:
            text += f"\ncampaign: {self.campaign.summary_line()}"
        return text

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable summary (the CLI's ``--json`` payload)."""
        out = {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "series": [s.to_dict() for s in self.series],
            "notes": self.notes,
            "campaign": (None if self.campaign is None
                         else self.campaign.to_dict()),
        }
        if self.scalars:
            out["scalars"] = {label: value
                              for label, (value, _) in self.scalars.items()}
        if self.claims:
            out["claims"] = [asdict(claim) for claim in self.claims]
        return out


def _seeds(repeats: int, base: int) -> list[int]:
    return [base + 1000 * k for k in range(repeats)]


def _engine_for(campaign, tag: str) -> tuple[CampaignEngine | None, bool]:
    """Normalize the ``campaign=`` argument; ``owned`` tells the figure
    whether it must close the engine (it built one from a config) or the
    caller keeps ownership (it passed an engine)."""
    engine = as_engine(campaign, tag=tag)
    owned = engine is not None and not isinstance(campaign, CampaignEngine)
    return engine, owned


def _finish(result: FigureResult, engine: CampaignEngine | None,
            owned: bool) -> FigureResult:
    if engine is not None:
        result.campaign = engine.stats()
        if owned:
            engine.close()
    return result


# ---------------------------------------------------------------------
# Figure 8 — object access times r and s
# ---------------------------------------------------------------------

def fig8(repeats: int = 5, horizon: int = 150 * MS,
         objects: tuple[int, ...] = tuple(range(1, 11)),
         load: float = 0.5, base_seed: int = 80,
         campaign: CampaignArg = None) -> FigureResult:
    """Lock-based (``r``) vs lock-free (``s``) shared-object access time
    under an increasing number of objects accessed per job.

    ``r``/``s`` are the intrinsic operation time plus the measured
    mechanism time per committed access (lock bookkeeping and the
    scheduler passes that lock/unlock requests trigger for ``r``; CAS
    attempts and retry-wasted work for ``s``), reported in µs.
    """
    engine, owned = _engine_for(campaign, tag="fig8")
    r_series = Series(label="r lock-based [us]")
    s_series = Series(label="s lock-free [us]")
    for m in objects:
        build = BuilderSpec.make("paper", accesses_per_job=m,
                                 target_load=load)
        r_values = []
        for result in run_many(build, "lockbased", horizon,
                               _seeds(repeats, base_seed),
                               campaign=engine):
            mech = result.mean_lock_mechanism_per_access or 0.0
            r_values.append(ns_to_us(DEFAULT_ACCESS_DURATION + mech))
        s_values = []
        for result in run_many(build, "lockfree", horizon,
                               _seeds(repeats, base_seed),
                               campaign=engine):
            mech = result.mean_lockfree_mechanism_per_access or 0.0
            s_values.append(ns_to_us(DEFAULT_ACCESS_DURATION + mech))
        r_series.add(m, r_values)
        s_series.add(m, s_values)
    result = FigureResult(
        figure="Figure 8",
        title="Lock-Based and Lock-Free Shared Object Access Time",
        x_label="objects/job",
        series=[r_series, s_series],
    )
    r, s = r_series.means(), s_series.means()
    result.claim("§6 Fig. 8", "min r/s", ">", 3,
                 _min(a / b for a, b in zip(r, s)))
    result.claim("§6 Fig. 8", "max s / min s", "<", 2, _max(s) / _min(s))
    result.claim("§6 Fig. 8", "r at most objects / r at fewest", ">=", 0.8,
                 r[-1] / r[0])
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Figure 9 — Critical-time-Miss Load vs average execution time
# ---------------------------------------------------------------------

def fig9(repeats: int = 3,
         exec_times_us: tuple[int, ...] = (10, 30, 100, 300, 1000),
         base_seed: int = 90, windows_per_run: int = 40,
         bisect_iterations: int = 7,
         campaign: CampaignArg = None) -> FigureResult:
    """CML of ideal / lock-free / lock-based RUA under increasing average
    job execution time (10 µs – 1 ms)."""
    engine, owned = _engine_for(campaign, tag="fig9")
    series = {sync: Series(label=f"CML {sync}")
              for sync in ("ideal", "lockfree", "lockbased")}
    for exec_us in exec_times_us:
        avg_exec = exec_us * US
        # Horizon: enough windows at the heaviest probed load.
        horizon = max(windows_per_run * 10 * avg_exec, 5 * MS)
        build = LoadedBuilderSpec.make("paper", avg_exec=avg_exec,
                                       accesses_per_job=2)
        for sync in series:
            cml = measure_cml(build, sync, horizon,
                              _seeds(repeats, base_seed),
                              iterations=bisect_iterations,
                              campaign=engine)
            series[sync].add(exec_us, [cml])
    result = FigureResult(
        figure="Figure 9",
        title="Critical Time Miss Load",
        x_label="avg exec [us]",
        series=list(series.values()),
    )
    ideal, lf, lb = (curve.means() for curve in series.values())
    result.claim("§6 Fig. 9", "min CML lockfree - ideal", ">=", -0.15,
                 _min(a - b for a, b in zip(lf, ideal)))
    result.claim("§6 Fig. 9", "CML lockbased at shortest exec", "<", 0.5,
                 lb[0])
    result.claim("§6 Fig. 9", "CML lockbased at longest exec", ">", 0.8,
                 lb[-1])
    result.claim("§6 Fig. 9", "min step of CML lockbased", ">=", 0,
                 _min([b - a for a, b in zip(lb, lb[1:])] or [0.0]))
    result.claim("§6 Fig. 9", "max CML lockbased - ideal", "<=", 0.1,
                 _max(a - b for a, b in zip(lb, ideal)))
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Figures 10-13 — AUR / CMR vs number of shared objects
# ---------------------------------------------------------------------

def _aur_cmr_vs_objects(figure: str, load: float, tuf_class: str,
                        repeats: int, horizon: int,
                        objects: tuple[int, ...],
                        base_seed: int,
                        campaign: CampaignArg = None) -> FigureResult:
    engine, owned = _engine_for(campaign, tag=figure.replace(" ", "").lower())
    labels = ("AUR lock-based", "AUR lock-free",
              "CMR lock-based", "CMR lock-free")
    series = {label: Series(label=label) for label in labels}
    for m in objects:
        build = BuilderSpec.make("paper", accesses_per_job=m,
                                 target_load=load, tuf_class=tuf_class)
        for sync, tag in (("lockbased", "lock-based"),
                          ("lockfree", "lock-free")):
            results = run_many(build, sync, horizon,
                               _seeds(repeats, base_seed),
                               campaign=engine)
            series[f"AUR {tag}"].add(m, [r.aur for r in results])
            series[f"CMR {tag}"].add(m, [r.cmr for r in results])
    regime = "Underload" if load < 1.0 else "Overload"
    return _finish(FigureResult(
        figure=figure,
        title=(f"AUR/CMR During {regime} (AL≈{load}), "
               f"{tuf_class} TUFs"),
        x_label="objects/job",
        series=list(series.values()),
    ), engine, owned)


def _gap(result: FigureResult, section: str, metric: str, op: str,
         limit: float) -> None:
    """Claim on the last-point gap ``metric`` lock-free - lock-based."""
    result.claim(section, f"last-point {metric} lock-free - lock-based",
                 op, limit, result.means(f"{metric} lock-free")[-1]
                 - result.means(f"{metric} lock-based")[-1])


def _underload_claims(result: FigureResult, section: str,
                      aur_floor: float) -> None:
    """Lock-free RUA keeps AUR and CMR near 100 % at every object count
    during underload."""
    for metric, floor in (("AUR", aur_floor), ("CMR", 0.97)):
        result.claim(section, f"min {metric} lock-free", ">", floor,
                     _min(result.means(f"{metric} lock-free")))


def _overload_claims(result: FigureResult, section: str) -> None:
    """Lock-based AUR falls as objects grow while lock-free RUA keeps a
    wide AUR and CMR margin at the most objects."""
    lb = result.means("AUR lock-based")
    result.claim(section, "AUR lock-based, last - first point", "<", 0,
                 lb[-1] - lb[0])
    _gap(result, section, "AUR", ">", 0.3)
    _gap(result, section, "CMR", ">", 0.3)


def fig10(repeats: int = 5, horizon: int = 150 * MS,
          objects: tuple[int, ...] = tuple(range(1, 11)),
          base_seed: int = 100,
          campaign: CampaignArg = None) -> FigureResult:
    """Underload (AL ≈ 0.4), step TUFs."""
    result = _aur_cmr_vs_objects("Figure 10", 0.4, "step", repeats,
                                 horizon, objects, base_seed, campaign)
    _underload_claims(result, "§6 Fig. 10", aur_floor=0.95)
    _gap(result, "§6 Fig. 10", "AUR", ">=", -0.02)
    return result


def fig11(repeats: int = 5, horizon: int = 150 * MS,
          objects: tuple[int, ...] = tuple(range(1, 11)),
          base_seed: int = 110,
          campaign: CampaignArg = None) -> FigureResult:
    """Underload (AL ≈ 0.4), heterogeneous TUFs."""
    result = _aur_cmr_vs_objects("Figure 11", 0.4, "hetero", repeats,
                                 horizon, objects, base_seed, campaign)
    _underload_claims(result, "§6 Fig. 11", aur_floor=0.9)
    # A decaying TUF accrues at most its peak: AUR never exceeds CMR.
    result.claim("§6 Fig. 11", "max AUR - CMR", "<=", 1e-9, _max(
        aur - cmr for tag in ("lock-free", "lock-based")
        for aur, cmr in zip(result.means(f"AUR {tag}"),
                            result.means(f"CMR {tag}"))))
    return result


def fig12(repeats: int = 5, horizon: int = 150 * MS,
          objects: tuple[int, ...] = tuple(range(1, 11)),
          base_seed: int = 120,
          campaign: CampaignArg = None) -> FigureResult:
    """Overload (AL ≈ 1.1), step TUFs."""
    result = _aur_cmr_vs_objects("Figure 12", 1.1, "step", repeats,
                                 horizon, objects, base_seed, campaign)
    _overload_claims(result, "§6 Fig. 12")
    result.claim("§6 Fig. 12", "last-point AUR lock-based", "<", 0.35,
                 result.means("AUR lock-based")[-1])
    return result


def fig13(repeats: int = 5, horizon: int = 150 * MS,
          objects: tuple[int, ...] = tuple(range(1, 11)),
          base_seed: int = 130,
          campaign: CampaignArg = None) -> FigureResult:
    """Overload (AL ≈ 1.1), heterogeneous TUFs."""
    result = _aur_cmr_vs_objects("Figure 13", 1.1, "hetero", repeats,
                                 horizon, objects, base_seed, campaign)
    _overload_claims(result, "§6 Fig. 13")
    return result


# ---------------------------------------------------------------------
# Figure 14 — AUR / CMR vs number of reader tasks
# ---------------------------------------------------------------------

def fig14(repeats: int = 5, horizon: int = 150 * MS,
          readers: tuple[int, ...] = tuple(range(1, 10)),
          base_seed: int = 140,
          campaign: CampaignArg = None) -> FigureResult:
    """Increasing reader-task count, heterogeneous TUFs; the load grows
    with the task count (the paper's AL = 0.1–1.1 sweep)."""
    engine, owned = _engine_for(campaign, tag="fig14")
    labels = ("AUR lock-based", "AUR lock-free",
              "CMR lock-based", "CMR lock-free")
    series = {label: Series(label=label) for label in labels}
    for n_readers in readers:
        build = BuilderSpec.make("readers", n_readers=n_readers)
        for sync, tag in (("lockbased", "lock-based"),
                          ("lockfree", "lock-free")):
            results = run_many(build, sync, horizon,
                               _seeds(repeats, base_seed),
                               campaign=engine)
            series[f"AUR {tag}"].add(n_readers, [r.aur for r in results])
            series[f"CMR {tag}"].add(n_readers, [r.cmr for r in results])
    result = FigureResult(
        figure="Figure 14",
        title="AUR/CMR During Increasing Readers, Heterogeneous TUFs",
        x_label="readers",
        series=list(series.values()),
    )
    result.claim("§6 Fig. 14", "min AUR lock-free - lock-based", ">=",
                 -0.03, _min(a - b for a, b in zip(
                     result.means("AUR lock-free"),
                     result.means("AUR lock-based"))))
    _gap(result, "§6 Fig. 14", "AUR", ">", 0)
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Theorem 2 validation — measured retries vs the bound
# ---------------------------------------------------------------------

def _thm2_trial(base_seed: int, max_arrivals: int, horizon: int, seed: int,
                retry_policy: RetryPolicy) -> dict[str, int]:
    """One Theorem 2 trial: rebuild the (deterministic) interference
    taskset, run it under bursty arrivals, return per-task max retries.
    Module-level and picklable for campaign workers."""
    tasks = interference_taskset(random.Random(base_seed),
                                 max_arrivals=max_arrivals)
    result = run_once(tasks, "lockfree", horizon, random.Random(seed),
                      arrival_style="bursty",
                      retry_policy=retry_policy)
    worst: dict[str, int] = {t.name: 0 for t in tasks}
    for record in result.records:
        worst[record.task_name] = max(worst[record.task_name],
                                      record.retries)
    return worst


def thm2_validation(repeats: int = 5, horizon: int = 400 * MS,
                    retry_policy: RetryPolicy = RetryPolicy.ON_PREEMPTION,
                    max_arrivals: int = 2,
                    base_seed: int = 200,
                    campaign: CampaignArg = None) -> FigureResult:
    """Adversarial (bursty) UAM arrivals under lock-free RUA: per task,
    the maximum observed per-job retries against Theorem 2's ``f_i``.

    Uses :func:`repro.experiments.workloads.interference_taskset` —
    long-access victim tasks plus short-critical-time bursty interferers
    — so preemptions really land mid-access and force retries (a plain
    homogeneous task set almost never preempts under ECF-ordered
    dispatch, making the bound trivially satisfied at zero).
    The x axis indexes tasks; the claims check measured <= bound for
    every task, and that some task retried at all."""
    engine, owned = _engine_for(campaign, tag="thm2")
    measured = Series(label="max retries measured")
    bound = Series(label="Theorem 2 bound f_i")
    tasks = interference_taskset(random.Random(base_seed),
                                 max_arrivals=max_arrivals)
    seeds = _seeds(repeats, base_seed + 1)
    if engine is None:
        per_trial = [
            _thm2_trial(base_seed, max_arrivals, horizon, seed,
                        retry_policy)
            for seed in seeds
        ]
    else:
        per_trial = engine.map(
            _thm2_trial,
            [(base_seed, max_arrivals, horizon, seed, retry_policy)
             for seed in seeds],
        ).values
    worst: dict[str, int] = {t.name: 0 for t in tasks}
    for trial_worst in per_trial:
        for name, retries in trial_worst.items():
            worst[name] = max(worst[name], retries)
    for index, task in enumerate(tasks):
        measured.add(index, [float(worst[task.name])])
        bound.add(index, [float(retry_bound_for_taskset(tasks, index))])
    result = FigureResult(
        figure="Theorem 2",
        title="Lock-Free Retry Bound Under UAM (measured vs bound)",
        x_label="task",
        series=[measured, bound],
    )
    result.claim("Thm. 2", "max measured/bound retries", "<=", 1,
                 _max(m / b for m, b in zip(measured.means(),
                                            bound.means())))
    result.claim("Thm. 2", "max measured retries", ">", 0,
                 _max(measured.means()))
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Lemmas 4/5 validation — AUR inside the analytical bounds
# ---------------------------------------------------------------------

def _lemma45_trial(base_seed: int, load: float, sync: str, horizon: int,
                   seed: int):
    """One Lemma 4/5 trial: rebuild the deterministic feasible taskset,
    run one seeded simulation of it.  Module-level and picklable."""
    tasks = paper_taskset(random.Random(base_seed), accesses_per_job=2,
                          target_load=load, tuf_class="step")
    return run_once(tasks, sync, horizon, random.Random(seed))


def lemma45_validation(repeats: int = 5, horizon: int = 300 * MS,
                       load: float = 0.35,
                       base_seed: int = 450,
                       campaign: CampaignArg = None) -> FigureResult:
    """Feasible (underloaded) task set with non-increasing TUFs: measured
    AUR of each sharing style against its Lemma 4/5 interval.

    Interference/retry/blocking inputs to the bounds are taken at their
    measured worst over the campaign, as the lemmas' worst-case terms."""
    engine, owned = _engine_for(campaign, tag="lemma45")
    tasks = paper_taskset(random.Random(base_seed), accesses_per_job=2,
                          target_load=load, tuf_class="step")
    seeds = _seeds(repeats, base_seed + 1)
    result = FigureResult(
        figure="Lemmas 4-5",
        title="AUR Bounds (lock-free and lock-based)",
        x_label="-",
    )
    for sync, lemma in (("lockfree", "4"), ("lockbased", "5")):
        if engine is None:
            results = [
                _lemma45_trial(base_seed, load, sync, horizon, seed)
                for seed in seeds
            ]
        else:
            results = engine.map(
                _lemma45_trial,
                [(base_seed, load, sync, horizon, seed) for seed in seeds],
            ).values
        aurs = [r.aur for r in results]
        # Worst-case measured interference per task: max sojourn minus
        # the task's own execution estimate (conservative split).
        interference = []
        extra = []
        for task in tasks:
            worst_sojourn = max(
                (r.max_sojourn(task.name) or 0) for r in results
            )
            interference.append(
                max(0.0, worst_sojourn - task.execution_estimate)
            )
            extra.append(0.0)  # retries/blocking folded into interference
        if sync == "lockfree":
            mech = max(
                (r.mean_lockfree_mechanism_per_access or 0.0)
                for r in results
            )
            bounds = lemma4_lockfree_aur_bounds(
                tasks, s=DEFAULT_ACCESS_DURATION + mech,
                interference=interference, retry_time=extra,
            )
        else:
            mech = max(
                (r.mean_lock_mechanism_per_access or 0.0)
                for r in results
            )
            bounds = lemma5_lockbased_aur_bounds(
                tasks, r=DEFAULT_ACCESS_DURATION + mech,
                interference=interference, blocking_time=extra,
            )
        s_low = Series(label=f"Lemma {lemma} lower ({sync})")
        s_meas = Series(label=f"AUR measured ({sync})")
        s_high = Series(label=f"Lemma {lemma} upper ({sync})")
        s_low.add(0, [bounds.lower])
        s_meas.add(0, aurs)
        s_high.add(0, [bounds.upper])
        result.series.extend([s_low, s_meas, s_high])
        aur = s_meas.means()[0]
        result.claim(f"Lem. {lemma}", f"AUR {sync} - lower bound", ">=",
                     -0.02, aur - bounds.lower)
        result.claim(f"Lem. {lemma}", f"AUR {sync} - upper bound", "<=",
                     0.02, aur - bounds.upper)
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Theorem 3 — lock-based vs lock-free sojourn crossover
# ---------------------------------------------------------------------

def thm3_sojourn(repeats: int = 3, horizon: int = 100 * MS,
                 base_seed: int = 300,
                 campaign: CampaignArg = None) -> FigureResult:
    """Instantiate Theorem 3 with the ``r`` and ``s`` measured on a
    Figure 8 style campaign (six accesses per job, AL 0.8), for a
    representative task of the set, and report the predicted winner
    beside the simulated mean sojourn times of both sharing styles."""
    engine, owned = _engine_for(campaign, tag="thm3")
    build = BuilderSpec.make("paper", accesses_per_job=6, target_load=0.8)
    seeds = [base_seed + k for k in range(repeats)]
    lockbased = run_many(build, "lockbased", horizon, seeds,
                         campaign=engine)
    lockfree = run_many(build, "lockfree", horizon, seeds, campaign=engine)
    r = DEFAULT_ACCESS_DURATION + (
        sum(res.mean_lock_mechanism_per_access or 0 for res in lockbased)
        / len(lockbased))
    s = DEFAULT_ACCESS_DURATION + (
        sum(res.mean_lockfree_mechanism_per_access or 0 for res in lockfree)
        / len(lockfree))
    lb_sojourn = (sum(res.mean_sojourn() or 0 for res in lockbased)
                  / len(lockbased))
    lf_sojourn = (sum(res.mean_sojourn() or 0 for res in lockfree)
                  / len(lockfree))
    tasks = paper_taskset(random.Random(base_seed), accesses_per_job=6,
                          target_load=0.8)
    task = tasks[0]
    x = x_i(0, tasks)
    comparison = compare_sojourn(
        u_i=task.compute_time, interference=0, r=r, s=s,
        m_i=task.access_count, n_i=2 * task.arrival.max_arrivals + x,
        a_i=task.arrival.max_arrivals, x_i=x)
    result = FigureResult(
        figure="Theorem 3",
        title="sojourn comparison",
        x_label="-",
        scalars={
            "measured r [ns]": (r, ".0f"),
            "measured s [ns]": (s, ".0f"),
            "s/r": (comparison.ratio, ".3f"),
            "paper threshold": (comparison.paper_threshold, ".3f"),
            "exact threshold": (comparison.exact_threshold, ".3f"),
            "predicted lock-free wins":
                (comparison.predicted_lockfree_wins, ""),
            "bound lock-based [ns]": (comparison.lockbased, ".0f"),
            "bound lock-free [ns]": (comparison.lockfree, ".0f"),
            "simulated mean sojourn lock-based [ns]": (lb_sojourn, ".0f"),
            "simulated mean sojourn lock-free [ns]": (lf_sojourn, ".0f"),
        },
    )
    result.claim("Thm. 3", "s/r", "<", 2 / 3, comparison.ratio)
    # With f_i = 3a_i + 2x_i this holds exactly when s/r is under the
    # exact threshold (I_i and u_i cancel), so it stands for both.
    result.claim("Thm. 3", "bound lock-free / lock-based", "<", 1,
                 comparison.lockfree / comparison.lockbased)
    result.claim("Thm. 3", "simulated mean sojourn lock-free / lock-based",
                 "<", 1, lf_sojourn / lb_sojourn)
    return _finish(result, engine, owned)


# ---------------------------------------------------------------------
# Ablation — lock-free retry policy (beyond the paper)
# ---------------------------------------------------------------------

def retry_policy_ablation(repeats: int = 3, horizon: int = 200 * MS,
                          base_seed: int = 77,
                          campaign: CampaignArg = None) -> FigureResult:
    """ON_CONFLICT (realistic, restart only on a conflicting commit) vs
    ON_PREEMPTION (conservative, restart on any preemption, the
    accounting of Theorem 2's proof) on the bursty interference
    workload: mean retries and AUR per run."""
    engine, owned = _engine_for(campaign, tag="ablation")
    build = BuilderSpec.make("interference")
    seeds = [base_seed + k for k in range(repeats)]
    scalars: dict[str, tuple[Any, str]] = {}
    for policy in (RetryPolicy.ON_CONFLICT, RetryPolicy.ON_PREEMPTION):
        results = run_many(build, "lockfree", horizon, seeds,
                           arrival_style="bursty", retry_policy=policy,
                           campaign=engine)
        scalars[f"{policy.name} mean retries/run"] = (
            sum(r.total_retries for r in results) / len(results), ".1f")
        scalars[f"{policy.name} mean AUR"] = (
            sum(r.aur for r in results) / len(results), ".3f")
    result = FigureResult(
        figure="Ablation",
        title="lock-free retry policy",
        x_label="-",
        scalars=scalars,
    )
    # ON_PREEMPTION also restarts on preemptions without a conflicting
    # commit, so it retries more and accrues less.
    retries = result.scalar("ON_PREEMPTION mean retries/run")
    result.claim("Thm. 2 proof", "ON_PREEMPTION - ON_CONFLICT retries/run",
                 ">=", 0,
                 retries - result.scalar("ON_CONFLICT mean retries/run"))
    result.claim("Thm. 2 proof", "ON_PREEMPTION retries/run", ">", 0,
                 retries)
    result.claim("Thm. 2 proof", "ON_PREEMPTION - ON_CONFLICT AUR", "<=",
                 0.02, result.scalar("ON_PREEMPTION mean AUR")
                 - result.scalar("ON_CONFLICT mean AUR"))
    return _finish(result, engine, owned)
