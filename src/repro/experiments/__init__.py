"""Experiment harness regenerating the paper's evaluation.

One function per figure (:mod:`repro.experiments.figures`), built on:

* :mod:`repro.experiments.workloads` — the paper's task sets (10 tasks /
  10 shared queues, step or heterogeneous TUF classes, controlled AL);
* :mod:`repro.experiments.runner` — seeded repetition;
* :mod:`repro.experiments.stats` — means and 95 % confidence intervals
  (the paper reports 95 % CIs on every data point);
* :mod:`repro.experiments.cml` — the Critical-time-Miss Load search of
  Section 6.1;
* :mod:`repro.experiments.report` — ASCII rendering of each figure's
  series, the shape-comparison artifact recorded in EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.stats": ("Estimate", "estimate", "Series"),
    "repro.experiments.workloads": (
        "paper_taskset", "readers_taskset", "scaled_paper_taskset",
    ),
    "repro.experiments.runner": ("run_many", "run_once"),
    "repro.experiments.cml": ("measure_cml",),
    "repro.experiments.report": ("format_series_table",),
})
