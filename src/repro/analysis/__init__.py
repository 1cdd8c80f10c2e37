"""Analytical results of the paper.

* Lemma 1 — preemption/event counting under UA schedulers
  (:mod:`repro.analysis.preemption`);
* Theorem 2 — the lock-free retry bound under the UAM
  (:mod:`repro.analysis.retry_bound`);
* Theorem 3 — lock-based vs. lock-free worst-case sojourn times and the
  ``s/r`` crossover conditions (:mod:`repro.analysis.sojourn`);
* Lemmas 4 and 5 — AUR lower/upper bounds for lock-free and lock-based
  sharing (:mod:`repro.analysis.aur_bounds`);
* Section 3.6 / Section 5 — asymptotic scheduler cost models
  (:mod:`repro.analysis.complexity`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.preemption": ("max_scheduling_events",),
    "repro.analysis.retry_bound": (
        "interference_events", "retry_bound", "retry_bound_for_taskset",
    ),
    "repro.analysis.sojourn": (
        "SojournComparison", "blocking_count_bound", "compare_sojourn",
        "exact_ratio_threshold", "lockbased_sojourn_bound",
        "lockfree_sojourn_bound", "lockfree_wins_ratio_threshold",
        "sufficient_ratio_for_lockfree",
    ),
    "repro.analysis.aur_bounds": (
        "AURBounds", "lemma4_lockfree_aur_bounds",
        "lemma5_lockbased_aur_bounds",
    ),
    "repro.analysis.complexity": (
        "lockbased_rua_operations", "lockfree_rua_operations",
    ),
})
