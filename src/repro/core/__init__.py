"""The paper's core contribution: Resource-constrained Utility Accrual
(RUA) scheduling, in lock-based and lock-free variants.

* :class:`LockBasedRUA` — the full algorithm of Section 3: dependency
  chains, potential utility densities (PUDs), deadlock detection and
  resolution (for nested critical sections), and tentative-schedule
  construction with earliest-critical-time-first insertion and
  critical-time inheritance.  Asymptotic cost ``O(n^2 log n)``.
* :class:`LockFreeRUA` — RUA with lock-free object sharing (Section 5):
  dependencies do not exist, the dependency-chain and deadlock steps
  vanish, and the cost drops to ``O(n^2)``.
* :class:`EDF` and :class:`LLF` — classical baselines.  RUA defaults to
  EDF during underloads with step TUFs and no sharing, which the test
  suite asserts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.interface": (
        "PassResult", "SchedulerPolicy", "fastpath_enabled",
    ),
    "repro.core.dependency": (
        "DeadlockDetected", "blocking_owner", "dependency_chain",
        "needed_object",
    ),
    "repro.core.pud": ("chain_pud", "completion_estimates"),
    "repro.core.feasibility": ("is_feasible",),
    "repro.core.schedule_builder": (
        "build_rua_schedule", "insert_chain",
    ),
    "repro.core.deadlock": ("detect_deadlock", "pick_deadlock_victim"),
    "repro.core.rua_lockbased": ("LockBasedRUA",),
    "repro.core.rua_lockfree": ("LockFreeRUA",),
    "repro.core.edf": ("EDF",),
    "repro.core.llf": ("LLF",),
})
