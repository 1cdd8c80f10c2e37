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

from repro.core.interface import PassResult, SchedulerPolicy, fastpath_enabled
from repro.core.dependency import (
    DeadlockDetected,
    blocking_owner,
    dependency_chain,
    needed_object,
)
from repro.core.pud import chain_pud, completion_estimates
from repro.core.feasibility import is_feasible
from repro.core.schedule_builder import (
    build_rua_schedule,
    insert_chain,
)
from repro.core.schedule_cache import ScheduleCache, build_singleton_schedule
from repro.core.deadlock import detect_deadlock, pick_deadlock_victim
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.core.edf import EDF
from repro.core.llf import LLF

__all__ = [
    "SchedulerPolicy",
    "PassResult",
    "fastpath_enabled",
    "ScheduleCache",
    "build_singleton_schedule",
    "DeadlockDetected",
    "needed_object",
    "blocking_owner",
    "dependency_chain",
    "chain_pud",
    "completion_estimates",
    "is_feasible",
    "insert_chain",
    "build_rua_schedule",
    "detect_deadlock",
    "pick_deadlock_victim",
    "LockBasedRUA",
    "LockFreeRUA",
    "EDF",
    "LLF",
]
