"""Overload with and without UAM admission shedding.

Injects seeded out-of-spec arrival bursts (beyond the tasks' declared
UAM ``a_i`` budgets) into a Figure-10-style workload under lock-free RUA,
then runs the identical faulted workload twice: once with the admission
guard shedding every out-of-spec arrival, once admitting everything.
Runtime invariant monitors and a bounded-retry guard are active in both
runs, so each prints a structured degradation report.

Run:  python examples/overload_shedding.py [bursts_per_task]
"""

import random
import sys

from repro.experiments.runner import run_once
from repro.experiments.workloads import paper_taskset
from repro.faults import AdmissionPolicy, FaultPlan, RetryGuard, ShedMode
from repro.units import MS

HORIZON = 60 * MS
SEED = 42


def run(tasks, plan, shedding: bool):
    return run_once(
        tasks, "lockfree", HORIZON, random.Random(SEED + 1),
        faults=plan,
        admission=AdmissionPolicy(ShedMode.SHED) if shedding else None,
        retry_guard=RetryGuard(max_retries=8),
        monitors=True,
    )


def main() -> None:
    bursts = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    rng = random.Random(SEED)
    tasks = paper_taskset(rng, accesses_per_job=2, target_load=0.8)
    plan = FaultPlan.burst_storm(SEED + 13, len(tasks), HORIZON,
                                 bursts_per_task=bursts, burst_size=2)
    print(f"Workload: {len(tasks)} tasks at AL=0.8, plus {bursts} "
          f"out-of-spec arrival bursts per task (x2 jobs each)\n")
    for shedding in (True, False):
        result = run(tasks, plan, shedding)
        label = "shedding ON " if shedding else "shedding OFF"
        print(f"{label}: AUR={result.aur:.3f} CMR={result.cmr:.3f} "
              f"jobs={len(result.records)} retries={result.total_retries}")
        print(result.degradation.summary())
        print()
    print("Expected shape: both runs survive the overload without a "
          "crash or an\ninvariant violation, and the shedding run holds "
          "a higher AUR because the\nout-of-spec jobs never dilute the "
          "schedule.")


if __name__ == "__main__":
    main()
