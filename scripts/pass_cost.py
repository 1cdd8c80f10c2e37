"""Wall-clock cost of one RUA scheduling pass against the number of jobs.

Times single scheduling passes of lock-free and lock-based RUA at
n = 8, 16, 32, 64, 128 live jobs, on the fast path and on the
``REPRO_NO_FASTPATH=1`` reference path, and fits the log-log slope of
ns/pass against n.  The paper charges a lock-free pass O(n^2) and a
lock-based pass O(n^2 log n) (Sections 3.6 and 5); a slope of 2 is
quadratic growth, and the log n factor adds about 0.3 over this range
(the slope of n^2 log n is 2 + 1/ln n).

The jobs are one invocation of each task of the ``paper`` task set
(AL 2.0, two accesses per job, ten objects), all released at 0.  Under
lock-based sharing every job stands at its first object access; the
first half hold their object where it is free and the rest wait, so
from n = 16 on the pass builds real two-job dependency chains.  Every
timed pass gets a distinct ``now``, as consecutive passes of a
simulation do, so each one evaluates its PUDs and feasibility at its
own clock.  A point is the best of several trials of many
passes, each trial scaled by the host speed measured right after it
(``perfbench/calibrate.py``), since a shared host can slow down for
longer than a whole point takes.

Usage: python scripts/pass_cost.py [--out FILE]

``FILE`` defaults to ``benchmarks/out/scheduler_pass_cost.txt``, which
``scripts/make_experiments_md.py`` stitches into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import calibrate, normalize  # noqa: E402

from repro.core.rua_lockbased import LockBasedRUA  # noqa: E402
from repro.core.rua_lockfree import LockFreeRUA  # noqa: E402
from repro.experiments.workloads import paper_taskset  # noqa: E402
from repro.sim.locks import LockManager  # noqa: E402
from repro.tasks.job import Job  # noqa: E402
from repro.tasks.segments import ObjectAccess  # noqa: E402

SIZES = (8, 16, 32, 64, 128)
#: Overload: about four in five candidates are accepted, as in the
#: perfbench ``campaign-dense`` passes.
LOAD = 2.0
#: Clock values cycle inside every job's critical-time window.
NOW_CYCLE = 4096
TRIALS = 5
#: Wall time one trial aims for.
TRIAL_S = 0.05


def _jobs(n: int, contended: bool):
    tasks = paper_taskset(random.Random(n), n_tasks=n, n_objects=10,
                          accesses_per_job=2, target_load=LOAD)
    jobs = [Job(task=task, jid=0, release_time=0) for task in tasks]
    if not contended:
        return jobs, None
    locks = LockManager()
    for index, job in enumerate(jobs):
        # Every job stands at its first access; the first half locks
        # its object where free, the second half waits on a held one.
        job.segment_index = next(
            i for i, segment in enumerate(job.task.body)
            if isinstance(segment, ObjectAccess))
        obj = job.current_segment.obj
        if index < n // 2 and locks.owner_of(obj) is None:
            locks.try_acquire(job, obj)
            job.holds_lock = obj
            job.held_locks.add(obj)
    return jobs, locks


def _ns_per_pass(policy_class, jobs, locks, reference: bool) -> float:
    if reference:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        policy = policy_class()      # reads the variable at construction
    finally:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    passes, now = 1, 0
    while True:                      # size a trial to about TRIAL_S
        start = time.perf_counter_ns()
        for _ in range(passes):
            now = (now + 1) % NOW_CYCLE
            policy.schedule(jobs, locks, now)
        if time.perf_counter_ns() - start >= TRIAL_S * 1e9 / 4:
            break
        passes *= 2
    best = math.inf
    for _ in range(TRIALS):
        start = time.perf_counter_ns()
        for _ in range(passes):
            now = (now + 1) % NOW_CYCLE
            policy.schedule(jobs, locks, now)
        elapsed = (time.perf_counter_ns() - start) / passes
        best = min(best, normalize(elapsed, calibrate()))
    return best


def _slope(sizes, costs) -> float:
    """Least-squares slope of log(cost) against log(n)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(c) for c in costs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


COLUMNS = (
    ("lock-free fast", LockFreeRUA, False, False),
    ("lock-free ref", LockFreeRUA, False, True),
    ("lock-based fast", LockBasedRUA, True, False),
    ("lock-based ref", LockBasedRUA, True, True),
)


def measure() -> str:
    table = {name: [] for name, *_ in COLUMNS}
    for n in SIZES:
        for name, policy_class, contended, reference in COLUMNS:
            jobs, locks = _jobs(n, contended)
            table[name].append(_ns_per_pass(policy_class, jobs, locks,
                                            reference))
    width = 17
    lines = [f"RUA pass wall time, ns/pass, best of {TRIALS} trials, "
             "calibrated to the perfbench",
             "reference host (two-vCPU Intel Xeon at 2.0 GHz, CPython 3.11)",
             "",
             f"{'n':<12}" + "".join(f"{name:>{width}}"
                                    for name, *_ in COLUMNS)]
    for row, n in enumerate(SIZES):
        lines.append(f"{n:<12}" + "".join(
            f"{table[name][row]:>{width},.0f}" for name, *_ in COLUMNS))
    for label, first in (("slope 8-128", 0), ("slope 32-128", 2)):
        lines.append(f"{label:<12}" + "".join(
            f"{_slope(SIZES[first:], table[name][first:]):>{width}.2f}"
            for name, *_ in COLUMNS))
    lines += ["", "Paper: lock-free O(n^2) -> slope 2; lock-based "
              "O(n^2 log n) -> slope about 2.3 over n = 8-128."]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "benchmarks" / "out"
                        / "scheduler_pass_cost.txt")
    args = parser.parse_args(argv)
    text = measure()
    print(text)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
