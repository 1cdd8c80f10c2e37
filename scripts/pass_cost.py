"""RUA scheduling-pass wall time against job count, and its speedup gate.

Times single scheduling passes of lock-free and lock-based RUA at
n = 2, 4, 8, 16, 32, 64, 96, 128 live jobs, on the fast path and on the
``REPRO_NO_FASTPATH=1`` reference path, and fits the log-log slope of
ns/pass against n over n >= 8.  The paper charges a lock-free pass
O(n^2) and a lock-based pass O(n^2 log n) (Sections 3.6 and 5); a slope
of 2 is quadratic growth, and the log n factor adds about 0.3 over
n = 8-128 (the slope of n^2 log n is 2 + 1/ln n).  The rows at n = 2
and 4 are the passes small task sets run: a long simulation of five to
ten tasks examines under three candidates per pass on average, so
there the fixed cost of a pass, not its growth, is what counts.

The jobs are one invocation of each task of the ``paper`` task set
(AL 2.0, two accesses per job, ten objects), all released at 0.  The
lock-based columns lock the objects two ways:

* ``lock-based``: every job stands at its first object access; the
  first half hold their object where it is free and the rest wait, so
  from n = 16 on the pass builds real two-job dependency chains;
* ``held``: every job stands at its first segment, a computation; the
  first half hold their first object where it is free, so locks are
  held but no job waits and there is no dependency edge.

Every timed pass gets a distinct ``now``, as consecutive passes of a
simulation do, so each one evaluates its PUDs and feasibility at its
own clock.  A point is the best of several trials of many
passes, each trial scaled by the host speed measured right after it
(``perfbench/calibrate.py``), since a shared host can slow down for
longer than a whole point takes.

The gate: at n = 64 and 96 the fast path must be at least 3x faster
than the reference for lock-free and for held lock-based passes, and
at n = 64 a held lock-based pass must cost more than a lock-free one.
The script exits 1 when the gate fails, and 2 without measuring when
``REPRO_NO_FASTPATH`` is set (the fast columns would time the
reference).

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
from perfbench.checks import reference_path  # noqa: E402

from repro.core.rua_lockbased import LockBasedRUA  # noqa: E402
from repro.core.rua_lockfree import LockFreeRUA  # noqa: E402
from repro.experiments.workloads import paper_taskset  # noqa: E402
from repro.sim.locks import LockManager  # noqa: E402
from repro.tasks.job import Job  # noqa: E402
from repro.tasks.segments import ObjectAccess  # noqa: E402

SIZES = (2, 4, 8, 16, 32, 64, 96, 128)
#: The slope fits start at these sizes and run to the largest.
FIT_FROM = (8, 32)
#: Overload: about four in five candidates are accepted, as in the
#: perfbench ``campaign-dense`` passes.
LOAD = 2.0
#: Clock values cycle inside every job's critical-time window.
NOW_CYCLE = 4096
TRIALS = 5
#: Wall time one trial aims for.
TRIAL_S = 0.05
#: The fast path must beat the reference by this factor at these sizes.
SPEEDUP_MIN = 3.0
GATE_SIZES = (64, 96)


def _jobs(n: int, locking: str | None):
    """Jobs and lock state for one column; ``locking`` is None
    (lock-free), ``"chains"`` or ``"held"`` (see the module docstring)."""
    tasks = paper_taskset(random.Random(n), n_tasks=n, n_objects=10,
                          accesses_per_job=2, target_load=LOAD)
    jobs = [Job(task=task, jid=0, release_time=0) for task in tasks]
    if locking is None:
        return jobs, None
    locks = LockManager()
    for index, job in enumerate(jobs):
        first = next(i for i, segment in enumerate(job.task.body)
                     if isinstance(segment, ObjectAccess))
        obj = job.task.body[first].obj
        if locking == "chains":
            job.segment_index = first
        if index < n // 2 and locks.owner_of(obj) is None:
            locks.try_acquire(job, obj)
            job.holds_lock = obj
            job.held_locks.add(obj)
    return jobs, locks


def _ns_per_pass(policy_class, jobs, locks, reference: bool) -> float:
    if reference:
        with reference_path():
            policy = policy_class()  # reads the variable at construction
    else:
        policy = policy_class()
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
    ("lock-free fast", LockFreeRUA, None, False),
    ("lock-free ref", LockFreeRUA, None, True),
    ("lock-based fast", LockBasedRUA, "chains", False),
    ("lock-based ref", LockBasedRUA, "chains", True),
    ("held fast", LockBasedRUA, "held", False),
    ("held ref", LockBasedRUA, "held", True),
)


def measure() -> dict[str, list[float]]:
    table = {name: [] for name, *_ in COLUMNS}
    for n in SIZES:
        for name, policy_class, locking, reference in COLUMNS:
            jobs, locks = _jobs(n, locking)
            table[name].append(_ns_per_pass(policy_class, jobs, locks,
                                            reference))
    return table


def gate(table) -> tuple[list[str], list[str]]:
    """The gate's report lines and its failures (none: it passed)."""
    lines, failures = [], []
    for n in GATE_SIZES:
        row = SIZES.index(n)
        for sync in ("lock-free", "held"):
            speedup = table[f"{sync} ref"][row] / table[f"{sync} fast"][row]
            lines.append(f"n = {n:<4} {sync:<10} fast path "
                         f"{speedup:5.1f}x over the reference")
            if speedup < SPEEDUP_MIN:
                failures.append(f"fast path only {speedup:.2f}x over the "
                                f"reference for {sync} at n = {n} "
                                f"(target >= {SPEEDUP_MIN}x)")
    row = SIZES.index(64)
    if not table["held fast"][row] > table["lock-free fast"][row]:
        failures.append("a held lock-based pass is no dearer than a "
                        "lock-free one at n = 64")
    return lines, failures


def render(table, gate_lines, failures) -> str:
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
    for low in FIT_FROM:
        first = SIZES.index(low)
        label = f"slope {low}-{SIZES[-1]}"
        lines.append(f"{label:<12}" + "".join(
            f"{_slope(SIZES[first:], table[name][first:]):>{width}.2f}"
            for name, *_ in COLUMNS))
    lines += ["", "Paper: lock-free O(n^2) -> slope 2; lock-based "
              "O(n^2 log n) -> slope about 2.3 over n = 8-128.",
              "held: lock-based with locks held and no job waiting "
              "(no dependency edge).",
              "", f"Fast-path gate (>= {SPEEDUP_MIN}x at n = "
              f"{' and '.join(map(str, GATE_SIZES))}):", *gate_lines,
              "gate: " + ("FAILED: " + "; ".join(failures) if failures
                          else "passed")]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "benchmarks" / "out"
                        / "scheduler_pass_cost.txt")
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_NO_FASTPATH"):
        print("pass_cost.py gates the fast path: unset REPRO_NO_FASTPATH",
              file=sys.stderr)
        return 2
    table = measure()
    gate_lines, failures = gate(table)
    text = render(table, gate_lines, failures)
    print(text)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
