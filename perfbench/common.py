"""Shared helpers: statistics, memory readings and the result record."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Seed whose canonical result digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 5

#: Scratch space the benchmark writes to, inside the checkout.
WORK_DIR = Path(".perfbench")

ROOT = Path(__file__).resolve().parent.parent


def median(values):
    return statistics.median(values) if values else 0.0


def geomean(values):
    """Geometric mean: one outlier moves it by its ratio to the rest
    raised to ``1/n``, not by ``1/n`` of its size."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten or fewer samples
    there is no such percentile and the maximum is returned with
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    rank = n - 10                      # ten samples lie strictly above
    return ordered[rank - 1], 100.0 * rank / n, n


def sha256_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def self_rss_mb():
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb():
    """Peak resident set of the largest waited-for child, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_tree_peak_rss_mb(pid):
    """Largest ``VmHWM`` among a live process and its direct children."""
    pids = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            pids.extend(int(child) for child in text.split())
    except OSError:
        pass
    peak_kb = 0
    for each in pids:
        try:
            for line in Path(f"/proc/{each}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def fresh_setup_seconds(statement):
    """Median wall time, over :data:`SETUP_REPEATS` fresh interpreters,
    of importing the program and running ``statement`` (Python source
    that builds a workload's inputs).  A fresh interpreter pays the
    imports a user's first call pays, which an in-process repeat would
    hide."""
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}"
            f"; {statement}")
    return median_setup(
        lambda: subprocess.run([sys.executable, "-c", code], check=True,
                               cwd=ROOT))[0]


def median_setup(fn, cleanup=None):
    """Call ``fn`` :data:`SETUP_REPEATS` times.  Returns the median wall
    time and the last call's value; ``cleanup`` gets every earlier
    value, outside the timed region.

    Set-up times are not calibrated (``perfbench/calibrate.py``): they
    are dominated by importing scipy, which does not follow the
    calibration loop's speed, and calibrating them widened their
    run-to-run spread."""
    walls = []
    for attempt in range(SETUP_REPEATS):
        value, wall = timed(fn)
        walls.append(wall)
        if cleanup is not None and attempt < SETUP_REPEATS - 1:
            cleanup(value)
    return median(walls), value


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: name -> (value, unit); the gated metrics of the final JSON line.
    metrics: dict = field(default_factory=dict)
    #: name -> (value, unit, note); every metric of the report, by the
    #: names the workload documents, printed before the JSON line.
    report: dict = field(default_factory=dict)

    def fail(self, message, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name, value, unit, note="", gated_as=None):
        self.report[name] = (value, unit, note)
        if gated_as is not None:
            self.metrics[gated_as] = (value, unit)
