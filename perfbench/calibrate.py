"""Host-speed calibration for the CPU-bound timings.

The shared host this benchmark runs on changes speed by up to 1.6x from
one minute to the next (one fixed ``simulate()`` call: 56 ms at rest,
91 ms a minute later, with CPU time equal to wall time throughout, so
no steal accounting hides it).  A best-of or median over a run cannot
remove a slowdown that lasts the whole run.

So every CPU-bound timing is taken next to a run of a fixed reference
loop — pure Python that touches the same interpreter paths as the
simulator (slotted objects, a heap, dict updates, small sorts) but no
code of the program — and reported as the time it would take on a host
that runs the loop in :data:`REFERENCE_S`::

    normalized = measured * REFERENCE_S / reference_loop_time

A change to the program moves ``measured`` and leaves the loop alone; a
slower host stretches both.  The raw timings are printed beside the
normalized ones.
"""

from __future__ import annotations

import heapq
import time

#: Seconds :func:`reference_loop` takes on the host the benchmark was
#: written on (two-vCPU Intel Xeon at 2.0 GHz, Python 3.11), at rest.
REFERENCE_S = 0.013

_ROUNDS = 1000


class _Job:
    __slots__ = ("name", "remaining", "deadline", "done")

    def __init__(self, name, remaining, deadline):
        self.name = name
        self.remaining = remaining
        self.deadline = deadline
        self.done = 0


def reference_loop(rounds=_ROUNDS):
    """A fixed amount of interpreter work; returns a checksum so none
    of it can be skipped."""
    heap = []
    jobs = {}
    x = 12345
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        job = _Job(f"j{i % 64}", x % 97 + 1, i + x % 50)
        jobs[job.name] = job
        heapq.heappush(heap, (job.deadline, i, job))
        if len(heap) > 32:
            _, _, top = heapq.heappop(heap)
            top.remaining -= 1
            top.done += 1
            for ready in sorted(jobs.values(),
                                key=lambda j: (j.deadline, j.name))[:4]:
                ready.remaining = max(0, ready.remaining - 1)
    return sum(job.done for job in jobs.values())


def calibrate():
    """Wall seconds of one :func:`reference_loop` run, now."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def normalize(seconds, calibration):
    """``seconds`` measured while the loop took ``calibration``, scaled
    to a host that runs the loop in :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / calibration
