"""``sim-long``: serial in-process ``simulate(scenario)`` over a fixed
seeded batch of small task sets with long horizons.

Per-event kernel work dominates here; no HTTP, pool or disk is on the
path.  The batch is simulated pass after pass until the run's time is
up, with a run of the calibration loop between consecutive
simulations.  Each simulation's time is taken over the mean of the two
calibrations around it (``perfbench/calibrate.py`` says why), each
scenario keeps its median over the passes, and the batch is summarised
by geometric means (``perfbench/README.md`` says why).
"""

from __future__ import annotations

import time

from perfbench import checks
from perfbench.calibrate import REFERENCE_S, calibrate
from perfbench.common import (SETUP_REPEATS, fresh_setup_seconds, geomean,
                              median, self_rss_mb, timed)
from perfbench.inputs import sim_long_batch
from perfbench.layers import overhead_pct, sim_and_core
from perfbench.trace import Tracer, install_sim_layers


def _setup(seed):
    batch = sim_long_batch(seed)
    for scenario in batch:
        scenario.materialize()
    return batch


def _passes(batch, seconds, outcome, expected):
    """Simulate the batch repeatedly for ``seconds``, checking every
    payload.  Returns ``(passes, normalized, raw, jobs)``: per scenario,
    the median over the passes of its calibrated and of its raw wall
    time, and the simulated jobs it resolved."""
    from repro.api import simulate

    ratios = [[] for _ in batch]
    walls = [[] for _ in batch]
    jobs = [0] * len(batch)
    passes = 0
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        for index, scenario in enumerate(batch):
            summary, wall = timed(simulate, scenario)
            after = calibrate()
            ratios[index].append(2 * wall / (before + after))
            walls[index].append(wall)
            before = after
            jobs[index] = len(summary.result.records)
            outcome.attempted += 1
            checks.expect(outcome, expected, index,
                          checks.payload_json(scenario, summary))
        passes += 1
        if time.perf_counter() >= deadline:
            return (passes, [REFERENCE_S * median(r) for r in ratios],
                    [median(w) for w in walls], jobs)


def _jobs_per_s(jobs, walls):
    return geomean([count / wall for count, wall in zip(jobs, walls)])


def run(seed, seconds, traced, outcome, work_dir):
    outcome.put("setup_s", fresh_setup_seconds(
        f"from perfbench.sim_long import _setup; _setup({seed})"), "s",
        f"median of {SETUP_REPEATS} fresh interpreters: import, build "
        f"and materialize the batch", gated_as="setup_s")
    batch = _setup(seed)

    expected = {}
    if not traced:
        passes, walls, raw, jobs = _passes(batch, seconds, outcome,
                                           expected)
    else:
        _, plain, _, jobs = _passes(batch, seconds / 2, outcome, expected)
        tracer = Tracer()
        install_sim_layers(tracer)
        try:
            passes, walls, raw, jobs = _passes(batch, seconds / 2, outcome,
                                               expected)
        finally:
            tracer.uninstall()
        for name, value in sim_and_core(tracer, passes).items():
            outcome.put(name, value, "")
        outcome.put("trace.overhead_pct",
                    overhead_pct(_jobs_per_s(jobs, plain),
                                 _jobs_per_s(jobs, walls)), "%",
                    "calibrated jobs/s, traced vs untraced passes")
        tracer.write_chrome(work_dir / f"trace-sim-long-{seed}.json")

    checks.against_reference(outcome, batch, expected, seed, "sim-long")

    pairs = [walls[i] + walls[i + 1] for i in range(0, len(batch), 2)]
    outcome.put("sim_jobs_per_s", _jobs_per_s(jobs, walls), "1/s",
                f"geometric mean over {len(batch)} scenarios of each one's "
                f"median over {passes} passes; calibrated",
                gated_as="throughput_per_s")
    outcome.put("sim_jobs_per_s_raw", _jobs_per_s(jobs, raw), "1/s",
                "the same, uncalibrated")
    outcome.put("sim_operation_ms", 1e3 * geomean(pairs), "ms",
                f"one task set under both syncs: geometric mean over "
                f"{len(pairs)} task sets of the median over {passes} "
                f"passes; calibrated", gated_as="latency_ms")
    outcome.put("peak_rss_mb", self_rss_mb(), "MB",
                "benchmark process (simulates in-process)",
                gated_as="peak_rss_mb")
