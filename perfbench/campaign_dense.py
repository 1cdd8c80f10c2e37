"""``campaign-dense``: ``CampaignEngine(workers=2)`` with a journal and a
checkpoint directory, running ``simulate_scenario_trial`` over a fixed
seeded batch of overloaded large task sets, both syncs.

The engine keeps both workers busy (a trial starts when a worker frees);
the batch is run pass after pass until the run's time is up.  Each
trial runs the calibration loop in its worker right after the
simulation, so every pass and every trial is scaled by the host speed
it met (``perfbench/calibrate.py``), and the median pass gives the
throughput.  Scheduler passes, journal fsyncs and checkpoint saves are
on this path; HTTP and the result cache are not.
"""

from __future__ import annotations

import shutil
import time

from perfbench import checks
from perfbench.calibrate import calibrate, normalize
from perfbench.common import (SETUP_REPEATS, children_rss_mb,
                              fresh_setup_seconds, geomean, median, tail,
                              timed)
from perfbench.inputs import campaign_batch
from perfbench.layers import overhead_pct, sim_and_core
from perfbench.trace import Tracer, install_campaign_layers, install_sim_layers

WORKERS = 2


def _engine(directory, workers):
    from repro.campaign import CampaignConfig, CampaignEngine

    directory.mkdir(parents=True, exist_ok=True)
    return CampaignEngine(CampaignConfig(
        workers=workers, journal=str(directory / "journal.jsonl"),
        checkpoint_dir=str(directory / "checkpoints")),
        tag="perfbench:campaign-dense")


def _setup(seed, directory):
    batch = campaign_batch(seed)
    for scenario in batch:
        scenario.materialize()
    return batch, [scenario.to_dict() for scenario in batch], \
        _engine(directory, WORKERS)


def calibrated_trial(scenario_dict, _trial=None):
    """``simulate_scenario_trial`` followed, in the same worker, by one
    run of the calibration loop; returns the payload and the loop's
    time."""
    from repro.campaign import simulate_scenario_trial

    payload = simulate_scenario_trial(scenario_dict, _trial=_trial)
    return {"payload": payload, "calibration_s": calibrate()}


calibrated_trial.wants_trial_context = True


def _specs(dicts):
    from repro.campaign import TrialSpec

    return [TrialSpec(index=i, fn=calibrated_trial, args=(scenario_dict,))
            for i, scenario_dict in enumerate(dicts)]


def _passes(engine, specs, seconds, outcome, expected):
    """Run the batch through ``engine`` repeatedly for ``seconds``.

    The calibration loops are taken out of every wall time (a pass's
    share of them is their sum over the workers), and what remains is
    scaled by the host speed they measured.  Returns per-pass
    calibrated trials/s, raw trials/s and busy ratios, every trial's
    raw wall time, each trial's calibrated wall times, and the retry
    count.
    """
    from repro.serve.cache import canonical_payload_json

    workers = engine.config.workers
    throughputs, raw, busy, walls = [], [], [], []
    calibrated = [[] for _ in specs]
    retries = 0
    deadline = time.perf_counter() + seconds
    while True:
        result, wall = timed(engine.run, specs)
        loops = [o.value["calibration_s"] for o in result.outcomes if o.ok]
        wall -= sum(loops) / workers
        raw.append(len(specs) / wall)
        throughputs.append(len(specs) / normalize(wall, median(loops)))
        busy_s = 0.0
        for index, trial in enumerate(result.outcomes):
            outcome.attempted += 1
            retries += trial.attempts - 1
            if not trial.ok:
                outcome.fail(f"trial {index} failed: "
                             f"{[str(f) for f in trial.failures]}")
                continue
            loop = trial.value["calibration_s"]
            trial_s = trial.wall_s - loop
            busy_s += trial_s
            walls.append(trial_s)
            calibrated[index].append(normalize(trial_s, loop))
            checks.expect(outcome, expected, index,
                          canonical_payload_json(trial.value["payload"]))
        busy.append(busy_s / (workers * wall))
        if time.perf_counter() >= deadline:
            return throughputs, raw, busy, walls, calibrated, retries


def _reference(batch):
    from repro.campaign import CampaignConfig, CampaignEngine
    from repro.campaign import simulate_scenario_trial
    from repro.serve.cache import canonical_payload_json

    with CampaignEngine(CampaignConfig(workers=WORKERS),
                        tag="perfbench:reference") as engine:
        result = engine.map(simulate_scenario_trial,
                            [(scenario.to_dict(),) for scenario in batch])
    return [canonical_payload_json(o.value) if o.ok else None
            for o in result.outcomes]


def run(seed, seconds, traced, outcome, work_dir):
    batch, dicts, engine = _setup(seed, work_dir / "campaign")
    expected = {}
    specs = _specs(dicts)
    with engine:
        throughputs, raw, busy, walls, calibrated, retries = _passes(
            engine, specs, seconds / 3 if traced else seconds, outcome,
            expected)
    # Read before other children (set-up interpreters, reference
    # workers) can raise the children's peak.
    rss = children_rss_mb()
    scratch = work_dir / "setup"
    outcome.put("setup_s", fresh_setup_seconds(
        f"from pathlib import Path; "
        f"from perfbench.campaign_dense import _setup; "
        f"_setup({seed}, Path({str(scratch)!r}))[2].close()"), "s",
        f"median of {SETUP_REPEATS} fresh interpreters: import, build the "
        f"batch, open the engine and its journal", gated_as="setup_s")
    shutil.rmtree(scratch)
    if traced:
        _traced_run(seed, seconds / 3, dicts, batch, outcome, expected,
                    work_dir)
        outcome.put("campaign.trial_wall_ms", 1e3 * median(walls), "ms",
                    f"workers={WORKERS}, {len(walls)} trials")
        outcome.put("campaign.worker_busy_ratio", median(busy), "ratio",
                    f"trial wall time / ({WORKERS} workers x pass wall)")
        outcome.put("campaign.retries", retries, "count")

    checks.against_reference(outcome, batch, expected, seed,
                             "campaign-dense", reference=_reference)
    if traced:
        return
    outcome.put("campaign_trials_per_s", median(throughputs), "1/s",
                f"median of {len(throughputs)} passes x {len(specs)} "
                f"trials, workers={WORKERS}; calibrated",
                gated_as="throughput_per_s")
    outcome.put("campaign_trials_per_s_raw", median(raw), "1/s",
                "the same, uncalibrated")
    trial_s = [median(times) for times in calibrated if times]
    outcome.put("campaign_trial_ms", 1e3 * geomean(trial_s), "ms",
                f"geometric mean over {len(trial_s)} trials of each one's "
                f"median submit-to-done time; calibrated",
                gated_as="latency_ms")
    outcome.put("campaign_trial_p50_ms", 1e3 * median(walls), "ms",
                f"{len(walls)} trials, uncalibrated")
    tail_ms, pct, samples = tail([1e3 * w for w in walls])
    outcome.put("campaign_trial_tail_ms", tail_ms, "ms",
                f"p{pct:.1f} of {samples} trials, uncalibrated")
    outcome.put("peak_rss_mb", rss, "MB", "largest worker process",
                gated_as="peak_rss_mb")


def _traced_run(seed, seconds, dicts, batch, outcome, expected, work_dir):
    """Trials in-process (``workers=1``) so the wrappers see every layer:
    an untraced and a traced phase of equal length give the tracing
    overhead, then one mid-run checkpoint per trial is decoded and
    restored, and the resumed run must reproduce the trial's payload."""
    from repro.api import simulate

    with _engine(work_dir / "serial-plain", 1) as engine:
        plain = _passes(engine, _specs(dicts), seconds, outcome,
                        expected)[0]

    tracer = Tracer()
    kept = {}

    def keep(index, args, value):
        if args[1] < len(dicts):          # first pass only
            kept.setdefault(args[1], []).append(args[2])

    install_sim_layers(tracer)
    install_campaign_layers(tracer, on_save=keep)
    try:
        with _engine(work_dir / "serial-traced", 1) as engine:
            specs = _specs(dicts)
            throughputs = _passes(engine, specs, seconds, outcome,
                                  expected)[0]
    finally:
        tracer.uninstall()
    repeats = len(throughputs)
    for name, value in sim_and_core(tracer, repeats).items():
        outcome.put(name, value, "")
    outcome.put("campaign.journal_record_ms", 1e3 * median(
        tracer.durations("campaign.journal_record")), "ms")
    outcome.put("trace.overhead_pct",
                overhead_pct(median(plain), median(throughputs)), "%",
                "calibrated trials/s at workers=1, traced vs untraced")
    tracer.write_chrome(work_dir / f"trace-campaign-dense-{seed}.json")

    restore = Tracer()
    from repro.sim.checkpoint import KernelCheckpoint
    from repro.sim.kernel import Kernel

    restore.wrap(KernelCheckpoint, "from_json", "checkpoint.decode")
    restore.wrap(Kernel, "restore", "checkpoint.restore")
    try:
        costs = []
        for index, scenario in enumerate(batch):
            saved = kept.get(index)
            if not saved:
                continue
            text = saved[len(saved) // 2].to_json()
            checkpoint = KernelCheckpoint.from_json(text)
            summary = simulate(scenario, resume_from=checkpoint)
            decode = restore.durations("checkpoint.decode")[-1]
            rebuild = restore.durations("checkpoint.restore")[-1]
            costs.append(decode + rebuild)
            outcome.attempted += 1
            if checks.payload_json(scenario, summary) != expected[index][0]:
                outcome.fail(f"trial {index}: resumed run differs")
    finally:
        restore.uninstall()
    outcome.put("checkpoint.restore_ms", 1e3 * median(costs), "ms",
                f"decode + Kernel.restore, {len(costs)} trials")
