"""Per-layer metrics computed from a traced run's spans."""

from __future__ import annotations

from perfbench.common import median, tail
from perfbench.trace import NAME

POLICIES = {"rua-lockfree": "lockfree", "rua-lockbased": "lockbased"}


def sim_and_core(tracer, repeats=1):
    """Kernel, scheduler, scenario and checkpoint metrics.

    Counts are divided by ``repeats`` (identical passes over one batch),
    so they are exact per-batch counts.
    """
    metrics = {}
    self_time = tracer.self_times()
    runs = [i for i, s in enumerate(tracer.spans)
            if s[NAME].startswith("sim.kernel_run.") and i in self_time]
    events = tracer.counts["sim.events"]
    metrics["sim.events"] = events // repeats
    metrics["sim.us_per_event"] = (
        1e6 * sum(self_time[i] for i in runs) / events if events else 0.0)

    for policy, label in POLICIES.items():
        run_time = sum(tracer.durations(f"sim.kernel_run.{policy}"))
        calls = tracer.durations(f"core.schedule.{policy}")
        metrics[f"core.schedule_calls.{label}"] = len(calls) // repeats
        metrics[f"core.schedule_us_p50.{label}"] = 1e6 * median(calls)
        metrics[f"core.schedule_us_tail.{label}"] = 1e6 * tail(calls)[0]
        metrics[f"core.schedule_share.{label}"] = (
            sum(calls) / run_time if run_time else 0.0)

    metrics["scenario.materialize_ms"] = 1e3 * median(
        tracer.durations("scenario.materialize"))
    snapshots = tracer.durations("checkpoint.snapshot")
    metrics["checkpoint.snapshots"] = len(snapshots) // repeats
    metrics["checkpoint.snapshot_us"] = 1e6 * median(snapshots)
    metrics["checkpoint.bytes"] = median(tracer.values["checkpoint.bytes"])
    metrics["checkpoint.save_ms"] = 1e3 * median(
        tracer.durations("checkpoint.save"))
    return metrics


def overhead_pct(untraced, traced, higher_is_better=True):
    """Tracing overhead: how much worse the traced run's end-to-end
    figure is than the untraced one, in percent."""
    if not untraced or not traced:
        return 0.0
    if higher_is_better:
        return 100.0 * (untraced - traced) / untraced
    return 100.0 * (traced - untraced) / untraced
