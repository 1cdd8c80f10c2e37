"""Overhead guard: checkpointing machinery must be free when disabled.

With ``checkpoints=None`` (the default) the kernel's checkpoint hook is
a single attribute test per event, so a run makes no call at all into
:mod:`repro.sim.checkpoint`; an armed-but-idle policy (interval larger
than the run) adds only the per-event due check.  Both are counted, not
timed: ``sys.setprofile`` counts every Python-level call, which is
deterministic for a fixed seed, so the guard cannot be fooled by (or
fail on) machine noise.  The armed-idle run must stay within 5 % of the
disabled run's calls per handled event.
"""

import sys
from collections import Counter

from repro.api import quick_scenario, simulate
from repro.sim import checkpoint as checkpoint_module
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.kernel import Kernel

SEED = 99
#: Event handlers: one call per handled kernel event.
HANDLER_CODES = {handler.__code__ for handler in Kernel._HANDLERS.values()}


def _reference_run(policy=None):
    scenario = quick_scenario(n_tasks=4, n_objects=3, sync="lockfree",
                              load=1.0, horizon_us=50_000, seed=SEED)
    sink = [].append if policy is not None else None
    return simulate(scenario, checkpoints=policy, checkpoint_sink=sink)


def _counted_run(policy=None) -> Counter:
    """Python-level calls of one run, by code object."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        _reference_run(policy)
    finally:
        sys.setprofile(None)
    return calls


def _in_checkpoint_module(calls: Counter) -> int:
    return sum(count for code, count in calls.items()
               if code.co_filename == checkpoint_module.__file__)


def _calls_per_event(calls: Counter) -> float:
    events = sum(calls[code] for code in HANDLER_CODES)
    assert events > 100
    return sum(calls.values()) / events


def test_disabled_checkpointing_within_5_percent_of_baseline():
    never = CheckpointPolicy(every_events=10**9)
    _reference_run()               # warm lazy imports and memo tables
    disabled = _counted_run(policy=None)
    armed_idle = _counted_run(policy=never)
    assert _in_checkpoint_module(disabled) == 0, (
        "a run without checkpoints called into repro.sim.checkpoint")
    assert _in_checkpoint_module(armed_idle) == 0, (
        "an armed policy that never fires still snapshotted")
    per_event_disabled = _calls_per_event(disabled)
    per_event_armed = _calls_per_event(armed_idle)
    assert per_event_armed <= per_event_disabled * 1.05, (
        f"armed-but-idle policy makes {per_event_armed:.2f} calls per "
        f"event against {per_event_disabled:.2f} disabled: more than 5% "
        f"extra")
