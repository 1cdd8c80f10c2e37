"""Property test: snapshot anywhere, restore, finish — byte-identical.

Hypothesis drives the checkpoint/restore contract harder than the
enumerated gate: an arbitrary seed, sync style, policy override,
scheduler mode and snapshot position (any handled-event index) must all
restore to the uninterrupted run's exact
:func:`~repro.sim.checkpoint.fingerprint_result`.  Half the draws are
plain runs (no injector, no admission guard, no fault report); the
other half carry an arrival burst and trace releases beyond the UAM
envelope, and an admission guard that sheds or defers them, so
injected, shed and deferred arrivals all cross a snapshot beside the
one pending trace arrival per task.
"""

import dataclasses
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import quick_scenario, simulate
from repro.faults import ArrivalBurst, FaultPlan
from repro.faults.degradation import AdmissionPolicy, ShedMode
from repro.sim.checkpoint import (
    CheckpointPolicy,
    KernelCheckpoint,
    fingerprint_result,
)
from tests.helpers import out_of_spec

HORIZON_US = 4_000


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sync=st.sampled_from(["lockfree", "lockbased"]),
    policy=st.sampled_from([None, "edf", "llf"]),
    position=st.floats(min_value=0.0, max_value=1.0),
    fastpath=st.booleans(),
    faulted=st.booleans(),
    burst_task=st.integers(min_value=0, max_value=2),
    burst_at=st.floats(min_value=0.0, max_value=0.9),
    burst_count=st.integers(min_value=1, max_value=4),
    shed_mode=st.sampled_from(list(ShedMode)),
    twin_every=st.integers(min_value=1, max_value=4),
)
def test_snapshot_anywhere_restores_identically(seed, sync, policy,
                                                position, fastpath, faulted,
                                                burst_task, burst_at,
                                                burst_count, shed_mode,
                                                twin_every):
    if fastpath:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        scenario = dataclasses.replace(
            quick_scenario(n_tasks=3, n_objects=2, sync=sync, load=1.0,
                           horizon_us=HORIZON_US, seed=seed),
            policy=policy)
        if faulted:
            scenario = dataclasses.replace(
                out_of_spec(scenario, every=twin_every),
                faults=FaultPlan(seed=seed, bursts=(ArrivalBurst(
                    task_index=burst_task,
                    time=round(burst_at * HORIZON_US * 1_000),
                    count=burst_count),)),
                admission=AdmissionPolicy(mode=shed_mode))
        # every_events=1: one checkpoint per handled event, so `position`
        # can land the snapshot on any event index of the run.
        checkpoints: list[KernelCheckpoint] = []
        clean = simulate(scenario,
                         checkpoints=CheckpointPolicy(every_events=1),
                         checkpoint_sink=checkpoints.append)
        want = fingerprint_result(clean.result)
        assert checkpoints
        ckpt = checkpoints[round(position * (len(checkpoints) - 1))]
        # Serialization round-trip included: restore from the JSON wire
        # form, exactly as the campaign store would.
        ckpt = KernelCheckpoint.from_json(ckpt.to_json())
        resumed = simulate(scenario, resume_from=ckpt)
        assert fingerprint_result(resumed.result) == want
    finally:
        os.environ.pop("REPRO_NO_FASTPATH", None)
