"""Byte-identity guard: checkpoint texts are pinned by one SHA-256.

A small seeded serial batch is simulated under both syncs with a
checkpoint every few dozen events, and every checkpoint's JSON text is
hashed in order.  The paper-style runs are overloaded, so jobs abort and
leave stale timers in the queue; the hand-built runs end each job on a
shared-object access (under lock-based sharing the final unlock is a
scheduling event, so the job is dispatched past its last segment) and
carry a fault plan that exercises overruns, spurious retries, timer
faults, bursts and cost jitter.

The pinned digest is a recorded value, not a derived one: any change to
the simulated state (a new field leaking into the encoding, a reordered
event, a different segment index on a departed job) changes it, so a
kernel change that claims byte-identical results must leave it alone.
It was last re-pinned for checkpoint format v4 (a new version number,
and no simulated-clock checkpoint meter in the state).
"""

import hashlib

from repro.api import quick_scenario, simulate
from repro.arrivals import UAMSpec
from repro.faults import (ArrivalBurst, CostJitter, FaultPlan,
                          SegmentOverrun, SpuriousRetry, TimerFault)
from repro.scenario import Scenario
from repro.sim.checkpoint import CheckpointPolicy
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tuf import StepTUF

SYNCS = ("lockfree", "lockbased")
EVERY_EVENTS = 37
PINNED = "4e0ce816ec082a9af52474d91b9671a36d43ec23e0c58e5268b6cfa6c864528c"


def _hand_built(sync: str) -> Scenario:
    # T0 holds long accesses; the short jobs have the higher PUD, so
    # their arrivals preempt it mid-access (preemptions, retries).
    def task(index: int, scale: int, critical: int) -> TaskSpec:
        return TaskSpec(name=f"T{index}", arrival=UAMSpec(1, 1, 500_000),
                        tuf=StepTUF(critical_time=critical),
                        body=(Compute(5_000 * scale),
                              ObjectAccess(obj=0, duration=8_000 * scale),
                              Compute(3_000 * scale),
                              ObjectAccess(obj=1, duration=4_000 * scale)))

    tasks = (task(0, 10, 450_000),) + tuple(
        task(index, 1, 60_000 * index) for index in (1, 2, 3))
    faults = FaultPlan(
        seed=11,
        overruns=(SegmentOverrun(task="T1", extra=9_000),
                  SegmentOverrun(task="T2", extra=3_000, segment_index=1)),
        bursts=(ArrivalBurst(task_index=0, time=900_000, count=3),),
        spurious_retries=(SpuriousRetry(times=4),),
        timer_faults=(TimerFault(task="T3", delay=20_000),),
        jitter=CostJitter(magnitude=0.2))
    return Scenario(sync=sync, horizon=8_000_000, seed=6, tasks=tasks,
                    faults=faults)


def _batch():
    for sync in SYNCS:
        for seed in (3, 4):
            yield quick_scenario(n_tasks=5, n_objects=3, sync=sync,
                                 load=1.3, horizon_us=40_000, seed=seed)
        yield _hand_built(sync)


def _checkpoint_texts():
    for scenario in _batch():
        checkpoints = []
        simulate(scenario,
                 checkpoints=CheckpointPolicy(every_events=EVERY_EVENTS),
                 checkpoint_sink=checkpoints.append)
        assert len(checkpoints) > 10
        for checkpoint in checkpoints:
            yield checkpoint.to_json()


def test_checkpoint_texts_match_pinned_digest():
    digest = hashlib.sha256()
    for text in _checkpoint_texts():
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    assert digest.hexdigest() == PINNED
