"""Lazy arrivals pop the stream up-front priming pops.

The kernel queues each task's next trace release only, under the
sequence number it would have drawn had every release been queued
before the first event.  The reference below does exactly that up-front
priming, with plain counter-numbered pushes, and the two kernels must pop
the same ``(time, priority, sequence, kind)`` stream and produce the
same result, also under injected bursts and out-of-spec trace releases
that an admission guard sheds or defers.
"""

import dataclasses
from collections import Counter

import pytest

import repro.api
from repro.api import quick_scenario, simulate
from repro.faults import ArrivalBurst, FaultPlan
from repro.faults.degradation import AdmissionPolicy, ShedMode
from repro.sim.checkpoint import fingerprint_result
from repro.sim.engine import EventQueue
from repro.sim.events import EventPriority, JobArrival
from repro.sim.kernel import Kernel
from tests.helpers import out_of_spec


class UpFrontKernel(Kernel):
    """Reference: every trace release below the horizon is queued before
    the first event, task by task, in trace order."""

    def _prime_arrivals(self) -> None:
        self._queue = EventQueue()
        horizon = self.config.horizon
        for task_index, trace in enumerate(self.config.arrival_traces):
            for jid, release in enumerate(trace):
                if release >= horizon:
                    break
                self._queue.push(release, EventPriority.ARRIVAL,
                                 JobArrival(task_index=task_index, jid=jid))
        # Nothing is left to queue on arrival.
        self._trace_ends = [0] * len(self._trace_ends)
        if self._injector is not None:
            for release, task_index in self._injector.burst_arrivals(
                    horizon):
                jid = self._next_jid[task_index]
                self._next_jid[task_index] += 1
                self._queue.push(release, EventPriority.ARRIVAL,
                                 JobArrival(task_index=task_index, jid=jid,
                                            injected=True))


def _run(scenario, monkeypatch, kernel_class):
    """One run under ``kernel_class``: its result, the popped key
    stream, the largest queue length, and the popped arrivals counted
    by ``(injected, deferred)``."""
    stream = []
    longest = [0]
    arrivals = Counter()
    pop = EventQueue.pop

    def recording_pop(queue):
        time, priority, sequence, payload = queue._heap[0]
        stream.append((time, int(priority), sequence,
                       type(payload).__name__))
        longest[0] = max(longest[0], len(queue._heap))
        if type(payload) is JobArrival:
            arrivals[payload.injected, payload.deferrals > 0] += 1
        return pop(queue)

    with monkeypatch.context() as patch:
        patch.setattr(EventQueue, "pop", recording_pop)
        patch.setattr(repro.api, "Kernel", kernel_class)
        result = simulate(scenario).result
    return result, stream, longest[0], arrivals


def _scenarios():
    for sync in ("lockfree", "lockbased"):
        base = quick_scenario(n_tasks=4, n_objects=2, sync=sync, load=1.2,
                              horizon_us=20_000, seed=5)
        yield f"{sync}-plain", base
        faults = FaultPlan(seed=5, bursts=(
            ArrivalBurst(task_index=0, time=3_000_000, count=4),
            ArrivalBurst(task_index=2, time=9_000_000, count=2)))
        for mode in ShedMode:
            yield (f"{sync}-bursts-{mode.value}",
                   dataclasses.replace(
                       out_of_spec(base), faults=faults,
                       admission=AdmissionPolicy(mode=mode)))


SCENARIOS = dict(_scenarios())


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_lazy_queue_pops_the_up_front_stream(name, monkeypatch):
    scenario = SCENARIOS[name]
    lazy, lazy_stream, lazy_longest, arrivals = _run(scenario, monkeypatch,
                                                     Kernel)
    eager, eager_stream, eager_longest, _ = _run(scenario, monkeypatch,
                                                 UpFrontKernel)
    assert len(lazy_stream) > 100
    if scenario.admission is not None:
        report = lazy.degradation
        if scenario.admission.mode is ShedMode.DEFER:
            # Trace and injected arrivals were both deferred.
            assert arrivals[False, True] and arrivals[True, True]
        else:
            # More arrivals were shed than were injected.
            assert report.shed_jobs > report.injected_arrivals
    assert lazy_stream == eager_stream
    assert fingerprint_result(lazy) == fingerprint_result(eager)
    # The lazy queue really is shorter: it never holds the future trace.
    assert lazy_longest < eager_longest

