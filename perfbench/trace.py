"""Span recording for the traced run.

The program under test carries no tracing of its own for this
benchmark: :class:`Tracer` replaces public functions of each layer with
timing wrappers from the outside, keeps every span in memory, and writes
them out at the end as Chrome trace-event JSON through
``repro.obs.exporters.write_chrome_trace``, loadable in
``chrome://tracing`` or Perfetto.

A span is ``[name, start, end, parent, id, tid]``: ``parent`` is the
index of the enclosing span (on the same thread, or the span a
cross-thread hand-off was attributed to) and ``id`` is the request or
trial the span belongs to.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, ID, TID = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        #: Free-form per-span measurements (e.g. bytes), by span name.
        self.values = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping ----------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, ident, parent=None):
        """Attribute this thread's next root spans to request/trial
        ``ident`` and, optionally, to parent span ``parent``."""
        self._local.ident = ident
        self._local.parent = parent

    def begin(self, name, ident=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if ident is None:
                ident = self.spans[parent][ID]
        else:
            parent = getattr(self._local, "parent", None)
            if ident is None:
                ident = getattr(self._local, "ident", None)
        record = [name, time.perf_counter(), None, parent, ident,
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    # -- wrappers --------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(func)(make(func))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr, name, *, label=None, ident=None,
             on_result=None):
        """Time every call of ``owner.attr`` as a span.

        ``label(args)`` may refine the span name per call, ``ident(args)``
        picks the request/trial id, and ``on_result(span, args, value)``
        sees the return value.
        """
        tracer = self

        def make(func):
            def wrapper(*args, **kwargs):
                index = tracer.begin(
                    name if label is None else label(args),
                    None if ident is None else ident(args))
                try:
                    value = func(*args, **kwargs)
                finally:
                    tracer.end(index)
                if on_result is not None:
                    on_result(index, args, value)
                return value
            return wrapper

        self._patch(owner, attr, make)

    def count_calls(self, owner, attr, key):
        """Count calls of ``owner.attr`` without timing them (for
        functions too hot for a span per call)."""
        counts = self.counts

        def make(func):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def closed(self, name):
        return [s for s in self.spans
                if s[END] is not None and s[NAME] == name]

    def durations(self, name):
        return [s[END] - s[START] for s in self.closed(name)]

    def self_times(self):
        """Per-span self time: duration minus the part of the span's
        interval that its child spans cover."""
        children = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record[PARENT] is not None and record[END] is not None:
                children[record[PARENT]].append(index)
        result = {}
        for index, record in enumerate(self.spans):
            if record[END] is None:
                continue
            covered = 0.0
            cursor = record[START]
            for child in sorted(children.get(index, ()),
                                key=lambda i: self.spans[i][START]):
                start = max(self.spans[child][START], cursor)
                end = min(self.spans[child][END], record[END])
                if end > start:
                    covered += end - start
                    cursor = end
            result[index] = record[END] - record[START] - covered
        return result

    def write_chrome(self, path):
        """Write every closed span as a complete (``ph: "X"``) event."""
        from repro.obs.exporters import write_chrome_trace
        from repro.obs.observer import Observer

        observer = Observer()
        closed = [(i, s) for i, s in enumerate(self.spans)
                  if s[END] is not None]
        origin = min((s[START] for _, s in closed), default=0.0)
        lanes = {}
        for index, record in closed:
            lane = lanes.setdefault(record[TID], f"thread-{len(lanes) + 1}")
            observer.span(record[NAME], record[NAME].split(".", 1)[0], lane,
                          round((record[START] - origin) * 1e9),
                          round((record[END] - record[START]) * 1e9),
                          {"span": index, "parent": record[PARENT],
                           "id": record[ID]})
        return write_chrome_trace(path, observer)


def install_sim_layers(tracer):
    """Wrap the kernel, scheduler, scenario and checkpoint layers."""
    from repro.core.interface import SchedulerPolicy
    from repro.scenario import Scenario
    from repro.sim.checkpoint import KernelCheckpoint
    from repro.sim.engine import EventQueue
    from repro.sim.kernel import Kernel

    def record_bytes(index, args, text):
        tracer.values["checkpoint.bytes"].append(len(text))

    tracer.wrap(Kernel, "run", "sim.kernel_run",
                label=lambda args: "sim.kernel_run."
                + args[0].config.policy.name)
    tracer.count_calls(EventQueue, "pop", "sim.events")
    tracer.wrap(SchedulerPolicy, "schedule", "core.schedule",
                label=lambda args: f"core.schedule.{args[0].name}")
    tracer.wrap(Scenario, "materialize", "scenario.materialize")
    tracer.wrap(Kernel, "snapshot", "checkpoint.snapshot")
    tracer.wrap(KernelCheckpoint, "to_json", "checkpoint.encode",
                on_result=record_bytes)
    tracer.wrap(KernelCheckpoint, "from_json", "checkpoint.decode")
    tracer.wrap(Kernel, "restore", "checkpoint.restore")


def install_campaign_layers(tracer, on_save=None):
    from repro.campaign.journal import CampaignJournal
    from repro.campaign.resume import CheckpointStore

    tracer.wrap(CampaignJournal, "record", "campaign.journal_record")
    tracer.wrap(CheckpointStore, "save", "checkpoint.save",
                on_result=on_save)


def install_serve_layers(tracer):
    """Wrap the service stages; requests are identified by the ``rid``
    field the benchmark's client puts first in every body."""
    from repro.scenario import Scenario
    from repro.serve.admission import AdmissionQueue
    from repro.serve.app import ServeApp
    from repro.serve.cache import ResultCache
    from repro.serve.pool import SimulationPool
    from repro.serve.wal import RequestLog

    from perfbench.client import request_id

    owners = {}          # id(ServeRequest) -> (rid, handle span)

    def tag_request(index, args, decision):
        request = args[1]
        stack = tracer._stack()
        handle = stack[-1] if stack else None
        owners[id(request)] = (tracer.spans[index][ID], handle)

    def note_take(index, args, request):
        if request is None:
            tracer.set_context(None)
            return
        rid, handle = owners.pop(id(request), (None, None))
        tracer.spans[index][ID] = rid
        waited = time.monotonic() - request.enqueued_at
        tracer.values["serve.queue_wait"].append(waited)
        tracer.set_context(rid, handle)

    tracer.wrap(ServeApp, "handle_simulate", "serve.handle",
                ident=lambda args: request_id(args[1]))
    tracer.wrap(Scenario, "from_dict", "serve.parse")
    tracer.wrap(Scenario, "digest", "serve.digest")
    tracer.wrap(ResultCache, "get", "serve.cache_get")
    tracer.wrap(ResultCache, "put", "serve.cache_put")
    tracer.wrap(RequestLog, "append", "serve.wal_append")
    tracer.wrap(AdmissionQueue, "submit", "serve.queue_submit",
                on_result=tag_request)
    tracer.wrap(AdmissionQueue, "take", "serve.queue_take",
                on_result=note_take)
    tracer.wrap(SimulationPool, "execute", "serve.pool_execute")
