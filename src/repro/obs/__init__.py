"""Observability & profiling layer (DESIGN.md §10).

Spans, counters and histograms threaded through the simulated kernel,
the scheduler policies and the campaign engine; exporters for Chrome
trace-event JSON, JSONL event streams and a compact perf summary; and
the perf-regression gate over the committed perfbench trajectories
(:mod:`repro.obs.regress`, the one bench store).

Only :mod:`repro.obs.events` and :mod:`repro.obs.observer` load eagerly
(they are stdlib-only, so instrumented modules deep in the import graph
— the kernel, the campaign engine — can import :data:`NULL_OBSERVER`
without cycles).  The exporters, the regression gate and the profile
runner resolve lazily on first attribute access.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import (      # noqa: F401 - public re-exports
    CounterSample,
    Histogram,
    InstantEvent,
    SpanEvent,
    freeze_args,
)
from repro.obs.observer import (    # noqa: F401 - public re-exports
    NULL_OBSERVER,
    NullObserver,
    Observer,
)

_LAZY = {
    "chrome_trace": "repro.obs.exporters",
    "write_chrome_trace": "repro.obs.exporters",
    "events_jsonl": "repro.obs.exporters",
    "write_jsonl": "repro.obs.exporters",
    "render_summary": "repro.obs.exporters",
    "run_profile": "repro.obs.profile",
    "ProfileResult": "repro.obs.profile",
    "PROFILE_WORKLOADS": "repro.obs.profile",
    "PROFILE_SYNCS": "repro.obs.profile",
    # metrics registry & live /metrics endpoint
    "MetricsRegistry": "repro.obs.metrics",
    "MetricsServer": "repro.obs.metrics",
    "snapshot_openmetrics": "repro.obs.metrics",
    "fill_from_observer": "repro.obs.metrics",
    "fill_from_degradation": "repro.obs.metrics",
    # perf-regression gate over committed trajectories
    "append_trajectory": "repro.obs.regress",
    "load_trajectory": "repro.obs.regress",
    "check_trajectories": "repro.obs.regress",
    "judge_series": "repro.obs.regress",
    "RegressionReport": "repro.obs.regress",
    # trace-diff diagnosis
    "diff_trace_files": "repro.obs.diff",
    "diff_traces": "repro.obs.diff",
    "load_trace": "repro.obs.diff",
    "TraceDiff": "repro.obs.diff",
}

__all__ = [
    "CounterSample",
    "Histogram",
    "InstantEvent",
    "SpanEvent",
    "freeze_args",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    *sorted(_LAZY),
]


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
