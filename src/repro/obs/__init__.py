"""Observability & profiling layer (DESIGN.md §10).

Spans, counters and histograms threaded through the simulated kernel,
the scheduler policies and the campaign engine; exporters for Chrome
trace-event JSON, JSONL event streams and a compact perf summary; the
live metrics registry; and trace-diff diagnosis.  Perf claims are judged
outside the package, by ``scripts/ab.py``'s paired runs (DESIGN.md §11).

Every name resolves lazily on first attribute access
(:mod:`repro._lazy`).  Instrumented modules deep in the import graph —
the kernel, the campaign engine — import :data:`NULL_OBSERVER` from
the stdlib-only :mod:`repro.obs.observer` directly, without cycles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.events": ("CounterSample", "Histogram", "InstantEvent",
                         "SpanEvent", "freeze_args"),
    "repro.obs.observer": ("NULL_OBSERVER", "NullObserver", "Observer"),
    "repro.obs.exporters": ("chrome_trace", "write_chrome_trace",
                            "events_jsonl", "write_jsonl",
                            "render_summary"),
    "repro.obs.profile": ("run_profile", "ProfileResult",
                          "PROFILE_WORKLOADS", "PROFILE_SYNCS"),
    # metrics registry & live /metrics endpoint
    "repro.obs.metrics": ("MetricsRegistry", "MetricsServer",
                          "snapshot_openmetrics", "fill_from_observer"),
    # trace-diff diagnosis
    "repro.obs.diff": ("diff_trace_files", "diff_traces", "load_trace",
                       "TraceDiff"),
})
