"""Labeled metrics registry with OpenMetrics text exposition.

The capture layer (:mod:`repro.obs.observer`) records flat dotted
counters and raw-value histograms.  This module is the *export* side of
that telemetry: a small Prometheus-style registry —
:class:`Counter` / :class:`Gauge` / :class:`Summary` families with
label sets — rendered as `OpenMetrics`_ text, plus a stdlib-only HTTP
server so a long campaign is scrapeable live at ``/metrics``.

:func:`fill_from_observer` feeds the registry: it maps the observer's
dotted counter names into labeled families (``retries.<obj>`` becomes
``repro_object_retries_total{object="<obj>"}``, campaign/kernel/
invariant counters get their own families) and exports every observer
histogram as an OpenMetrics summary (count, sum, p50/p90 quantiles).

Everything is stdlib-only and thread-safe: the campaign engine mutates
its observer from the driving thread while the HTTP server snapshots a
fresh registry per scrape (:func:`snapshot_openmetrics`), so a scrape
never observes a half-updated family.

.. _OpenMetrics: https://prometheus.io/docs/specs/om/open_metrics_spec/
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import NullObserver

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: ``Content-Type`` the OpenMetrics spec mandates for scrapes.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8")


def sanitize_metric_name(raw: str) -> str:
    """Collapse a dotted observer name into a legal metric name."""
    name = _INVALID_CHARS.sub("_", raw).strip("_")
    if not name or not _NAME_RE.match(name):
        name = f"m_{_INVALID_CHARS.sub('_', raw)}"
    return name


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    """Integral floats render bare (``5`` not ``5.0``) so counters look
    like counters; everything else uses repr (shortest round-trip)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(value)}"'
                     for key, value in labels)
    return "{" + inner + "}"


class _MetricFamily:
    """Common bookkeeping: name/help/label validation, sample storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}")
        return tuple((name, str(labels[name])) for name in self.labelnames)

    # Subclasses render their samples; the registry adds the headers.
    def samples(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_MetricFamily):
    """Monotonically increasing count, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}_total{_labels_text(labels)} "
                f"{_format_value(value)}"
                for labels, value in items]


class Gauge(_MetricFamily):
    """A value that can go up and down (workers busy, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}{_labels_text(labels)} {_format_value(value)}"
                for labels, value in items]


class Summary(_MetricFamily):
    """Pre-aggregated quantiles (the observer's histogram digests)."""

    kind = "summary"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        # label key -> (count, sum, {quantile: value})
        self._state: dict[tuple[tuple[str, str], ...],
                          tuple[int, float, dict[str, float]]] = {}

    def set_digest(self, count: int, total: float,
                   quantiles: Mapping[str, float] | None = None,
                   **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._state[key] = (count, total, dict(quantiles or {}))

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted((k, (c, t, dict(q)))
                           for k, (c, t, q) in self._state.items())
        out: list[str] = []
        for labels, (count, total, quantiles) in items:
            for q in sorted(quantiles):
                q_labels = labels + (("quantile", q),)
                out.append(f"{self.name}{_labels_text(q_labels)} "
                           f"{_format_value(quantiles[q])}")
            out.append(f"{self.name}_count{_labels_text(labels)} {count}")
            out.append(f"{self.name}_sum{_labels_text(labels)} "
                       f"{_format_value(total)}")
        return out


class MetricsRegistry:
    """Named metric families, rendered as one OpenMetrics document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _MetricFamily] = {}

    def _register(self, family: _MetricFamily) -> _MetricFamily:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(
                        f"metric {family.name!r} already registered as "
                        f"{existing.kind}")
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def summary(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Summary:
        return self._register(Summary(name, help_text, labelnames))  # type: ignore[return-value]

    def render(self) -> str:
        """The OpenMetrics text document, terminated by ``# EOF``."""
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.extend(family.samples())
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Observer bridge
# ----------------------------------------------------------------------

#: Dotted-prefix -> (family, label name, help) routing for observer
#: counters whose suffix is data, not schema.
_LABELED_COUNTER_ROUTES = (
    ("retries.", "repro_object_retries", "object",
     "Lock-free retries per shared object"),
    ("invariant.violations.", "repro_invariant_violations", "monitor",
     "Runtime invariant violations per monitor"),
    ("campaign.attempt_failures.", "repro_campaign_attempt_failures",
     "kind", "Failed trial attempts per failure kind"),
)

#: Flat observer counters that get stable, documented family names.
_FLAT_COUNTER_ROUTES = {
    "campaign.trials": ("repro_campaign_trials",
                        "Trials reaching a terminal outcome"),
    "campaign.ok": ("repro_campaign_trials_ok",
                    "Trials that completed successfully"),
    "campaign.failed": ("repro_campaign_trials_failed",
                        "Trials that failed terminally"),
    "campaign.retries": ("repro_campaign_retries",
                         "Trial attempts re-queued after a retryable "
                         "failure"),
    "campaign.from_journal": ("repro_campaign_trials_from_journal",
                              "Trials replayed from a resume journal"),
    "campaign.journal_writes": ("repro_campaign_journal_writes",
                                "Checkpoint journal records written"),
}


def declare_standard_families(registry: MetricsRegistry) -> None:
    """Pre-register the series every scrape must expose — trial, retry
    and invariant-violation families render (at zero) even before the
    first trial completes or the first violation lands."""
    for raw in ("campaign.trials", "campaign.ok", "campaign.failed",
                "campaign.retries"):
        name, help_text = _FLAT_COUNTER_ROUTES[raw]
        registry.counter(name, help_text)
    registry.counter("repro_invariant_violations_detected",
                     "Total runtime invariant violations across monitors")


def fill_from_observer(registry: MetricsRegistry,
                       observer: "NullObserver") -> MetricsRegistry:
    """Project an observer's counters and histograms into the registry.

    Safe on any observer implementation: the disabled
    :data:`~repro.obs.observer.NULL_OBSERVER` contributes nothing.
    """
    counters = getattr(observer, "counters", None)
    if counters:
        for raw in sorted(counters):
            value = counters[raw]
            routed = False
            for prefix, family, label, help_text in _LABELED_COUNTER_ROUTES:
                if raw.startswith(prefix):
                    registry.counter(family, help_text, (label,)).inc(
                        value, **{label: raw[len(prefix):]})
                    if family == "repro_invariant_violations":
                        registry.counter(
                            "repro_invariant_violations_detected",
                            "Total runtime invariant violations across "
                            "monitors").inc(value)
                    routed = True
                    break
            if routed:
                continue
            flat = _FLAT_COUNTER_ROUTES.get(raw)
            if flat is not None:
                registry.counter(flat[0], flat[1]).inc(value)
            else:
                registry.counter(
                    f"repro_{sanitize_metric_name(raw)}",
                    f"Observer counter {raw!r}").inc(value)
    histograms = getattr(observer, "histograms", None)
    if histograms:
        for raw in sorted(histograms):
            digest = histograms[raw].summary()
            if not digest.get("count"):
                continue
            summary = registry.summary(
                f"repro_{sanitize_metric_name(raw)}",
                f"Observer histogram {raw!r}")
            summary.set_digest(
                count=int(digest["count"]),
                total=float(histograms[raw].total),
                quantiles={"0.5": digest["p50"], "0.9": digest["p90"]})
    return registry


def snapshot_openmetrics(observer: "NullObserver | None" = None,
                         extra: Callable[[MetricsRegistry], None] | None
                         = None) -> str:
    """One consistent OpenMetrics document from the current telemetry.

    Builds a fresh registry per call (scrape-time snapshot), so a
    campaign thread can keep mutating its observer while HTTP scrapes
    are served concurrently.
    """
    registry = MetricsRegistry()
    declare_standard_families(registry)
    if observer is not None:
        fill_from_observer(registry, observer)
    if extra is not None:
        extra(registry)
    return registry.render()


# ----------------------------------------------------------------------
# Stdlib-only /metrics endpoint
# ----------------------------------------------------------------------


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics -> the server's render callback; quiet logging."""

    server: "_MetricsHTTPServer"
    # TCP_NODELAY: headers and body are separate writes; with Nagle on,
    # a keep-alive response would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            try:
                body = self.server.render().encode("utf-8")
            except Exception as exc:  # pragma: no cover - defensive
                self.send_error(500, f"render failed: {exc}")
                return
            self.send_response(200)
            self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404, "try /metrics")

    def log_message(self, *args: Any) -> None:  # noqa: D102
        pass


class _MetricsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    render: Callable[[], str]


class MetricsServer:
    """Background ``/metrics`` endpoint for live campaign scraping.

    ``render`` is called per scrape and must return the OpenMetrics
    text (typically :func:`snapshot_openmetrics` over the campaign
    observer).  ``port=0`` binds an ephemeral port; read ``.port`` /
    ``.url`` after :meth:`start`.
    """

    def __init__(self, render: Callable[[], str],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._render = render
        self._host = host
        self._requested_port = port
        self._server: _MetricsHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int | None:
        if self._server is None:
            return None
        return self._server.server_address[1]

    @property
    def url(self) -> str | None:
        if self._server is None:
            return None
        return f"http://{self._host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        server = _MetricsHTTPServer(
            (self._host, self._requested_port), _MetricsHandler)
        server.render = self._render
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-metrics",
            daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
