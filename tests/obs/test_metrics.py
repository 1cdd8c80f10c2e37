"""Unit tests for the labeled metrics registry, the observer bridge,
and the stdlib /metrics endpoint."""

import urllib.error
import urllib.request

import pytest

from repro.campaign import CampaignConfig, CampaignEngine
from repro.obs import Observer
from repro.obs.metrics import (
    OPENMETRICS_CONTENT_TYPE,
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsServer,
    Summary,
    declare_standard_families,
    fill_from_observer,
    sanitize_metric_name,
    snapshot_openmetrics,
)


class TestSanitizeMetricName:
    def test_dotted_names_collapse(self):
        assert sanitize_metric_name("campaign.trials") == "campaign_trials"
        assert sanitize_metric_name("retries.2") == "retries_2"

    def test_leading_digit_gets_prefix(self):
        assert sanitize_metric_name("2fast") == "m_2fast"

    def test_strips_stray_symbols(self):
        assert sanitize_metric_name("a-b c%d") == "a_b_c_d"


class TestCounter:
    def test_unlabeled_counter_renders_zero_before_first_inc(self):
        counter = Counter("hits", "help")
        assert counter.samples() == ["hits_total 0"]

    def test_total_suffix_and_labels(self):
        counter = Counter("hits", labelnames=("route",))
        counter.inc(route="a")
        counter.inc(2, route="b")
        assert counter.samples() == [
            'hits_total{route="a"} 1',
            'hits_total{route="b"} 2',
        ]

    def test_cannot_decrease(self):
        counter = Counter("hits")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_set_must_match(self):
        counter = Counter("hits", labelnames=("route",))
        with pytest.raises(ValueError):
            counter.inc(other="x")
        with pytest.raises(ValueError):
            counter.inc()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9bad")
        with pytest.raises(ValueError):
            Counter("ok", labelnames=("__reserved",))

    def test_label_values_escaped(self):
        counter = Counter("hits", labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        assert counter.samples() == [
            'hits_total{path="a\\"b\\\\c\\nd"} 1']


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.inc(2.5)
        assert gauge.value() == 7.5
        assert gauge.samples() == ["depth 7.5"]


class TestSummary:
    def test_digest_renders_quantiles(self):
        summary = Summary("job_retries")
        summary.set_digest(count=10, total=25.0,
                           quantiles={"0.5": 2.0, "0.9": 4.0})
        assert summary.samples() == [
            'job_retries{quantile="0.5"} 2',
            'job_retries{quantile="0.9"} 4',
            "job_retries_count 10",
            "job_retries_sum 25",
        ]


class TestRegistry:
    def test_render_has_type_headers_and_eof(self):
        registry = MetricsRegistry()
        registry.counter("b_hits", "hits help").inc()
        registry.gauge("a_depth").set(1)
        text = registry.render()
        lines = text.splitlines()
        # Families in sorted-name order; EOF terminator on its own line.
        assert lines[0] == "# TYPE a_depth gauge"
        assert "# TYPE b_hits counter" in lines
        assert "# HELP b_hits hits help" in lines
        assert lines[-1] == "# EOF"
        assert text.endswith("# EOF\n")

    def test_same_name_same_kind_returns_existing(self):
        registry = MetricsRegistry()
        first = registry.counter("hits")
        second = registry.counter("hits")
        assert first is second

    def test_same_name_other_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(ValueError):
            registry.gauge("hits")


class TestObserverBridge:
    def test_labeled_routes(self):
        obs = Observer()
        obs.counter("retries.2", 7)
        obs.counter("invariant.violations.retry-bound", 3)
        obs.counter("campaign.attempt_failures.transient", 2)
        text = fill_from_observer(MetricsRegistry(), obs).render()
        assert 'repro_object_retries_total{object="2"} 7' in text
        assert ('repro_invariant_violations_total'
                '{monitor="retry-bound"} 3') in text
        assert "repro_invariant_violations_detected_total 3" in text
        assert ('repro_campaign_attempt_failures_total'
                '{kind="transient"} 2') in text

    def test_flat_and_fallback_routes(self):
        obs = Observer()
        obs.counter("campaign.trials", 4)
        obs.counter("kernel.completions", 9)
        text = fill_from_observer(MetricsRegistry(), obs).render()
        assert "repro_campaign_trials_total 4" in text
        assert "repro_kernel_completions_total 9" in text

    def test_histograms_become_summaries(self):
        obs = Observer()
        for value in (1.0, 2.0, 3.0, 4.0):
            obs.histogram("job.retries", value)
        text = fill_from_observer(MetricsRegistry(), obs).render()
        assert "# TYPE repro_job_retries summary" in text
        assert 'repro_job_retries{quantile="0.5"}' in text
        assert "repro_job_retries_count 4" in text
        assert "repro_job_retries_sum 10" in text

    def test_null_and_empty_observers_contribute_nothing(self):
        from repro.obs.observer import NULL_OBSERVER
        base = MetricsRegistry().render()
        assert fill_from_observer(MetricsRegistry(),
                                  NULL_OBSERVER).render() == base
        assert fill_from_observer(MetricsRegistry(),
                                  Observer()).render() == base


class TestSnapshot:
    def test_standard_families_render_at_zero(self):
        text = snapshot_openmetrics()
        assert "repro_campaign_trials_total 0" in text
        assert "repro_campaign_retries_total 0" in text
        assert "repro_invariant_violations_detected_total 0" in text
        assert text.endswith("# EOF\n")

    def test_extra_hook(self):
        text = snapshot_openmetrics(
            extra=lambda reg: reg.gauge("workers_busy").set(3))
        assert "workers_busy 3" in text

    def test_declare_is_idempotent(self):
        registry = MetricsRegistry()
        declare_standard_families(registry)
        declare_standard_families(registry)
        assert registry.render().count(
            "# TYPE repro_campaign_trials counter") == 1


def _scrape(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


class TestMetricsServer:
    def test_serves_openmetrics_and_healthz(self):
        obs = Observer()
        obs.counter("campaign.trials", 2)
        with MetricsServer(lambda: snapshot_openmetrics(observer=obs),
                           port=0) as server:
            assert server.port
            status, content_type, body = _scrape(server.url)
            assert status == 200
            assert content_type == OPENMETRICS_CONTENT_TYPE
            assert "repro_campaign_trials_total 2" in body
            assert body.endswith("# EOF\n")
            base = server.url.rsplit("/", 1)[0]
            assert _scrape(f"{base}/healthz")[2] == "ok\n"
            with pytest.raises(urllib.error.HTTPError):
                _scrape(f"{base}/nope")

    def test_scrape_sees_live_updates(self):
        obs = Observer()
        with MetricsServer(lambda: snapshot_openmetrics(observer=obs),
                           port=0) as server:
            assert "repro_campaign_trials_total 0" in _scrape(server.url)[2]
            obs.counter("campaign.trials", 5)
            assert "repro_campaign_trials_total 5" in _scrape(server.url)[2]

    def test_close_stops_serving(self):
        server = MetricsServer(lambda: "# EOF\n", port=0).start()
        url = server.url
        server.close()
        assert server.port is None
        with pytest.raises(urllib.error.URLError):
            _scrape(url)


def _trial(seed):
    return seed + 1


class TestEngineIntegration:
    def test_campaign_serves_metrics_while_running(self):
        engine = CampaignEngine(CampaignConfig(metrics_port=0),
                                observer=Observer())
        try:
            assert engine.metrics_url is not None
            engine.map(_trial, [(1,), (2,)])
            body = _scrape(engine.metrics_url)[2]
            assert "repro_campaign_trials_total 2" in body
            assert "repro_campaign_trials_ok_total 2" in body
            assert body.endswith("# EOF\n")
        finally:
            engine.close()
        assert engine.metrics_url is None

    def test_no_server_without_port(self):
        engine = CampaignEngine(CampaignConfig())
        try:
            assert engine.metrics_url is None
        finally:
            engine.close()
