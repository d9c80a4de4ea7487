"""Instruments, registry snapshots, Prometheus rendering, null overhead."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    obs_enabled_from_env,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = MetricsRegistry().counter("payments")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_is_last_write_wins(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_buckets_and_totals(self):
        histogram = Histogram("latency", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1, 1]  # last = +Inf overflow
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)

    def test_histogram_bounds_sorted_and_nonempty(self):
        assert Histogram("h", bounds=(5.0, 1.0)).bounds == (1.0, 5.0)
        with pytest.raises(ValueError, match="at least one bound"):
            Histogram("h", bounds=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_plain_json_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.two").inc(2)
        registry.counter("a.one").inc()
        registry.gauge("depth").set(4)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.one", "b.two"]
        assert snapshot["counters"]["b.two"] == 2.0
        assert snapshot["gauges"] == {"depth": 4.0}
        assert snapshot["histograms"]["lat"] == {
            "bounds": [1.0], "counts": [1, 0], "count": 1, "sum": 0.5,
        }


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("fastpath.payments").inc(41)
        registry.gauge("service.store-bytes").set(2.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_fastpath_payments counter" in text
        assert "repro_fastpath_payments 41" in text  # int: no trailing .0
        assert "repro_service_store_bytes 2.5" in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 5.55" in text
        assert "repro_lat_count 3" in text

    def test_custom_prefix(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        assert "svc_x 1" in registry.render_prometheus(prefix="svc")


class TestNullRegistry:
    def test_shared_singleton_instruments_swallow_updates(self):
        counter = NULL_REGISTRY.counter("anything")
        assert counter is NULL_REGISTRY.counter("something.else")
        counter.inc(1000)
        assert counter.value == 0.0
        gauge = NULL_REGISTRY.gauge("g")
        gauge.set(5)
        assert gauge.value == 0.0
        histogram = NULL_REGISTRY.histogram("h")
        histogram.observe(1.0)
        assert histogram.count == 0

    def test_enabled_flags(self):
        assert MetricsRegistry.enabled is True
        assert NullRegistry.enabled is False


class TestEnvResolution:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        ("", False), ("0", False), ("off", False), ("nope", False),
    ])
    def test_obs_enabled_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_OBS", value)
        assert obs_enabled_from_env() is expected

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
