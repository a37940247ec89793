"""Unit tests for the metrics instruments and registry."""

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    set_default_registry,
    timed,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = Counter("infringements_total")
        counter.inc(kind="invalid-execution")
        counter.inc(3, kind="unknown-purpose")
        assert counter.value(kind="invalid-execution") == 1
        assert counter.value(kind="unknown-purpose") == 3
        assert counter.value(kind="other") == 0
        assert counter.total == 4

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("open_cases")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4

    def test_labels(self):
        gauge = Gauge("monitor_cases")
        gauge.set(3, state="open")
        gauge.set(1, state="infringing")
        gauge.dec(state="open")
        assert gauge.value(state="open") == 2
        assert gauge.value(state="infringing") == 1


class TestHistogram:
    def test_count_sum_max(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == 555.5
        assert histogram.summary()["max"] == 500.0

    def test_bucket_assignment_is_cumulative_at_export(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(2.0)
        histogram.observe(99.0)  # +Inf bucket
        data = histogram.samples()[()]
        assert data["buckets"] == [1, 1, 1]

    def test_quantiles_are_bucket_interpolated(self):
        histogram = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for _ in range(10):
            histogram.observe(5.0)   # all in the first bucket
        # p50 = rank 5 of 10 inside (0, 10] -> 5.0 by linear interpolation
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("h").quantile(0.95) == 0.0

    def test_summary_shape(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        summary = histogram.summary()
        assert set(summary) == {"count", "sum", "p50", "p95", "p99", "max"}
        assert summary["count"] == 1

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_timed_context_manager_observes_duration(self):
        histogram = Histogram("h")
        with timed(histogram):
            pass
        assert histogram.count() == 1
        assert histogram.sum() >= 0.0

    def test_histogram_time_method(self):
        histogram = Histogram("h")
        with histogram.time(op="x"):
            pass
        assert histogram.count(op="x") == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_clash_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_collect_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert [i.name for i in registry.collect()] == ["b", "a"]

    def test_labeled_histogram_samples_keep_exemplars(self):
        """Every labeled series of a histogram keeps its own bucket
        counts, sum, max and exemplars."""
        registry = MetricsRegistry()
        latency = registry.histogram(
            "lat_seconds", "per-shard latency", buckets=(0.001, 0.01, 0.1)
        )
        for value in (0.0005, 0.005, 0.05, 0.002):
            latency.observe(value, shard="shard-0")
        latency.observe(0.02, shard="shard-1")
        latency.observe_with_exemplar(
            0.09, "ab" * 16, "cd" * 8, shard="shard-1"
        )

        samples = registry.get("lat_seconds").samples()
        zero = samples[(("shard", "shard-0"),)]
        one = samples[(("shard", "shard-1"),)]
        assert zero["count"] == 4
        assert zero["sum"] == pytest.approx(0.0005 + 0.005 + 0.05 + 0.002)
        # buckets are per-bin (cumulated at export): [<=1ms, <=10ms, <=100ms, +Inf]
        assert zero["buckets"] == [1, 2, 1, 0]
        assert zero["exemplars"] == {}
        assert one["count"] == 2
        assert one["max"] == pytest.approx(0.09)
        exemplar = one["exemplars"][2]  # 0.09 lands in the <=0.1 bin
        assert exemplar["trace_id"] == "ab" * 16
        assert exemplar["span_id"] == "cd" * 8

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
        finally:
            set_default_registry(previous)


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        registry = NullRegistry()
        counter = registry.counter("anything")
        assert counter is registry.counter("other")  # shared singleton
        counter.inc()
        counter.inc(5, kind="x")
        assert counter.value() == 0.0
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc()
        assert gauge.value() == 0.0
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        with histogram.time():
            pass
        assert histogram.count() == 0
        assert registry.collect() == []
        assert not registry.enabled

    def test_timed_on_null_histogram_never_reads_clock(self, monkeypatch):
        import repro.obs.metrics as metrics_module

        def boom():  # pragma: no cover - should never run
            raise AssertionError("perf_counter read on the disabled path")

        monkeypatch.setattr(metrics_module.time, "perf_counter", boom)
        with timed(NULL_REGISTRY.histogram("h")):
            pass
