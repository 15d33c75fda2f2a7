"""MetricsRegistry semantics: instruments, label keying, snapshot, export."""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", backend="noise_sim")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("jobs_total", backend="noise_sim") == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("phase_seconds", phase="simulate")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_empty_histogram_mean_is_zero(self):
        assert MetricsRegistry().histogram("x").mean == 0.0


class TestKeying:
    def test_same_labels_return_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", tenant="qml", kind="bound")
        b = registry.counter("hits", kind="bound", tenant="qml")
        assert a is b

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("hits", tenant="a").inc()
        registry.counter("hits", tenant="b").inc(5)
        assert registry.value("hits", tenant="a") == 1
        assert registry.value("hits", tenant="b") == 5

    def test_unknown_series_reads_none(self):
        assert MetricsRegistry().value("nope", tenant="x") is None


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", tenant="qml").inc(2)
        registry.histogram("seconds", phase="bind").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["jobs_total"] == {"tenant=qml": 2.0}
        assert snap["histograms"]["seconds"]["phase=bind"] == {
            "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5, "mean": 0.5,
        }

    def test_render_prometheus_lines(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", tenant="qml").inc(2)
        registry.histogram("seconds", phase="bind").observe(0.5)
        text = registry.render_prometheus()
        assert 'jobs_total{tenant="qml"} 2.0' in text
        assert 'seconds_count{phase="bind"} 1' in text
        assert 'seconds_sum{phase="bind"} 0.5' in text
        assert text.endswith("\n")

    def test_reset_clears_every_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc()
        registry.reset()
        assert registry.value("jobs_total") is None
        assert registry.snapshot() == {"counters": {}, "histograms": {}}
