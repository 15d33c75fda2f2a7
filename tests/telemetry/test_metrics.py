"""MetricsRegistry semantics: the histogram, label keying, reset."""

from __future__ import annotations

from repro import telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.utils import clock


class TestInstruments:
    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("phase_seconds", phase="simulate")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0

    def test_new_histogram_is_empty(self):
        histogram = MetricsRegistry().histogram("x")
        assert histogram.count == 0
        assert histogram.total == 0.0

    def test_phase_span_observes_its_duration(self, clean_telemetry):
        readings = iter([10.0, 10.25])
        clock.set_clock(lambda: next(readings))
        telemetry.configure(enabled=True)
        try:
            with telemetry.phase_span("engine.phase", phase="bind"):
                pass
        finally:
            clock.reset_clock()
        histogram = telemetry.get_metrics().histogram(
            "engine_phase_seconds", phase="bind"
        )
        assert histogram.count == 1
        assert histogram.total == 0.25

    def test_inactive_phase_span_observes_nothing(self, clean_telemetry):
        with telemetry.phase_span("engine.phase", phase="bind"):
            pass
        histogram = telemetry.get_metrics().histogram(
            "engine_phase_seconds", phase="bind"
        )
        assert histogram.count == 0


class TestKeying:
    def test_same_labels_return_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.histogram("seconds", tenant="qml", phase="bind")
        b = registry.histogram("seconds", phase="bind", tenant="qml")
        assert a is b

    def test_label_values_key_by_their_text(self):
        registry = MetricsRegistry()
        assert registry.histogram("seconds", shard=1) is registry.histogram(
            "seconds", shard="1"
        )

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        registry.histogram("seconds", phase="a").observe(1.0)
        registry.histogram("seconds", phase="b").observe(5.0)
        assert registry.histogram("seconds", phase="a").total == 1.0
        assert registry.histogram("seconds", phase="b").total == 5.0
        assert registry.histogram("seconds").count == 0


class TestReset:
    def test_reset_clears_every_series(self):
        registry = MetricsRegistry()
        before = registry.histogram("seconds", phase="bind")
        before.observe(0.5)
        registry.reset()
        after = registry.histogram("seconds", phase="bind")
        assert after is not before
        assert after.count == 0
        assert after.total == 0.0
