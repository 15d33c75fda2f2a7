"""Metrics: labelled counters and histograms with text export.

A :class:`MetricsRegistry` hands out instruments keyed by
``(name, sorted label items)`` — the Prometheus data model, minus the
scrape server: ``snapshot()`` returns a plain nested dict (what
``examples/service_demo.py`` renders its accounting table from) and
``render_prometheus()`` emits the standard text exposition format for
anything that wants to scrape or diff it.

Instruments are deliberately tiny — one dict lookup plus one float op per
update — so the registry can stay always-on (per-tenant service counters,
per-backend job counters) without measurable cost on the hot path; only
the duration *observations* (phase histograms) are gated on the tracer
being active, because they require clock reads.

Observation-only, like everything in :mod:`repro.telemetry`: no metric
value may flow back into scores, seeds or scheduling (the
``telemetry-flow`` analysis rule errors on such flows outside this
package).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> _Key:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing float."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Summary statistics of observed values (count/sum/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Instrument factory + snapshot/exposition surface."""

    def __init__(self) -> None:
        self._counters: Dict[_Key, Counter] = {}
        self._histograms: Dict[_Key, Histogram] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels) -> Optional[float]:
        """The current value of a counter, or None if unknown."""
        counter = self._counters.get(_key(name, labels))
        return None if counter is None else counter.value

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Plain-dict view: ``{kind: {name: {label_string: value}}}``."""

        def label_string(labels: Tuple[Tuple[str, str], ...]) -> str:
            return ",".join(f"{k}={v}" for k, v in labels) or ""

        out: Dict[str, Dict[str, Dict[str, object]]] = {
            "counters": {}, "histograms": {},
        }
        for (name, labels), counter in sorted(self._counters.items()):
            out["counters"].setdefault(name, {})[label_string(labels)] = (
                counter.value
            )
        for (name, labels), histogram in sorted(self._histograms.items()):
            out["histograms"].setdefault(name, {})[label_string(labels)] = {
                "count": histogram.count,
                "sum": histogram.total,
                "min": histogram.min if histogram.count else None,
                "max": histogram.max if histogram.count else None,
                "mean": histogram.mean,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (sorted, stable)."""

        def fmt(name: str, labels: Tuple[Tuple[str, str], ...],
                suffix: str = "") -> str:
            body = ",".join(f'{k}="{v}"' for k, v in labels)
            return f"{name}{suffix}{{{body}}}" if body else f"{name}{suffix}"

        lines: List[str] = []
        for (name, labels), counter in sorted(self._counters.items()):
            lines.append(f"{fmt(name, labels)} {counter.value}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            lines.append(f"{fmt(name, labels, '_count')} {histogram.count}")
            lines.append(f"{fmt(name, labels, '_sum')} {histogram.total}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()
