"""Metrics: labelled duration histograms.

A :class:`MetricsRegistry` hands out :class:`Histogram` instruments keyed
by ``(name, sorted label items)`` — the Prometheus data model, minus the
scrape server.  Its one family is ``engine_phase_seconds{phase=...}``,
which :func:`repro.telemetry.phase_span` observes while the tracer is
active.  Counts of work done (candidates, cache hits, shard retries,
tenant consumption) are not kept here: they live in the ``MergeableStats``
ledgers, which merge across worker processes, and every report reads them
there.

Observation-only, like everything in :mod:`repro.telemetry`: no metric
value may flow back into scores, seeds or scheduling (the
``telemetry-flow`` analysis rule errors on such flows outside this
package).
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["Histogram", "MetricsRegistry"]

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


class Histogram:
    """Count and sum of observed values."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Histograms keyed by name and labels."""

    def __init__(self) -> None:
        self._histograms: Dict[_Key, Histogram] = {}

    def histogram(self, name: str, **labels) -> Histogram:
        key = name, tuple(sorted((k, str(v)) for k, v in labels.items()))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def reset(self) -> None:
        self._histograms.clear()
