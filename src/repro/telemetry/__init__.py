"""Structured tracing + metrics for the sharded co-search stack.

Two instruments over one contract:

* **Spans** (:mod:`~repro.telemetry.spans`) — nested, monotonic-duration
  windows with attributes, recorded to an in-memory ring buffer and
  (with ``REPRO_TRACE=<path>``) appended to a JSONL trace file.  Worker
  processes record their spans into capture buffers that ride home inside
  the existing ``_ShardResult`` payloads and re-parent under the
  dispatching generation span (:func:`adopt_spans`).
* **Metrics** (:mod:`~repro.telemetry.metrics`) — the
  ``engine_phase_seconds{phase=...}`` histogram that :func:`phase_span`
  observes, read through :func:`get_metrics`.  Counts of work done are
  kept once, in the ``MergeableStats`` ledgers that merge across
  processes (``ExecutionStats``, ``SchedulerStats``, the service's
  per-tenant ``TenantStats``), not here.

``python -m repro.telemetry summarize <trace.jsonl>`` renders the top
spans, per-tenant / per-shard / per-phase breakdowns and the critical
path per generation.

**The determinism contract** — the hard rule everything here obeys:
telemetry is observation-only.  No span duration, metric value or clock
reading may flow into scores, seeds, shard assignment or any other result
a search returns.  Enforced three ways: the ``telemetry-flow`` analysis
rule (errors on clock/telemetry values reaching a return statement
outside this package), the bitwise on/off x workers 1/2/4 test matrix in
``tests/telemetry/``, and the <5% tracing-overhead gate in
``benchmarks/bench_execution_engine.py``.

Env vars: ``REPRO_TRACE=<path>`` arms JSONL export at import (main
process only — workers ship their spans home instead of writing).
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from typing import Iterable, List, Optional

from .spans import DEFAULT_BUFFER_SPANS, SpanRecord, Tracer
from .metrics import Histogram, MetricsRegistry
from .export import TraceWriter, read_trace

__all__ = [
    "SpanRecord",
    "Tracer",
    "Histogram",
    "MetricsRegistry",
    "TraceWriter",
    "read_trace",
    "DEFAULT_BUFFER_SPANS",
    "get_tracer",
    "get_metrics",
    "span",
    "event",
    "capture",
    "adopt_spans",
    "current_span_id",
    "phase_span",
    "configure",
    "disable",
    "reset",
    "tracing_requested",
]

_TRACER = Tracer()
_METRICS = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-global tracer all instrumentation records into."""
    return _TRACER


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


# -- thin conveniences over the global tracer --------------------------------

def span(name: str, **attributes):
    """Open a nested span on the global tracer (no-op when inactive)."""
    return _TRACER.span(name, **attributes)


def event(name: str, **attributes) -> None:
    """Record a point event (retry, respawn, deadline...) on the tracer."""
    _TRACER.event(name, **attributes)


def capture():
    """Collect every span finished while open (the worker-side buffer)."""
    return _TRACER.capture()


def adopt_spans(
    records: Iterable[SpanRecord], parent_id: Optional[int] = None
) -> List[SpanRecord]:
    """Re-id worker records into the global tracer under the open span."""
    return _TRACER.adopt(records, parent_id=parent_id)


def current_span_id() -> Optional[int]:
    return _TRACER.current_span_id()


@contextmanager
def phase_span(name: str, phase: str, **attributes):
    """A span that also feeds the ``engine_phase_seconds`` histogram.

    The duration read happens *here*, inside the telemetry package, so
    instrumented engine code never touches a clock value — keeping every
    call site clean under the ``telemetry-flow`` rule.  When the tracer is
    inactive this is a bare yield: no clock reads, no allocation.
    """
    if not _TRACER.active:
        yield
        return
    with _TRACER.span(name, phase=phase, **attributes) as active:
        yield
    _METRICS.histogram("engine_phase_seconds", phase=phase).observe(
        active.record.duration
    )


# -- configuration -----------------------------------------------------------

def tracing_requested() -> Optional[str]:
    """The ``REPRO_TRACE`` trace-file path, or None when unset/empty."""
    return os.environ.get("REPRO_TRACE") or None


def configure(
    trace_path: Optional[str] = None, enabled: bool = True
) -> Tracer:
    """Enable recording, optionally attaching a JSONL writer."""
    if _TRACER.writer is not None:
        _TRACER.writer.close()
    _TRACER.writer = TraceWriter(trace_path) if trace_path else None
    _TRACER.enabled = bool(enabled)
    return _TRACER


def disable() -> None:
    """Stop recording and detach/close any trace writer."""
    if _TRACER.writer is not None:
        _TRACER.writer.close()
    _TRACER.writer = None
    _TRACER.enabled = False


def reset() -> None:
    """Drop recorded spans and metrics (keeps enabled/writer state)."""
    _TRACER.reset()
    _METRICS.reset()


# Arm JSONL export when REPRO_TRACE is set — main process only: worker
# processes (fork or spawn) must never write the parent's trace file; their
# spans ride home inside shard-result payloads instead (export.py documents
# the two PID guards backing this up).
if tracing_requested() and multiprocessing.parent_process() is None:
    configure(trace_path=tracing_requested())
