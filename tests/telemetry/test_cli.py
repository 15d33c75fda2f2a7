"""The ``python -m repro.telemetry summarize`` and ``diff`` trace reports."""

from __future__ import annotations

import pytest

from repro.telemetry.__main__ import diff_rows, main, summarize
from repro.telemetry.export import TraceWriter, read_trace
from repro.telemetry.spans import SpanRecord, Tracer


@pytest.fixture
def trace_path(tmp_path):
    """A small synthetic trace with every summarizable span family."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    tracer.enabled = True
    tracer.writer = TraceWriter(path)
    with tracer.span("service.round", tenant="tenant-a", round=0):
        with tracer.span("engine.population", kind="qml", candidates=4):
            with tracer.span("scheduler.generation", generation=0, shards=2):
                with tracer.span("worker.shard", shard=0):
                    with tracer.span("engine.phase", phase="simulate"):
                        pass
                with tracer.span("worker.shard", shard=1):
                    with tracer.span("engine.phase", phase="score"):
                        pass
    with tracer.span("service.round", tenant="tenant-b", round=1):
        pass
    tracer.writer.close()
    return path


class TestSummarize:
    def test_reports_every_breakdown(self, trace_path, capsys):
        summarize(trace_path)
        out = capsys.readouterr().out
        assert "Top spans by total duration" in out
        assert "Per-tenant service rounds" in out
        assert "tenant-a" in out and "tenant-b" in out
        assert "Per-shard worker executions" in out
        assert "Per-phase engine breakdown" in out
        assert "simulate" in out and "score" in out
        assert "Critical path per generation" in out
        assert "worker.shard" in out

    def test_main_entrypoint_parses_args(self, trace_path, capsys):
        assert main(["summarize", trace_path, "--top", "3"]) == 0
        assert "spans" in capsys.readouterr().out

    def test_empty_trace_is_reported_not_crashed(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summarize(str(path))
        assert "empty trace" in capsys.readouterr().out


def write_spans(path, spans):
    """Write ``(name, span_id, parent_id, start, end, attributes)`` rows."""
    writer = TraceWriter(str(path))
    for name, span_id, parent_id, start, end, attributes in spans:
        writer.write(SpanRecord(name, span_id, parent_id, start, end, attributes))
    writer.close()
    return str(path)


@pytest.fixture
def diff_traces(tmp_path):
    """A two-pipeline base trace and a new trace without pipeline spans."""
    base = []
    for pipeline in range(2):
        o, ids = 10.0 * pipeline, 10 * pipeline
        base += [
            ("pipeline.stage", ids + 1, None, o, o + 1.0, {"stage": "super_train"}),
            # overlapping children: their union covers 0.5 s of the stage
            ("train.step", ids + 2, ids + 1, o + 0.1, o + 0.4, {"step": 0}),
            ("train.step", ids + 3, ids + 1, o + 0.3, o + 0.6, {"step": 1}),
            ("pipeline.stage", ids + 4, None, o + 1.0, o + 3.0, {"stage": "co_search"}),
            ("engine.phase", ids + 5, ids + 4, o + 1.5, o + 2.0, {"phase": "score"}),
        ]
    new = [
        ("engine.phase", 1, None, 0.0, 0.25, {"phase": "score"}),
        ("engine.phase", 2, None, 1.0, 1.25, {"phase": "score"}),
        ("engine.phase", 3, None, 2.0, 3.5, {"phase": "simulate"}),
        # a child that outlives its parent covers only the parent's part
        ("backend.synchronize", 4, 3, 3.0, 4.0, {"backend": "density"}),
    ]
    return (write_spans(tmp_path / "base.jsonl", base),
            write_spans(tmp_path / "new.jsonl", new))


class TestDiff:
    def test_rows_per_pipeline_and_raw_totals(self, diff_traces):
        base_path, new_path = diff_traces
        base_pipelines, new_pipelines, rows = diff_rows(
            read_trace(base_path), read_trace(new_path)
        )
        assert (base_pipelines, new_pipelines) == (2, 0)
        expected = {
            # key: count A, count B, total A, total B, self A, self B
            "pipeline.stage[co_search]": (1, 0, 2.0, 0.0, 1.5, 0.0),
            "engine.phase[simulate]": (0, 1, 0.0, 1.5, 0.0, 1.0),
            "backend.synchronize": (0, 1, 0.0, 1.0, 0.0, 1.0),
            "pipeline.stage[super_train]": (1, 0, 1.0, 0.0, 0.5, 0.0),
            "train.step": (2, 0, 0.6, 0.0, 0.6, 0.0),
            "engine.phase[score]": (1, 2, 0.5, 0.5, 0.5, 0.5),
        }
        assert [row[0] for row in rows] == list(expected)
        for key, count_a, count_b, total_a, total_b, change, self_a, self_b, \
                self_change in rows:
            want = expected[key]
            assert (count_a, count_b) == pytest.approx(want[:2])
            assert (total_a, total_b, self_a, self_b) == pytest.approx(
                (want[2], want[3], want[4], want[5])
            )
            assert change == pytest.approx(want[3] - want[2])
            assert self_change == pytest.approx(want[5] - want[4])

    def test_main_entrypoint_prints_the_ranking(self, diff_traces, capsys):
        base_path, new_path = diff_traces
        assert main(["diff", base_path, new_path]) == 0
        out = capsys.readouterr().out
        assert "2 pipelines, per pipeline" in out
        assert "no pipeline spans, raw totals" in out
        first = out.index("pipeline.stage[co_search]")
        assert first < out.index("engine.phase[simulate]") < out.index("train.step")
