"""Trace reports: ``python -m repro.telemetry summarize|diff``.

``summarize <trace.jsonl>`` renders a recorded JSONL trace
(``REPRO_TRACE=<path>``) as:

* **top spans** — grouped by span name: count, total/mean/max seconds;
* **per-tenant** — ``service.round`` spans grouped by tenant attribute;
* **per-shard** — ``worker.*`` spans grouped by shard index;
* **per-phase** — spans carrying a ``phase`` attribute (schedule /
  simulate / score / ...) grouped by phase;
* **critical path** — for each ``scheduler.generation`` span, the
  longest-duration child chain (where the generation's wall time went).

``diff <BASE.jsonl> <NEW.jsonl>`` answers what changed between two runs.
Spans are keyed by name plus their ``phase`` or ``stage`` attribute
(``engine.phase[score]``), and each key gets its count, total seconds and
self seconds (duration minus the union of its direct children's
intervals) on each side, ranked by how far its total moved.  A trace that
holds ``pipeline.stage[super_train]`` spans is reported per pipeline, one
such span per pipeline run; a trace without any is reported in raw totals.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..utils.tables import print_table
from .export import read_trace
from .spans import SpanRecord

__all__ = ["main", "summarize", "diff", "diff_rows"]

#: span names whose instances represent one worker shard execution
_WORKER_SPAN_NAMES = ("worker.shard", "worker.gradient_shard")


def _by_name(records: Sequence[SpanRecord]) -> Dict[str, List[SpanRecord]]:
    groups: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in records:
        groups[record.name].append(record)
    return groups


def _grouped_rows(groups: Dict[str, List[SpanRecord]]) -> List[List[object]]:
    rows = []
    for name, spans in groups.items():
        total = sum(s.duration for s in spans)
        rows.append([
            name,
            len(spans),
            total,
            total / len(spans),
            max(s.duration for s in spans),
        ])
    rows.sort(key=lambda row: -row[2])
    return rows


def _critical_path(
    root: SpanRecord, children: Dict[Optional[int], List[SpanRecord]]
) -> List[SpanRecord]:
    path = []
    current = root
    while True:
        kids = children.get(current.span_id)
        if not kids:
            return path
        current = max(kids, key=lambda s: s.duration)
        path.append(current)


def summarize(path: str, top: int = 15, generations: int = 8) -> None:
    records = read_trace(path)
    if not records:
        print(f"{path}: empty trace")
        return
    print(f"{path}: {len(records)} spans")

    groups = _by_name(records)
    print_table(
        ["span", "count", "total s", "mean s", "max s"],
        _grouped_rows(groups)[:top],
        title=f"Top spans by total duration (of {len(groups)} span names)",
    )

    tenants: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in groups.get("service.round", []):
        tenants[str(record.attributes.get("tenant", "?"))].append(record)
    if tenants:
        print_table(
            ["tenant", "rounds", "total s", "mean round s"],
            [
                [
                    tenant,
                    len(rounds),
                    sum(r.duration for r in rounds),
                    sum(r.duration for r in rounds) / len(rounds),
                ]
                for tenant, rounds in sorted(tenants.items())
            ],
            title="Per-tenant service rounds",
        )

    shards: Dict[str, List[SpanRecord]] = defaultdict(list)
    for name in _WORKER_SPAN_NAMES:
        for record in groups.get(name, []):
            shards[str(record.attributes.get("shard", "?"))].append(record)
    if shards:
        print_table(
            ["shard", "executions", "total s", "mean s"],
            [
                [
                    shard,
                    len(spans),
                    sum(s.duration for s in spans),
                    sum(s.duration for s in spans) / len(spans),
                ]
                for shard, spans in sorted(shards.items())
            ],
            title="Per-shard worker executions",
        )

    phases: Dict[str, List[SpanRecord]] = defaultdict(list)
    for record in records:
        phase = record.attributes.get("phase")
        if phase is not None:
            phases[str(phase)].append(record)
    if phases:
        print_table(
            ["phase", "count", "total s", "mean s"],
            [
                [
                    phase,
                    len(spans),
                    sum(s.duration for s in spans),
                    sum(s.duration for s in spans) / len(spans),
                ]
                for phase, spans in sorted(phases.items())
            ],
            title="Per-phase engine breakdown",
        )

    children: Dict[Optional[int], List[SpanRecord]] = defaultdict(list)
    for record in records:
        children[record.parent_id].append(record)
    generation_spans = groups.get("scheduler.generation", [])
    if generation_spans:
        rows = []
        for record in generation_spans[-generations:]:
            chain = _critical_path(record, children)
            rows.append([
                record.attributes.get("generation", "?"),
                record.duration,
                " > ".join(
                    f"{s.name}[{s.duration:.4f}s]" for s in chain
                ) or "(leaf)",
            ])
        print_table(
            ["generation", "wall s", "critical path (longest child chain)"],
            rows,
            title=f"Critical path per generation (last {len(rows)})",
        )


def _span_key(record: SpanRecord) -> str:
    """The span's name plus its ``phase`` or ``stage`` attribute."""
    for attribute in ("phase", "stage"):
        value = record.attributes.get(attribute)
        if value is not None:
            return f"{record.name}[{value}]"
    return record.name


def _self_seconds(record: SpanRecord, kids: Iterable[SpanRecord]) -> float:
    """The span's duration minus the union of its children's intervals."""
    covered = 0.0
    reach = record.start
    for start, end in sorted((kid.start, kid.end) for kid in kids):
        start, end = max(start, reach), min(end, record.end)
        if end > start:
            covered += end - start
            reach = end
    return record.duration - covered


def _per_pipeline(records: Sequence[SpanRecord]) -> Tuple[int, Dict[str, List[float]]]:
    """``(pipelines, {key: [count, total s, self s]})`` of one trace, per
    pipeline when the trace holds pipeline spans, else raw totals."""
    pipelines = sum(
        1 for record in records
        if record.name == "pipeline.stage"
        and record.attributes.get("stage") == "super_train"
    )
    children: Dict[Optional[int], List[SpanRecord]] = defaultdict(list)
    for record in records:
        children[record.parent_id].append(record)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for record in records:
        row = totals[_span_key(record)]
        row[0] += 1
        row[1] += record.duration
        row[2] += _self_seconds(record, children.get(record.span_id, ()))
    scale = 1.0 / pipelines if pipelines else 1.0
    return pipelines, {
        key: [value * scale for value in row] for key, row in totals.items()
    }


def diff_rows(
    base: Sequence[SpanRecord], new: Sequence[SpanRecord]
) -> Tuple[int, int, List[List[object]]]:
    """``(base pipelines, new pipelines, rows)``: one row per span key,
    ``[key, count, count, total s, total s, change, self s, self s,
    change]`` (base before new), ranked by the absolute change in total."""
    base_pipelines, base_totals = _per_pipeline(base)
    new_pipelines, new_totals = _per_pipeline(new)
    absent = [0.0, 0.0, 0.0]
    rows = []
    for key in sorted(set(base_totals) | set(new_totals)):
        count_a, total_a, self_a = base_totals.get(key, absent)
        count_b, total_b, self_b = new_totals.get(key, absent)
        rows.append([key, count_a, count_b, total_a, total_b, total_b - total_a,
                     self_a, self_b, self_b - self_a])
    rows.sort(key=lambda row: -abs(row[5]))
    return base_pipelines, new_pipelines, rows


def diff(base_path: str, new_path: str) -> None:
    base, new = read_trace(base_path), read_trace(new_path)
    base_pipelines, new_pipelines, rows = diff_rows(base, new)
    for path, records, pipelines in (
        (base_path, base, base_pipelines), (new_path, new, new_pipelines)
    ):
        unit = (f"{pipelines} pipelines, per pipeline" if pipelines
                else "no pipeline spans, raw totals")
        print(f"{path}: {len(records)} spans ({unit})")
    print_table(
        ["span", "count A", "count B", "total s A", "total s B", "change s",
         "self s A", "self s B", "self change s"],
        [[row[0], f"{row[1]:.1f}", f"{row[2]:.1f}"] + row[3:] for row in rows],
        title="Spans ranked by change in total (A = base, B = new)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize a REPRO_TRACE JSONL span trace, or diff two.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("summarize", help="render trace breakdowns")
    cmd.add_argument("trace", help="path to the JSONL trace file")
    cmd.add_argument("--top", type=int, default=15,
                     help="span-name rows in the top-spans table")
    cmd.add_argument("--generations", type=int, default=8,
                     help="generations in the critical-path table")
    cmd = commands.add_parser("diff", help="rank span changes between traces")
    cmd.add_argument("base", help="path to the baseline JSONL trace")
    cmd.add_argument("new", help="path to the JSONL trace to compare")
    options = parser.parse_args(argv)
    try:
        if options.command == "diff":
            diff(options.base, options.new)
        else:
            summarize(options.trace, top=options.top,
                      generations=options.generations)
    except BrokenPipeError:
        # reading end closed early (e.g. `... | head`); not an error
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
