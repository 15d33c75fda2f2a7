"""Outside-in per-layer tracing for the benchmark's traced run.

:class:`Probes` wraps the public entry point of each layer in a
``repro.telemetry.span(...)`` — pipeline stages, training gradients, the
evolution step, population evaluation, the simulation backends and the
deploy backend — and restores the originals on exit.  Nothing in ``src/``
changes.  Worker processes of a sharded co-search are forked while the
probes are installed, so their backend spans ride home inside shard
results like the program's own spans do.

:func:`pipeline_sums` turns one traced pipeline's span records, plus the
counters the program already keeps (``ExecutionStats``,
``TranspileCacheStats``, ``ParametricCacheStats``, ``SchedulerStats`` and
the ``engine_phase_seconds`` histogram), into raw sums; :func:`finish`
turns the sums of every traced pipeline of a run into the per-layer
metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.backends.density import DensityMatrixBackend
from repro.backends.statevector import StatevectorBackend
from repro.core import pipeline as core_pipeline
from repro.core.estimator import PerformanceEstimator
from repro.core.evolution import SearchRun
from repro.devices.backend import QuantumBackend
from repro.execution.engine import ExecutionEngine
from repro.execution.scheduler import ShardedExecutionEngine
from repro.qml.qnn import QNNModel
from repro.vqe.vqe import VQEModel

__all__ = ["PER_LAYER", "STAGES", "PHASES", "Probes", "pipeline_sums", "finish",
           "span_table"]

STAGES = ("super_train", "co_search", "sub_train", "prune", "deploy")
PHASES = ("schedule", "simulate", "score")

#: every per-layer metric the traced run reports, with its unit
PER_LAYER: List[Tuple[str, str]] = (
    [(f"stage.{stage}_s", "s") for stage in STAGES]
    + [
        ("stage.unaccounted_s", "s"),
        ("train.grad_calls", "count"),
        ("train.grad_s", "s"),
        ("train.grad_ms_per_call", "ms"),
        ("evolution.generations", "count"),
        ("evolution.candidates_scored", "count"),
        ("evolution.unique_ratio", "ratio"),
        ("evolution.self_s", "s"),
        ("engine.populations", "count"),
        ("engine.population_s", "s"),
        ("engine.candidates_per_s", "1/s"),
    ]
    + [(f"engine.phase.{phase}_s", "s") for phase in PHASES]
    + [
        ("cache.bound.hit_rate", "ratio"),
        ("cache.bound.misses", "count"),
        ("cache.bound.compile_s", "s"),
        ("cache.parametric.structure_hit_rate", "ratio"),
        ("cache.parametric.structure_misses", "count"),
        ("cache.parametric.variants_compiled", "count"),
        ("cache.parametric.compile_s", "s"),
        ("cache.parametric.bind_s", "s"),
        ("cache.parametric.fallback_rate", "ratio"),
        ("backends.density.synchronize_s", "s"),
        ("backends.density.run_group_s", "s"),
        ("backends.density.circuits", "count"),
        ("backends.density.template_batches", "count"),
        ("backends.density.ms_per_circuit", "ms"),
        ("backends.statevector.run_group_s", "s"),
        ("backends.statevector.batches", "count"),
        ("deploy.runs", "count"),
        ("deploy.s", "s"),
        ("scheduler.sharded_generations", "count"),
        ("scheduler.degraded_generations", "count"),
        ("scheduler.shards_dispatched", "count"),
        ("scheduler.worker_failures", "count"),
        ("scheduler.retried_shards", "count"),
        ("scheduler.worker_busy_s", "s"),
        ("scheduler.parallel_efficiency", "ratio"),
        ("scheduler.dispatch_overhead_s", "s"),
        ("scheduler.adopted_structures", "count"),
        ("scheduler.adopted_bound_entries", "count"),
        ("scheduler.speedup_vs_w1", "ratio"),
        ("telemetry.trace_overhead", "ratio"),
        ("telemetry.spans", "count"),
    ]
)

_SCHEDULER_FIELDS = (
    "sharded_generations", "degraded_generations", "shards_dispatched",
    "worker_failures", "retried_shards", "adopted_structures",
    "adopted_bound_entries",
)


# ---------------------------------------------------------------------------
# Wrapping entry points
# ---------------------------------------------------------------------------


def _spanned(fn, name, before=None, after=None):
    """``fn`` inside a span; ``before``/``after`` compute its attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attributes = before(*args, **kwargs) if before else {}
        with telemetry.span(name, **attributes) as active:
            out = fn(*args, **kwargs)
            if after:
                active.set(**after(out, *args))
            return out

    return wrapper


def _step_attributes(run: SearchRun, *args, **kwargs) -> dict:
    if run.done:
        return {"slots": 0, "pending": 0}
    genes = {tuple(candidate.gene()) for candidate in run.population}
    return {
        "slots": len(run.population),
        "pending": sum(gene not in run.cache for gene in genes),
    }


def _population_attributes(engine, candidates, *args, **kwargs) -> dict:
    return {"candidates": len(candidates)}


def _shard_attributes(out, engine, *args) -> dict:
    reports = engine.last_shard_reports
    elapsed = [float(report["elapsed_seconds"]) for report in reports]
    return {
        "workers": engine.workers,
        "shards": len(reports),
        "busy_s": sum(elapsed),
        "slowest_shard_s": max(elapsed, default=0.0),
    }


class Probes:
    """Spans around each layer's entry points while the context is open."""

    def __init__(self) -> None:
        #: population engines the pipeline created (their stats are read
        #: after the run)
        self.engines: List[ExecutionEngine] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _span(self, owner, attribute: str, name: str, before=None,
              after=None) -> None:
        original = owner.__dict__[attribute]
        self._patch(owner, attribute, _spanned(original, name, before, after))

    def __enter__(self) -> "Probes":
        qml = core_pipeline.QuantumNASQMLPipeline
        vqe = core_pipeline.QuantumNASVQEPipeline
        for owner, attribute, stage in [
            (qml, "train_supercircuit", "super_train"),
            (core_pipeline, "train_supercircuit_vqe", "super_train"),
            (qml, "co_search", "co_search"),
            (vqe, "co_search", "co_search"),
            (qml, "train_best", "sub_train"),
            (core_pipeline, "train_subcircuit_vqe", "sub_train"),
            (core_pipeline, "iterative_prune_qnn", "prune"),
            (core_pipeline, "iterative_prune_vqe", "prune"),
            (qml, "evaluate", "deploy"),
            (vqe, "measure", "deploy"),
        ]:
            self._span(owner, attribute, f"bench.stage.{stage}")
        self._span(QNNModel, "loss_and_gradient", "bench.train.grad")
        self._span(VQEModel, "energy_and_gradient", "bench.train.grad")
        self._span(SearchRun, "step", "bench.evolution.step",
                   before=_step_attributes,
                   after=lambda ran, run: {"ran": bool(ran)})
        for method in ("evaluate_qml_population", "evaluate_vqe_population"):
            self._span(ExecutionEngine, method, "bench.engine.population",
                       before=_population_attributes)
            self._span(ShardedExecutionEngine, method,
                       "bench.engine.population",
                       before=_population_attributes, after=_shard_attributes)
        self._span(DensityMatrixBackend, "run_group", "bench.density.run_group")
        self._span(DensityMatrixBackend, "synchronize",
                   "bench.density.synchronize")
        self._span(StatevectorBackend, "run_group",
                   "bench.statevector.run_group")
        self._span(QuantumBackend, "run", "bench.backend.run")
        self._span(QuantumBackend, "run_parameterized", "bench.backend.run")

        original = PerformanceEstimator.__dict__["population_engine"]

        @functools.wraps(original)
        def population_engine(estimator, supercircuit):
            engine = original(estimator, supercircuit)
            self.engines.append(engine)
            return engine

        self._patch(PerformanceEstimator, "population_engine", population_engine)
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False


# ---------------------------------------------------------------------------
# Span-tree arithmetic
# ---------------------------------------------------------------------------


class _Tree:
    def __init__(self, records: Sequence) -> None:
        self.records = list(records)
        self.by_id = {record.span_id: record for record in self.records}
        self.children: Dict[Optional[int], List] = defaultdict(list)
        for record in self.records:
            self.children[record.parent_id].append(record)

    def ancestors(self, record) -> Iterable:
        parent = self.by_id.get(record.parent_id)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent_id)

    def named(self, name: str, outermost: bool = True) -> List:
        """Spans called ``name``; by default only those not nested in one."""
        return [
            record for record in self.records
            if record.name == name
            and not (outermost and any(a.name == name for a in self.ancestors(record)))
        ]

    def self_seconds(self, record) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted(
            (max(child.start, record.start), min(child.end, record.end))
            for child in self.children.get(record.span_id, ())
        )
        covered, cursor = 0.0, record.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return record.duration - covered


def _total(records: Iterable, field: Optional[str] = None) -> float:
    if field is None:
        return sum(record.duration for record in records)
    return sum(float(record.attributes.get(field, 0.0)) for record in records)


def pipeline_sums(records: Sequence, phase_seconds: Dict[str, float],
                  engines: Sequence, pipeline, pipeline_s: float) -> Dict[str, float]:
    """Raw per-layer sums of one traced pipeline run.

    ``phase_seconds`` is this run's ``engine_phase_seconds`` histogram sum
    per phase, observed in this process; worker-side phase spans are added
    here from the shipped-home records.
    """
    tree = _Tree(records)
    sums: Dict[str, float] = defaultdict(float)
    sums["pipelines"] = 1
    sums["pipeline_s"] = pipeline_s
    sums["spans"] = len(tree.records)
    for stage in STAGES:
        sums[f"stage.{stage}_s"] = _total(tree.named(f"bench.stage.{stage}"))

    grads = tree.named("bench.train.grad")
    sums["grad_calls"] = len(grads)
    sums["grad_s"] = _total(grads)

    steps = [r for r in tree.named("bench.evolution.step") if r.attributes.get("ran")]
    sums["generations"] = len(steps)
    sums["pending"] = _total(steps, "pending")
    sums["slots"] = _total(steps, "slots")
    sums["step_self_s"] = sum(tree.self_seconds(step) for step in steps)

    populations = tree.named("bench.engine.population")
    sums["populations"] = len(populations)
    sums["population_s"] = _total(populations)
    sums["population_candidates"] = _total(populations, "candidates")
    sharded = [r for r in populations if r.attributes.get("shards", 0) > 0]
    sums["busy_s"] = _total(sharded, "busy_s")
    sums["shard_capacity_s"] = sum(
        r.duration * float(r.attributes["workers"]) for r in sharded
    )
    sums["dispatch_overhead_s"] = sum(
        r.duration - float(r.attributes["slowest_shard_s"]) for r in sharded
    )

    for phase in PHASES:
        sums[f"phase.{phase}_s"] = phase_seconds.get(phase, 0.0)
    for record in tree.named("engine.phase", outermost=False):
        if any(a.name == "worker.shard" for a in tree.ancestors(record)):
            sums[f"phase.{record.attributes.get('phase')}_s"] += record.duration

    sums["density_run_group_s"] = _total(tree.named("bench.density.run_group"))
    sums["density_sync_s"] = _total(tree.named("bench.density.synchronize"))
    sums["sv_run_group_s"] = _total(tree.named("bench.statevector.run_group"))
    for key in ["density_circuits", "template_batches", "sv_batches"] + [
        f"scheduler.{field}" for field in _SCHEDULER_FIELDS
    ]:
        sums[key] = 0.0
    for engine in engines:
        sums["density_circuits"] += engine.stats.density_circuits
        sums["template_batches"] += engine.stats.template_batches
        sums["sv_batches"] += engine.stats.statevector_batches
        scheduler = getattr(engine, "scheduler_stats", None)
        if scheduler is not None:
            for field in _SCHEDULER_FIELDS:
                sums[f"scheduler.{field}"] += getattr(scheduler, field)

    deploys = [
        record for record in tree.named("bench.backend.run")
        if any(a.name == "bench.stage.deploy" for a in tree.ancestors(record))
    ]
    sums["deploy_runs"] = len(deploys)
    sums["deploy_s"] = _total(deploys)

    bound = pipeline.estimator.transpile_cache.stats
    sums["bound_hits"] = bound.hits
    sums["bound_misses"] = bound.misses
    sums["bound_compile_s"] = bound.compile_seconds
    parametric = pipeline.estimator.parametric_transpile_cache.stats
    sums["structure_hits"] = parametric.structure_hits
    sums["structure_misses"] = parametric.structure_misses
    sums["variants_compiled"] = parametric.variants_compiled
    sums["parametric_compile_s"] = parametric.compile_seconds
    sums["parametric_bind_s"] = parametric.bind_seconds
    sums["fallbacks"] = parametric.fallbacks
    sums["bind_requests"] = parametric.bind_requests
    return dict(sums)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def finish(sums: Dict[str, float], trace_overhead: float,
           speedup_vs_w1: float) -> Dict[str, float]:
    """Per-layer metrics (per traced pipeline) from the summed raw sums."""
    n = sums["pipelines"]
    stage_total = sum(sums[f"stage.{stage}_s"] for stage in STAGES)
    metrics = {f"stage.{stage}_s": sums[f"stage.{stage}_s"] / n for stage in STAGES}
    metrics.update({
        "stage.unaccounted_s": (sums["pipeline_s"] - stage_total) / n,
        "train.grad_calls": sums["grad_calls"] / n,
        "train.grad_s": sums["grad_s"] / n,
        "train.grad_ms_per_call": 1e3 * _ratio(sums["grad_s"], sums["grad_calls"]),
        "evolution.generations": sums["generations"] / n,
        "evolution.candidates_scored": sums["pending"] / n,
        "evolution.unique_ratio": _ratio(sums["pending"], sums["slots"]),
        "evolution.self_s": sums["step_self_s"] / n,
        "engine.populations": sums["populations"] / n,
        "engine.population_s": sums["population_s"] / n,
        "engine.candidates_per_s": _ratio(
            sums["population_candidates"], sums["population_s"]
        ),
    })
    for phase in PHASES:
        metrics[f"engine.phase.{phase}_s"] = sums[f"phase.{phase}_s"] / n
    density_s = sums["density_run_group_s"] + sums["density_sync_s"]
    metrics.update({
        "cache.bound.hit_rate": _ratio(
            sums["bound_hits"], sums["bound_hits"] + sums["bound_misses"]
        ),
        "cache.bound.misses": sums["bound_misses"] / n,
        "cache.bound.compile_s": sums["bound_compile_s"] / n,
        "cache.parametric.structure_hit_rate": _ratio(
            sums["structure_hits"],
            sums["structure_hits"] + sums["structure_misses"],
        ),
        "cache.parametric.structure_misses": sums["structure_misses"] / n,
        "cache.parametric.variants_compiled": sums["variants_compiled"] / n,
        "cache.parametric.compile_s": sums["parametric_compile_s"] / n,
        "cache.parametric.bind_s": sums["parametric_bind_s"] / n,
        "cache.parametric.fallback_rate": _ratio(
            sums["fallbacks"], sums["bind_requests"]
        ),
        "backends.density.synchronize_s": sums["density_sync_s"] / n,
        "backends.density.run_group_s": sums["density_run_group_s"] / n,
        "backends.density.circuits": sums["density_circuits"] / n,
        "backends.density.template_batches": sums["template_batches"] / n,
        "backends.density.ms_per_circuit": 1e3 * _ratio(
            density_s, sums["density_circuits"]
        ),
        "backends.statevector.run_group_s": sums["sv_run_group_s"] / n,
        "backends.statevector.batches": sums["sv_batches"] / n,
        "deploy.runs": sums["deploy_runs"] / n,
        "deploy.s": sums["deploy_s"] / n,
    })
    for field in _SCHEDULER_FIELDS:
        metrics[f"scheduler.{field}"] = sums[f"scheduler.{field}"] / n
    metrics.update({
        "scheduler.worker_busy_s": sums["busy_s"] / n,
        "scheduler.parallel_efficiency": _ratio(
            sums["busy_s"], sums["shard_capacity_s"]
        ),
        "scheduler.dispatch_overhead_s": sums["dispatch_overhead_s"] / n,
        "scheduler.speedup_vs_w1": speedup_vs_w1,
        "telemetry.trace_overhead": trace_overhead,
        "telemetry.spans": sums["spans"] / n,
    })
    return metrics


def span_table(records: Sequence, pipelines: int,
               pipeline_s: float) -> List[List[object]]:
    """Rows of the per-layer table: seconds per pipeline, total and self."""
    tree = _Tree(records)
    rows = []
    for name in sorted({record.name for record in tree.records}):
        spans = tree.named(name, outermost=False)
        total = _total(tree.named(name))
        self_s = sum(tree.self_seconds(record) for record in spans)
        rows.append([
            name,
            len(spans) / pipelines,
            total / pipelines,
            self_s / pipelines,
            _ratio(self_s, pipeline_s),
        ])
    rows.sort(key=lambda row: -row[3])
    return rows
