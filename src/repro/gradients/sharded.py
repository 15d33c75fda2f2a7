"""Sharded multi-process parameter-shift gradient evaluation.

:class:`ShardedGradientEngine` is the gradient adapter over the shard
runtime (:mod:`repro.execution.shards`, whose module docstring holds the
determinism contract): the unit is one weight row, shards are an
``np.array_split`` over the global row indices, and each gradient step is
one generation.  Every worker owns a sequential-mode
:class:`~repro.gradients.engine.BatchedGradientEngine` whose caches stay
warm across training epochs; its new cache entries and counter deltas merge
back into the parent engine after every step.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from .. import telemetry
from ..execution.faults import FaultPlan
from ..execution.shards import ShardRuntime
from .engine import BatchedGradientEngine, GradientEngineConfig

__all__ = ["ShardedGradientEngine", "make_gradient_engine"]


def _evaluate_rows(engine, payload: dict, rows, labels) -> np.ndarray:
    """One in-process engine call over weight rows with their global labels."""
    if payload["kind"] == "qml":
        return BatchedGradientEngine.qml_expectations_rows(
            engine,
            payload["circuit"],
            rows,
            payload["features"],
            row_labels=labels,
            witness_weights=payload["witness"],
        )
    return BatchedGradientEngine.vqe_energy_rows(
        engine,
        payload["circuit"],
        payload["plan"],
        rows,
        row_labels=labels,
        witness_weights=payload["witness"],
    )


class _GradientWorker(BatchedGradientEngine):
    """A worker's sequential gradient engine for gradient shards.

    A shard task's units are ``(rows, row labels)``; the values are the
    rows' expectations or energies.
    """

    def __init__(self, device, config, initial_layout) -> None:
        super().__init__(
            device, config, initial_layout=initial_layout, engine="sequential"
        )
        self.caches = (self.transpile_cache, self.parametric_transpile_cache)

    @staticmethod
    def span(task) -> Tuple[str, dict]:
        return "worker.gradient_shard", {
            "shard": task.shard_index,
            "step": task.generation,
            "attempt": task.attempt,
        }

    def evaluate(self, task):
        before = self.stats.copy()
        rows, labels = task.units
        if task.injector is not None and len(rows) > 1:
            # split after the first row so mid_evaluation faults discard
            # partially completed work; rows are hermetic (contract rule 1),
            # so the split never changes a value — and it only happens under
            # an active fault plan, so fault-free stats stay comparable
            head = _evaluate_rows(self, task.payload, rows[:1], labels[:1])
            task.fire("mid_evaluation")
            tail = _evaluate_rows(self, task.payload, rows[1:], labels[1:])
            values = np.concatenate([head, tail], axis=0)
        else:
            values = _evaluate_rows(self, task.payload, rows, labels)
            task.fire("mid_evaluation")
        return values, self.stats.diff(before)


class ShardedGradientEngine(ShardRuntime, BatchedGradientEngine):
    """A gradient engine that fans evaluation rows out to worker processes.

    Drop-in for the sequential-mode :class:`BatchedGradientEngine` (it *is*
    one, used for the in-process, confirmation and degraded paths):
    ``qml_expectations_rows`` and ``vqe_energy_rows`` keep their signatures
    and — by the determinism contract — produce identical floats.  Both the
    parent engine and every worker start from *fresh* caches, so warm state
    never depends on what ran before the engine was constructed.

    The retry/deadline policy reads the ``shard_*`` fields off the gradient
    config (:class:`~repro.gradients.engine.GradientEngineConfig`);
    ``fault_plan`` (default: parsed from ``REPRO_FAULTS``) drives the
    deterministic chaos harness.

    Call :meth:`close` (or use the context-manager protocol) to shut the
    worker pools down.
    """

    fault_scope = "gradient"
    seed_label = "gradient-shard"

    def __init__(
        self,
        device=None,
        config: Optional[GradientEngineConfig] = None,
        *,
        initial_layout=None,
        workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        BatchedGradientEngine.__init__(
            self, device, config, initial_layout=initial_layout,
            engine="sequential",
        )
        ShardRuntime.__init__(
            self,
            self.config,
            workers,
            (_GradientWorker, (device, self.config, initial_layout)),
            (self.transpile_cache, self.parametric_transpile_cache),
            fault_plan=fault_plan,
        )

    def _merge_worker_stats(self, stats) -> None:
        self.stats.merge(stats)

    def qml_expectations_rows(
        self,
        circuit,
        rows: np.ndarray,
        features: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self._evaluate(
            rows, row_labels, witness_weights,
            kind="qml", circuit=circuit, features=features,
        )

    def vqe_energy_rows(
        self,
        ansatz,
        plan,
        rows: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self._evaluate(
            rows, row_labels, witness_weights,
            kind="vqe", circuit=ansatz, plan=plan,
        )

    def _evaluate(self, rows, row_labels, witness_weights, **payload) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("gradient engines expect a 2-D row matrix")
        n_rows = rows.shape[0]
        labels = self._labels(n_rows, row_labels)
        payload["witness"] = self._witness(rows, witness_weights)
        shard_count = min(self.workers, n_rows)
        step = self._start_generation(shard_count)

        def in_process(units) -> np.ndarray:
            return _evaluate_rows(self, payload, *units)

        if shard_count <= 1:
            return in_process((rows, labels))
        splits = np.array_split(np.arange(n_rows), shard_count)
        with telemetry.span(
            "gradient.step",
            step=step, kind=payload["kind"], shards=shard_count, rows=int(n_rows),
        ):
            values = self._run_shards(
                [(rows[split], labels[split]) for split in splits],
                payload,
                in_process,
            )
            if values is None:
                return in_process((rows, labels))
            return np.concatenate(values, axis=0)


def make_gradient_engine(
    backend=None,
    *,
    initial_layout=None,
    shots: Optional[int] = None,
    seed: int = 0,
    optimization_level: int = 2,
    workers: Optional[int] = None,
    engine: str = "batched",
) -> BatchedGradientEngine:
    """The parameter-shift engine one training run owns.

    ``workers`` (default: the ``REPRO_WORKERS`` environment variable) above
    one shards each step's rows across worker processes; otherwise the
    ``engine``-mode in-process engine shares the backend's caches, so
    gradient compilations flow into the same warm state the forward and
    evaluation paths reuse.  ``shots`` defaults to the backend's.
    """
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    device = backend.device if backend is not None else None
    if backend is None:
        shots = 0
    elif shots is None:
        shots = backend.shots
    config = GradientEngineConfig(
        shots=int(shots),
        seed=int(seed),
        optimization_level=int(optimization_level),
        max_density_qubits=int(getattr(backend, "max_density_qubits", 10)),
    )
    if int(workers) > 1:
        return ShardedGradientEngine(
            device, config, initial_layout=initial_layout, workers=int(workers)
        )
    return BatchedGradientEngine(
        device, config,
        initial_layout=initial_layout,
        transpile_cache=getattr(backend, "transpile_cache", None),
        parametric_cache=getattr(backend, "parametric_cache", None),
        engine=engine,
    )
