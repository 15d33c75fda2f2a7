"""Sharded multi-process population evaluation for the co-search hot path.

:class:`ShardedExecutionEngine` is the population adapter over the shard
runtime (:mod:`repro.execution.shards`, whose module docstring holds the
determinism contract): the unit is one structure group (the candidates
sharing a SubCircuit genome).  Every worker owns a full estimator/engine
stack whose caches stay warm across generations; its new cache entries and
counter deltas merge back into the parent estimator's caches after every
generation, so the deploy/evaluate stage starts from everything the fleet
compiled.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from .. import telemetry
from .engine import ExecutionEngine
from .faults import FaultPlan
from .resilience import WorkerPoolGroup
from .shards import ShardRuntime

__all__ = ["ShardedExecutionEngine"]


# repro: pickle-boundary
@dataclasses.dataclass
class _ValidationView:
    """The validation rows a QML generation scores against.

    Ships only the subset the estimator would select (not the whole dataset)
    and quacks enough like :class:`~repro.qml.datasets.Dataset` for
    ``PerformanceEstimator.validation_subset``.
    """

    x_valid: np.ndarray
    y_valid: np.ndarray


def _score_groups(engine, payload: dict, groups: list) -> List[List[float]]:
    """Score structure groups, one in-process engine call each (rule 1)."""
    if payload["kind"] == "qml":
        scores = [
            ExecutionEngine.evaluate_qml_population(
                engine, candidates, payload["dataset"], payload["n_classes"]
            )
            for candidates in groups
        ]
    else:
        scores = [
            ExecutionEngine.evaluate_vqe_population(
                engine, candidates, payload["molecule"]
            )
            for candidates in groups
        ]
    return [[float(score) for score in group] for group in scores]


class _PopulationWorker(ExecutionEngine):
    """A worker's engine, over its own estimator, for population shards.

    A shard task's units are its structure groups' candidate lists; the
    values are one score list per group.
    """

    def __init__(self, device, config, supercircuit) -> None:
        # Imported here, not at module top: repro.execution must stay
        # importable without pulling the whole repro.core package in.
        from ..core.estimator import PerformanceEstimator

        # Workers never shard further — a worker is the leaf of the tree.
        worker_config = dataclasses.replace(config, workers=1)
        super().__init__(PerformanceEstimator(device, worker_config), supercircuit)
        self.caches = (self.transpile_cache, self.parametric_cache)

    @staticmethod
    def span(task) -> Tuple[str, dict]:
        return "worker.shard", {
            "shard": task.shard_index,
            "generation": task.generation,
            "attempt": task.attempt,
            "tenant": task.tenant,
        }

    def evaluate(self, task):
        payload = task.payload
        if not np.array_equal(self.supercircuit.parameters, payload["parameters"]):
            self.supercircuit.parameters = np.array(
                payload["parameters"], dtype=float
            )
        estimator = self.estimator
        estimator.rng = ensure_rng(task.seed)
        estimator._backend.reseed(task.seed)

        stats_before = self.stats.copy()
        queries_before = estimator.num_queries
        executions_before = estimator._backend.executions
        values = _score_groups(self, payload, task.units[:1])
        # after the first unit of work, so a crash/hang here discards
        # partially completed evaluation
        task.fire("mid_evaluation")
        values += _score_groups(self, payload, task.units[1:])

        # populations/candidates are generation-level counters owned by the
        # parent — report them as zero deltas so merging cannot double-count.
        engine_delta = self.stats.diff(stats_before)
        engine_delta.populations = 0
        engine_delta.candidates = 0
        return values, (
            engine_delta,
            estimator.num_queries - queries_before,
            estimator._backend.executions - executions_before,
        )


class ShardedExecutionEngine(ShardRuntime, ExecutionEngine):
    """A population engine that fans structure groups out to worker processes.

    Drop-in for :class:`ExecutionEngine` (it *is* one): the scorer factories
    and the real_qc fallback are inherited, only whole-population evaluation
    is sharded.  The estimator's
    :class:`~repro.core.estimator.EstimatorConfig` supplies ``workers`` and
    ``shard_min_group_size`` (plus the ``shard_deadline_seconds`` /
    ``shard_retries`` / ``shard_backoff_*`` resilience knobs).

    ``pools`` + ``tenant`` run the engine on the multi-tenant service's
    shared pool group (:mod:`repro.service`); scores are unchanged by the
    sharing, because every unit of evaluation is hermetic with respect to
    which process (and alongside which tenants) it runs.

    The simulation backends (:mod:`repro.backends`) compose with sharding
    without any payload changes: the backend is a function of the
    estimator mode, which ships to workers with the config anyway, so
    ``_ShardTask`` carries no backend state.

    Call :meth:`close` (pipelines do, via the context-manager protocol) to
    shut the worker pool down.
    """

    fault_scope = "execution"
    seed_label = "shard"

    def __init__(
        self,
        estimator,
        supercircuit,
        fault_plan: Optional[FaultPlan] = None,
        pools: Optional[WorkerPoolGroup] = None,
        tenant: Optional[str] = None,
    ) -> None:
        ExecutionEngine.__init__(self, estimator, supercircuit)
        config = estimator.config
        self.shard_min_group_size = config.shard_min_group_size
        ShardRuntime.__init__(
            self,
            config,
            config.workers,
            (_PopulationWorker, (estimator.device, config, supercircuit)),
            (self.transpile_cache, self.parametric_cache),
            fault_plan=fault_plan,
            pools=pools,
            tenant=tenant,
        )

    def _merge_worker_stats(self, stats) -> None:
        engine_delta, num_queries, backend_executions = stats
        self.stats.merge(engine_delta)
        self.estimator.num_queries += num_queries
        self.estimator._backend.record_executions(backend_executions)

    # -- population evaluation ----------------------------------------------

    def evaluate_qml_population(
        self, candidates: Sequence, dataset, n_classes: int
    ) -> List[float]:
        candidates = list(candidates)
        if not candidates or not self._shardable():
            return super().evaluate_qml_population(candidates, dataset, n_classes)
        features, labels = self.estimator.validation_subset(dataset)
        return self._evaluate_population(
            candidates,
            {
                "kind": "qml",
                "dataset": _ValidationView(features, labels),
                "n_classes": int(n_classes),
            },
        )

    def evaluate_vqe_population(self, candidates: Sequence, molecule) -> List[float]:
        candidates = list(candidates)
        if not candidates or not self._shardable():
            return super().evaluate_vqe_population(candidates, molecule)
        return self._evaluate_population(
            candidates, {"kind": "vqe", "molecule": molecule}
        )

    def _shardable(self) -> bool:
        """Whether population evaluation may leave the parent process.

        ``real_qc`` consumes the backend's rng stream in population order, so
        it stays on the inherited in-process implementation.
        """
        return self.estimator.resolve_mode(self.supercircuit.n_qubits) != "real_qc"

    # -- scheduling ----------------------------------------------------------

    def _evaluate_population(self, candidates: list, payload: dict) -> List[float]:
        groups = self._plan_groups(candidates)
        shards = self._plan_shards(groups)
        generation = self._start_generation(len(shards))
        populations_before = self.stats.populations
        candidates_before = self.stats.candidates

        def units(shard) -> list:
            return [[candidates[i] for i in indices] for _key, indices in shard]

        def in_process(group_candidates: list) -> List[List[float]]:
            return _score_groups(self, payload, group_candidates)

        with telemetry.span(
            "scheduler.generation",
            generation=generation,
            shards=len(shards),
            candidates=len(candidates),
            tenant=self.tenant,
        ):
            values = None
            if len(shards) > 1:
                payload["parameters"] = np.array(
                    self.supercircuit.parameters, dtype=float
                )
                values = self._run_shards(
                    [units(shard) for shard in shards], payload, in_process
                )
                for report in self.last_shard_reports:
                    shard = shards[report["shard"]]
                    report["groups"] = len(shard)
                    report["candidates"] = sum(len(i) for _key, i in shard)
            if values is None:
                # a single shard, or a degraded generation: the same groups,
                # one engine call each, in the parent (contract rule 1)
                shards = [list(groups.items())]
                values = [in_process(units(shards[0]))]
            scores = [0.0] * len(candidates)
            for shard, shard_values in zip(shards, values):
                for (_key, indices), group_scores in zip(shard, shard_values):
                    for index, score in zip(indices, group_scores):
                        scores[index] = score
            # one generation counts exactly once, however its groups were
            # split between workers, confirmation runs and in-process calls
            self.stats.populations = populations_before + 1
            self.stats.candidates = candidates_before + len(candidates)
            return scores

    def _plan_groups(self, candidates: list) -> "OrderedDict[Tuple, List[int]]":
        """Population indices per structure group (genome gene), stably keyed."""
        groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for index, candidate in enumerate(candidates):
            groups.setdefault(tuple(candidate.config.as_gene()), []).append(index)
        return groups

    def _plan_shards(
        self, groups: "OrderedDict[Tuple, List[int]]"
    ) -> List[List[Tuple[Tuple, List[int]]]]:
        """Deterministic group→shard assignment (contract rule 2).

        Largest groups are placed first (sorted key as tie-break) onto the
        least-loaded shard.  ``shard_min_group_size`` caps the shard count so
        a tiny population is not spread thinner than one process dispatch is
        worth; one shard means "stay in-process".
        """
        n_candidates = sum(len(indices) for indices in groups.values())
        shard_count = min(
            self.workers,
            len(groups),
            max(1, n_candidates // self.shard_min_group_size),
        )
        if shard_count <= 1:
            return [list(groups.items())]
        ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
        shards: List[List[Tuple[Tuple, List[int]]]] = [[] for _ in range(shard_count)]
        loads = [0] * shard_count
        for key, indices in ordered:
            target = min(range(shard_count), key=lambda s: (loads[s], s))
            shards[target].append((key, indices))
            loads[target] += len(indices)
        for shard in shards:
            shard.sort(key=lambda item: item[0])
        return shards
