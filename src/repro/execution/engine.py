"""Batched population-evaluation engine for the evolutionary co-search.

See the package docstring (:mod:`repro.execution`) for the grouping/batching
strategy.  The short version:

1.  Candidates are grouped by SubCircuit genome; the standalone circuit
    and inherited weights are built once per unique genome per population
    instead of once per candidate.
2.  Every simulation flows through a :mod:`repro.backends` engine, picked
    by the resolved estimator mode: noise-free terms run on the batched
    statevector backend and ``noise_sim`` terms on the batched
    density-matrix backend.  ``real_qc`` scores take the per-candidate seed
    path, which consumes the device backend's shot stream in population
    order.  The engine itself contains no simulation code — it organizes
    groups, transpilations and score formulas.
3.  Transpilations are memoized in the estimator-owned caches, the only
    memo that outlives a population: the engine keeps no state between
    populations except its :class:`ExecutionStats`.  In QML
    ``noise_sim`` mode each (genome, mapping) structure is compiled once
    into one parametric template and every validation sample's angles come
    out of a single vectorized template bind (one affine matmul per
    structure — see
    :meth:`~repro.execution.cache.ParametricTranspileCache.bind_rows`)
    consumed directly by the density backend; a sample that crosses one of
    the template's compile-time branches is compiled exactly by the
    bound-key cache.  A candidate with one binding — every QML
    ``success_rate`` candidate and every VQE candidate — compiles that
    bound circuit through the bound-key cache.

The engine reads every setting from the estimator's
:class:`~repro.core.estimator.EstimatorConfig`.  Its reference is the
per-candidate seed path — one :meth:`PerformanceEstimator.estimate_qml` /
``estimate_vqe`` call per candidate — which the equivalence tests loop
directly and pin the engine against to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Type

import numpy as np

from ..backends import (
    DensityMatrixBackend,
    GroupEntry,
    SimulationBackend,
    SimulationJob,
    StatevectorBackend,
    run_bound_rows,
)
from ..qml.qnn import readout_matrix
from ..transpile.compiler import _normalize_layout
from ..utils.stats import nll_loss, softmax
from .. import telemetry
from .stats import MergeableStats

__all__ = ["ExecutionStats", "ExecutionEngine"]


@dataclass
class ExecutionStats(MergeableStats):
    """Counters describing what the engine amortized.

    ``populations`` and ``candidates`` are *population-level* counters — in a
    sharded evaluation the parent scheduler counts them exactly once per
    generation and workers report them as zero deltas (see
    :meth:`repro.execution.scheduler.ShardedExecutionEngine`); the remaining
    fields are sub-population work counters that sum across shards.
    Aggregation goes through :class:`~repro.execution.stats.MergeableStats`.

    The ``density_batches``, ``template_batches`` and
    ``statevector_batches`` fields are the per-backend counters harvested
    from the :mod:`repro.backends` engines after every population (each
    backend's :meth:`~repro.backends.base.SimulationBackend.stats_delta`).
    """

    populations: int = 0
    candidates: int = 0
    config_groups: int = 0
    density_batches: int = 0
    density_circuits: int = 0
    #: density batches fed straight from vectorized template bindings (no
    #: per-sample Instruction construction)
    template_batches: int = 0
    #: whole-batch noise-free forward passes on the statevector backend
    statevector_batches: int = 0
    sequential_fallbacks: int = 0


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Evaluates whole co-search populations through the performance estimator.

    Everything comes from the estimator: its config (``mode``,
    ``max_density_qubits``, ...) and its transpile caches, which
    engines created for successive co-searches — and the deploy/evaluate
    stage — share.  Engines are context managers: ``with
    estimator.population_engine(sc) as engine: ...`` releases any scheduler
    resources on exit.
    """

    def __init__(self, estimator, supercircuit) -> None:
        self.estimator = estimator
        self.supercircuit = supercircuit
        self.transpile_cache = estimator.transpile_cache
        self.parametric_cache = estimator.parametric_transpile_cache
        self.stats = ExecutionStats()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release scheduler resources (idempotent; a no-op in-process).

        Exists so pipelines can close any population engine uniformly — the
        sharded subclass shuts its worker pool down here.
        """

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- scorer factories (what the evolution engine consumes) -----------------

    def qml_population_scorer(
        self, dataset, n_classes: int
    ) -> Callable[[Sequence], List[float]]:
        """A population-scoring callable for :meth:`EvolutionEngine.search`."""

        def scorer(candidates: Sequence) -> List[float]:
            return self.evaluate_qml_population(candidates, dataset, n_classes)

        return scorer

    def vqe_population_scorer(self, molecule) -> Callable[[Sequence], List[float]]:
        """A population-scoring callable for the VQE co-search."""

        def scorer(candidates: Sequence) -> List[float]:
            return self.evaluate_vqe_population(candidates, molecule)

        return scorer

    # -- backend plumbing -------------------------------------------------------

    def _backend_for(self, backends: Dict[type, SimulationBackend],
                     cls: Type[SimulationBackend]) -> SimulationBackend:
        """One backend instance per class per population evaluation: the
        density backend batches aligned circuits across groups."""
        backend = backends.get(cls)
        if backend is None:
            backend = backends[cls] = cls(self.estimator)
        return backend

    def _synchronize(self, backends: Dict[type, SimulationBackend]) -> None:
        for backend in backends.values():
            with telemetry.span("backend.synchronize", backend=backend.name):
                backend.synchronize()

    def _merge_backend_stats(
        self, backends: Dict[type, SimulationBackend]
    ) -> None:
        """Fold every backend's counters into :attr:`stats`.

        They are recorded there only: :class:`ExecutionStats` merges across
        worker processes, so a sharded search reports the same totals.
        """
        for backend in backends.values():
            for field, delta in backend.stats_delta().items():
                setattr(self.stats, field, getattr(self.stats, field) + delta)

    # -- population evaluation: QML ---------------------------------------------

    def evaluate_qml_population(
        self, candidates: Sequence, dataset, n_classes: int
    ) -> List[float]:
        """Predicted validation losses for every candidate (lower is better)."""
        candidates = list(candidates)
        if not candidates:
            return []
        with telemetry.span(
            "engine.population", kind="qml", candidates=len(candidates)
        ):
            return self._evaluate_qml(candidates, dataset, n_classes)

    def _evaluate_qml(
        self, candidates: List, dataset, n_classes: int
    ) -> List[float]:
        estimator = self.estimator
        n_qubits = self.supercircuit.n_qubits
        mode = estimator.resolve_mode(n_qubits)
        if mode == "real_qc":
            # real_qc consumes the backend rng stream per candidate in
            # population order; batching would reorder the draws
            self.stats.sequential_fallbacks += len(candidates)
            return [
                self._sequential_qml(candidate, dataset, n_classes)
                for candidate in candidates
            ]

        estimator.num_queries += len(candidates)
        self.stats.populations += 1
        self.stats.candidates += len(candidates)
        features, labels = estimator.validation_subset(dataset)
        groups = self._group(candidates, include_encoder=True)
        self.stats.config_groups += len(groups)
        readout = readout_matrix(n_qubits, n_classes)
        scores = [0.0] * len(candidates)
        backends: Dict[type, SimulationBackend] = {}

        if mode == "noise_free":
            for entry, indices in groups:
                loss = self._qml_noise_free_loss(
                    backends, entry, features, labels, readout
                )
                for index in indices:
                    scores[index] = loss
            self._merge_backend_stats(backends)
            return scores

        if mode == "success_rate":
            # one binding per candidate — there is nothing for a parametric
            # template to amortize inside a population, so this path stays on
            # the bound-key cache (itself sped up by the memoized noise model
            # behind success_rate()); warm populations hit the cache as before.
            # VQE candidates have one binding in every mode, so _evaluate_vqe
            # compiles through the same cache
            optimization_level = estimator.config.optimization_level
            for entry, indices in groups:
                loss = self._qml_noise_free_loss(
                    backends, entry, features, labels, readout
                )
                bound = entry.circuit.bind(entry.weights, features[0])
                for index in indices:
                    compiled = self.transpile_cache.get(
                        bound,
                        estimator.device,
                        initial_layout=candidates[index].mapping,
                        optimization_level=optimization_level,
                    )
                    scores[index] = loss / compiled.success_rate()
            self._merge_backend_stats(backends)
            return scores

        # noise_sim: per-sample expectations from density matrices batched
        # per structure and fed from vectorized template bindings
        density = self._backend_for(backends, DensityMatrixBackend)
        handles_by_candidate: Dict[int, List[object]] = {}
        with telemetry.phase_span("engine.phase", phase="schedule"):
            for entry, indices in groups:
                handles_by_mapping: Dict[object, List[object]] = {}
                for index in indices:
                    mapping = candidates[index].mapping
                    mapping_key = _normalize_layout(mapping)
                    handles = handles_by_mapping.get(mapping_key)
                    if handles is None:
                        handles = self._schedule_density_rows(
                            density, entry, mapping, features
                        )
                        handles_by_mapping[mapping_key] = handles
                    handles_by_candidate[index] = handles
        with telemetry.phase_span("engine.phase", phase="simulate"):
            self._synchronize(backends)
        self.stats.density_circuits += len(candidates) * len(features)
        estimator._backend.record_executions(len(candidates) * len(features))

        with telemetry.phase_span("engine.phase", phase="score"):
            for index, handles in handles_by_candidate.items():
                expectations = np.stack(
                    [handle.logical_z_expectations(n_qubits) for handle in handles]
                )
                logits = expectations @ readout.T
                scores[index] = nll_loss(softmax(logits), labels)
        self._merge_backend_stats(backends)
        return scores

    def _schedule_density_rows(
        self, backend, entry: GroupEntry, mapping, features
    ) -> List[object]:
        """Density jobs for every validation sample of one (genome, mapping):
        one vectorized template bind, with the samples that cross one of
        its compile-time branches compiled exactly."""
        estimator = self.estimator
        weights = np.broadcast_to(
            entry.weights, (len(features), entry.weights.shape[0])
        )
        binding, fallback = self.parametric_cache.bind_rows(
            entry.circuit,
            np.concatenate([weights, features], axis=1),
            entry.weights,
            estimator.device,
            initial_layout=mapping,
            optimization_level=estimator.config.optimization_level,
        )
        return run_bound_rows(backend, entry, binding, fallback)

    # -- population evaluation: VQE ---------------------------------------------

    def evaluate_vqe_population(self, candidates: Sequence, molecule) -> List[float]:
        """Predicted measured energies for every candidate (lower is better)."""
        candidates = list(candidates)
        if not candidates:
            return []
        with telemetry.span(
            "engine.population", kind="vqe", candidates=len(candidates)
        ):
            return self._evaluate_vqe(candidates, molecule)

    def _evaluate_vqe(self, candidates: List, molecule) -> List[float]:
        estimator = self.estimator
        n_qubits = self.supercircuit.n_qubits
        mode = estimator.resolve_mode(n_qubits)
        if mode == "real_qc":
            # the measurement-plan path, in population order like QML
            self.stats.sequential_fallbacks += len(candidates)
            return [
                self._sequential_vqe(candidate, molecule) for candidate in candidates
            ]

        estimator.num_queries += len(candidates)
        self.stats.populations += 1
        self.stats.candidates += len(candidates)
        hamiltonian = estimator.observable_for(molecule)
        groups = self._group(candidates, include_encoder=False)
        self.stats.config_groups += len(groups)
        scores = [0.0] * len(candidates)
        backends: Dict[type, SimulationBackend] = {}

        noise_free: Dict[int, float] = {}

        def noise_free_energy(group_index: int) -> float:
            # one statevector probe per group, run on first read: noise_sim
            # reads it only for registers above max_density_qubits
            if group_index not in noise_free:
                entry = groups[group_index][0]
                statevector = self._backend_for(backends, StatevectorBackend)
                handle = statevector.run_group(entry, [SimulationJob()])[0]
                noise_free[group_index] = float(
                    handle.pauli_expectations(hamiltonian)[0]
                )
            return noise_free[group_index]

        if mode == "noise_free":
            for group_index, (_entry, indices) in enumerate(groups):
                for index in indices:
                    scores[index] = noise_free_energy(group_index)
            self._merge_backend_stats(backends)
            return scores

        optimization_level = estimator.config.optimization_level
        max_density = estimator.config.max_density_qubits
        mixed_energy = hamiltonian.constant
        #: ``(population index, compiled, used_physical, handle)`` per noisy job
        density_jobs: List[Tuple[int, object, Tuple[int, ...], object]] = []

        with telemetry.phase_span("engine.phase", phase="schedule"):
            for group_index, (entry, indices) in enumerate(groups):
                # a VQE candidate has one binding, so a parametric template
                # would be traced only to be bound once: compile the binding
                # concretely, exactly as the seed path does
                bound = entry.circuit.bind(entry.weights)
                group_jobs: List[Tuple[int, object, Tuple[int, ...]]] = []
                for index in indices:
                    compiled = self.transpile_cache.get(
                        bound,
                        estimator.device,
                        initial_layout=candidates[index].mapping,
                        optimization_level=optimization_level,
                    )
                    if mode == "success_rate":
                        rate = compiled.success_rate()
                        scores[index] = (
                            rate * noise_free_energy(group_index)
                            + (1.0 - rate) * mixed_energy
                        )
                        continue
                    # noise_sim: the reduced register is compile metadata
                    # (memoized on the compiled circuit), so the oversized
                    # check stays in the engine and only simulatable circuits
                    # reach the backend
                    _reduced, used_physical = compiled.reduced_circuit()
                    if len(used_physical) > max_density:
                        rate = compiled.success_rate()
                        scores[index] = (
                            rate * noise_free_energy(group_index)
                            + (1.0 - rate) * mixed_energy
                        )
                    else:
                        group_jobs.append((index, compiled, used_physical))
                if group_jobs:
                    density = self._backend_for(backends, DensityMatrixBackend)
                    handles = density.run_group(
                        entry,
                        [
                            SimulationJob(compiled=compiled)
                            for _index, compiled, _used in group_jobs
                        ],
                    )
                    density_jobs.extend(
                        (index, compiled, used_physical, handle)
                        for (index, compiled, used_physical), handle in zip(
                            group_jobs, handles
                        )
                    )

        if density_jobs:
            with telemetry.phase_span("engine.phase", phase="simulate"):
                self._synchronize(backends)
            self.stats.density_circuits += len(density_jobs)
            # unlike the QML path, the sequential VQE estimator simulates
            # density matrices itself without charging the backend, so no
            # record_executions here — the #QC-runs metric must match
            with telemetry.phase_span("engine.phase", phase="score"):
                remapped_cache: Dict[int, object] = {}
                for index, compiled, used_physical, handle in density_jobs:
                    key = id(compiled)
                    if key not in remapped_cache:
                        remapped_cache[key] = estimator.remap_hamiltonian(
                            hamiltonian, compiled, used_physical
                        )
                    scores[index] = handle.pauli_expectation(remapped_cache[key])
        self._merge_backend_stats(backends)
        return scores

    # -- per-candidate estimator calls (the real_qc path) -----------------------

    def _sequential_qml(self, candidate, dataset, n_classes: int) -> float:
        circuit, _ = self.supercircuit.build_standalone_circuit(candidate.config)
        weights = self.supercircuit.inherited_weights(candidate.config)
        return self.estimator.estimate_qml(
            circuit, weights, dataset, n_classes, layout=candidate.mapping
        )

    def _sequential_vqe(self, candidate, molecule) -> float:
        circuit, _ = self.supercircuit.build_standalone_circuit(
            candidate.config, include_encoder=False
        )
        weights = self.supercircuit.inherited_weights(candidate.config)
        return self.estimator.estimate_vqe(
            circuit, weights, molecule, layout=candidate.mapping
        )

    # -- internals ----------------------------------------------------------------

    def _group(
        self, candidates: Sequence, include_encoder: bool
    ) -> List[Tuple[GroupEntry, List[int]]]:
        """Group candidate indices by SubCircuit genome, building each
        genome's circuit and inherited weights once per population."""
        groups: Dict[Tuple, Tuple[GroupEntry, List[int]]] = {}
        for index, candidate in enumerate(candidates):
            key = tuple(candidate.config.as_gene())
            bucket = groups.get(key)
            if bucket is None:
                circuit, weight_map = self.supercircuit.build_standalone_circuit(
                    candidate.config, include_encoder=include_encoder
                )
                weights = self.supercircuit.parameters[weight_map].copy()
                bucket = groups[key] = (GroupEntry(circuit, weights), [])
            bucket[1].append(index)
        return list(groups.values())

    def _qml_noise_free_loss(
        self,
        backends: Dict[type, SimulationBackend],
        entry: GroupEntry,
        features: np.ndarray,
        labels: np.ndarray,
        readout: np.ndarray,
    ) -> float:
        statevector = self._backend_for(backends, StatevectorBackend)
        handle = statevector.run_group(entry, [SimulationJob(features=features)])[0]
        expectations = handle.logical_z_expectations(entry.circuit.n_qubits)
        return nll_loss(softmax(expectations @ readout.T), labels)
