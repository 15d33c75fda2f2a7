"""Batched parameter-shift gradient evaluation on the simulation backends.

A parameter-shift gradient evaluates one circuit structure under
``2 * num_weights`` shifted weight vectors (plus the unshifted center) — the
exact workload the population machinery already batches: one structure, many
parameter rows.  :class:`BatchedGradientEngine` sends those rows to the
:mod:`repro.backends` engine of its resolved mode as the same job shapes
the execution engine produces, so every gradient mode reuses the code path
(and the caches) its forward pass runs on:

``noise_free``
    the whole ``(rows, num_weights)`` matrix joins the statevector batch
    dimension (one :class:`~repro.backends.base.SimulationJob` carrying a
    2-D weight matrix);
``noise_sim``
    the rows go through :meth:`~repro.execution.cache.ParametricTranspileCache.
    bind_rows` into one :class:`~repro.transpile.parametric.
    TemplateBatchBinding` per structure — one vectorized template fill, one
    batched density evolution — with branch-crossing rows served by per-row
    compiled jobs;
``real_qc``
    QML readout runs through the shot backend with one pinned
    ``seed_key`` per (row, sample) job; VQE energies take the sequential
    measured loop in :meth:`BatchedGradientEngine._vqe_rows_measured`
    (the shot backend samples Z-basis readout only, not Pauli-sum
    observables), reseeded per row so the loop shards cleanly.

Determinism contract (the gradient sibling of the scheduler's)
--------------------------------------------------------------
The unit of evaluation is **one weight row** — all samples of one shifted
weight vector.  ``engine="sequential"`` evaluates rows one engine call at a
time, which is the unit the sharded wrapper (:class:`~repro.gradients.
sharded.ShardedGradientEngine`) moves between worker processes: a row
produces bit-for-bit the same floats inside any worker, inside the parent,
and under any worker count.  ``engine="batched"`` (the default, and the only
other mode) fuses all rows of one call into a single evolution — faster, and
equal to the sequential path to floating-point batching tolerance (last-ulp
contraction-order differences), not bitwise.  Both modes are checked against
the per-row ``parameter_shift_jacobian`` closure the tests keep as their
reference.

Every randomness sink is pinned by content, never by scheduling order:
shot jobs carry ``seed_key`` tuples built from *global* row labels, and the
measured VQE loop reseeds per row from ``stable_seed((seed, "vqe-pshift",
label))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends import (
    DensityMatrixBackend,
    GroupEntry,
    ShotSamplerBackend,
    SimulationJob,
    StatevectorBackend,
    run_bound_rows,
)
from ..devices.backend import QuantumBackend
from ..execution.cache import ParametricTranspileCache, TranspileCache
from ..execution.stats import MergeableStats
from ..quantum.autodiff import ShiftRulePlan, build_shift_plan
from ..quantum.circuit import ParameterizedCircuit
from ..utils.rng import stable_seed

__all__ = [
    "GradientEngineConfig",
    "GradientEngineStats",
    "BatchedGradientEngine",
]


# repro: pickle-boundary
@dataclass(frozen=True)
class GradientEngineConfig:
    """Everything a gradient engine (or one of its workers) needs to know.

    Quacks like :class:`~repro.core.estimator.EstimatorConfig` for the
    simulation backends (``shots``, ``seed``, ``optimization_level``,
    ``max_density_qubits``) and ships to sharded gradient workers by
    pickle, so worker engines rebuild an identical engine from the config
    alone.
    """

    shots: int = 0
    seed: int = 0
    optimization_level: int = 2
    max_density_qubits: int = 10
    # -- shard resilience policy (see repro.execution.resilience) -------------
    shard_deadline_seconds: Optional[float] = 600.0
    shard_retries: int = 2
    shard_backoff_seconds: float = 0.05
    shard_backoff_max_seconds: float = 2.0


@dataclass
class GradientEngineStats(MergeableStats):
    """Counters describing what one gradient engine evaluated."""

    gradient_calls: int = 0
    rows_evaluated: int = 0
    template_rows: int = 0
    fallback_rows: int = 0
    shot_jobs: int = 0
    measured_rows: int = 0


class BatchedGradientEngine:
    """Evaluates shift-rule row matrices on the backend of its mode.

    Estimator shim: exposes ``device``, ``config``, ``transpile_cache`` and
    ``parametric_transpile_cache`` exactly like
    :class:`~repro.core.estimator.PerformanceEstimator`, so the simulation
    backends construct against it unchanged.
    """

    def __init__(
        self,
        device=None,
        config: Optional[GradientEngineConfig] = None,
        *,
        initial_layout=None,
        transpile_cache: Optional[TranspileCache] = None,
        parametric_cache: Optional[ParametricTranspileCache] = None,
        engine: str = "batched",
    ) -> None:
        if engine not in ("batched", "sequential"):
            raise ValueError(
                f"unknown gradient engine mode {engine!r} "
                "(expected 'batched' or 'sequential')"
            )
        self.device = device
        self.config = config if config is not None else GradientEngineConfig()
        self.initial_layout = initial_layout
        self.engine_mode = engine
        self.transpile_cache = (
            transpile_cache if transpile_cache is not None else TranspileCache()
        )
        self.parametric_transpile_cache = (
            parametric_cache
            if parametric_cache is not None
            else ParametricTranspileCache(fallback=self.transpile_cache)
        )
        self.stats = GradientEngineStats()
        #: id(circuit) -> (circuit, plan); the circuit reference keeps the
        #: id stable for the memo's lifetime
        self._plans: Dict[int, Tuple[ParameterizedCircuit, ShiftRulePlan]] = {}
        #: (id(ansatz), id(plan)) -> (ansatz, plan, per-group structures)
        self._vqe_structures: Dict[Tuple[int, int], Tuple] = {}
        self._measure_backend: Optional[QuantumBackend] = None

    # -- lifecycle / introspection --------------------------------------------

    def close(self) -> None:
        """Release per-engine resources (idempotent; nothing pooled here)."""

    def __enter__(self) -> "BatchedGradientEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def resolve_mode(self) -> str:
        """The estimator mode gradients run in: ``noise_free`` without a
        device, ``noise_sim`` with a device and exact (``shots == 0``)
        simulation, ``real_qc`` for finite shots."""
        if self.device is None:
            return "noise_free"
        if int(self.config.shots) == 0:
            return "noise_sim"
        return "real_qc"

    def shift_plan(self, circuit: ParameterizedCircuit) -> ShiftRulePlan:
        """The (memoized) shift-rule plan of one circuit structure."""
        cached = self._plans.get(id(circuit))
        if cached is not None:
            return cached[1]
        plan = build_shift_plan(circuit)
        self._plans[id(circuit)] = (circuit, plan)
        return plan

    # -- QML readout rows -----------------------------------------------------

    def qml_expectations_rows(
        self,
        circuit: ParameterizedCircuit,
        rows: np.ndarray,
        features: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-qubit Z expectations of every (weight row, sample) pair.

        ``rows`` is a ``(n_rows, num_weights)`` matrix (typically the center
        row followed by :meth:`ShiftRulePlan.shifted_weight_rows`); the
        result has shape ``(n_rows, batch, n_qubits)``.

        ``row_labels`` are the *global* row indices of this gradient step —
        sharded callers pass the slice they were assigned so shot-job seed
        keys stay a pure function of step content, not of sharding.
        ``witness_weights`` (the step's center weights) seeds the parametric
        template witness; every worker must pass the same vector so cold
        caches compile identical templates.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("qml_expectations_rows expects a 2-D row matrix")
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        labels = self._labels(rows.shape[0], row_labels)
        witness = self._witness(rows, witness_weights)
        mode = self.resolve_mode()
        self.stats.gradient_calls += 1
        self.stats.rows_evaluated += rows.shape[0]
        if self.engine_mode == "sequential" and rows.shape[0] > 1:
            return np.stack(
                [
                    self._qml_rows_once(
                        circuit, rows[i : i + 1], features,
                        labels[i : i + 1], mode, witness,
                    )[0]
                    for i in range(rows.shape[0])
                ]
            )
        return self._qml_rows_once(circuit, rows, features, labels, mode, witness)

    def _qml_rows_once(
        self,
        circuit: ParameterizedCircuit,
        rows: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        mode: str,
        witness: np.ndarray,
    ) -> np.ndarray:
        """One engine call over ``rows`` — the sharding unit is one row."""
        n_rows, batch = rows.shape[0], features.shape[0]
        n_qubits = circuit.n_qubits
        entry = GroupEntry(circuit, witness)

        if mode == "noise_free":
            # statevector: the rows join the batch dimension of one job
            backend = StatevectorBackend(self)
            weights = rows if n_rows > 1 else rows[0]
            handles = backend.run_group(
                entry,
                [SimulationJob(circuit=circuit, weights=weights, features=features)],
            )
            backend.synchronize()
            expectations = handles[0].logical_z_expectations(n_qubits)
            return np.asarray(expectations).reshape(n_rows, batch, n_qubits)

        if mode == "real_qc":
            backend = ShotSamplerBackend(self)
            jobs = [
                SimulationJob(
                    circuit=circuit,
                    weights=rows[r],
                    features=features[b],
                    initial_layout=self.initial_layout,
                    seed_key=("pshift", int(labels[r]), int(b)),
                )
                for r in range(n_rows)
                for b in range(batch)
            ]
            handles = backend.run_group(entry, jobs)
            self.stats.shot_jobs += len(jobs)
        else:
            # density: one values matrix over every (row, sample) pair,
            # row-major
            backend = DensityMatrixBackend(self)
            values = np.concatenate(
                [np.repeat(rows, batch, axis=0), np.tile(features, (n_rows, 1))],
                axis=1,
            )
            handles = self._schedule_density_rows(backend, entry, values)
        backend.synchronize()
        flat = np.stack(
            [handle.logical_z_expectations(n_qubits) for handle in handles]
        )
        return flat.reshape(n_rows, batch, n_qubits)

    # -- VQE energy rows ------------------------------------------------------

    def vqe_energy_rows(
        self,
        ansatz: ParameterizedCircuit,
        plan,
        rows: np.ndarray,
        row_labels: Optional[np.ndarray] = None,
        witness_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``<H>`` of one ansatz under every weight row; shape ``(n_rows,)``.

        ``plan`` is the :class:`~repro.quantum.measurement.MeasurementPlan`
        of the molecular Hamiltonian.  ``noise_free`` reads the observable
        from statevectors; ``noise_sim`` measures each commuting group on
        the hoisted per-group circuit structures (ansatz + basis change,
        built once per plan); ``real_qc`` runs the measured loop with
        per-row pinned sampling seeds.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("vqe_energy_rows expects a 2-D row matrix")
        labels = self._labels(rows.shape[0], row_labels)
        witness = self._witness(rows, witness_weights)
        mode = self.resolve_mode()
        self.stats.gradient_calls += 1
        self.stats.rows_evaluated += rows.shape[0]
        if mode == "real_qc":
            return self._vqe_rows_measured(ansatz, plan, rows, labels)
        if self.engine_mode == "sequential" and rows.shape[0] > 1:
            return np.concatenate(
                [
                    self._vqe_rows_once(
                        ansatz, plan, rows[i : i + 1], mode, witness
                    )
                    for i in range(rows.shape[0])
                ]
            )
        return self._vqe_rows_once(ansatz, plan, rows, mode, witness)

    def _vqe_rows_once(
        self,
        ansatz: ParameterizedCircuit,
        plan,
        rows: np.ndarray,
        mode: str,
        witness: np.ndarray,
    ) -> np.ndarray:
        n_rows = rows.shape[0]
        n_qubits = ansatz.n_qubits

        if mode == "noise_free":
            backend = StatevectorBackend(self)
            entry = GroupEntry(ansatz, witness)
            weights = rows if n_rows > 1 else rows[0]
            handles = backend.run_group(
                entry, [SimulationJob(circuit=ansatz, weights=weights)]
            )
            backend.synchronize()
            energies = handles[0].pauli_expectations(plan.observable)
            return np.asarray(energies, dtype=float).reshape(n_rows)

        # noise_sim: one measured setting per commuting group, hoisted into
        # per-group circuit structures so the parametric cache compiles each
        # (ansatz + basis change) once per plan, not once per shifted row
        structures = self._vqe_group_structures(ansatz, plan)
        backend = DensityMatrixBackend(self)
        group_probs: List[List[np.ndarray]] = []
        for structure in structures:
            entry = GroupEntry(structure, witness)
            handles = self._schedule_density_rows(backend, entry, rows)
            backend.synchronize()
            group_probs.append(
                [handle.logical_probabilities(n_qubits) for handle in handles]
            )

        energies = np.zeros(n_rows)
        for r in range(n_rows):
            energies[r] = plan.expectation_from_group_probabilities(
                [probs[r] for probs in group_probs]
            )
        return energies

    def _vqe_rows_measured(
        self, ansatz: ParameterizedCircuit, plan, rows: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Finite-shot energies, one measured setting loop per row.

        The shot backend samples Z-basis readout only, so the
        ``real_qc`` energy path keeps the device-backend measured loop —
        but reseeded per *row* from its global label, making each row a
        pure function of step content (and therefore shardable).
        """
        backend = self._measure_backend
        if backend is None:
            backend = QuantumBackend(
                self.device,
                shots=int(self.config.shots),
                seed=int(self.config.seed),
                max_density_qubits=int(self.config.max_density_qubits),
                transpile_cache=self.transpile_cache,
                parametric_cache=self.parametric_transpile_cache,
            )
            self._measure_backend = backend
        energies = np.zeros(rows.shape[0])
        for index in range(rows.shape[0]):
            backend.reseed(
                stable_seed(
                    (int(self.config.seed), "vqe-pshift", int(labels[index]))
                )
            )
            prepared = ansatz.bind(rows[index])
            probs = []
            for basis_change, _group in plan.settings():
                result = backend.run(
                    prepared.compose(basis_change),
                    initial_layout=self.initial_layout,
                    optimization_level=int(self.config.optimization_level),
                    shots=int(self.config.shots),
                )
                probs.append(result.probabilities)
            energies[index] = plan.expectation_from_group_probabilities(probs)
            self.stats.measured_rows += 1
        return energies

    # -- helpers --------------------------------------------------------------

    def _labels(
        self, n_rows: int, row_labels: Optional[np.ndarray]
    ) -> np.ndarray:
        if row_labels is None:
            return np.arange(n_rows)
        labels = np.asarray(row_labels, dtype=int).ravel()
        if labels.shape[0] != n_rows:
            raise ValueError("row_labels must align with the row matrix")
        return labels

    @staticmethod
    def _witness(
        rows: np.ndarray, witness_weights: Optional[np.ndarray]
    ) -> np.ndarray:
        if witness_weights is None:
            return np.asarray(rows[0], dtype=float)
        return np.asarray(witness_weights, dtype=float).ravel()

    def _schedule_density_rows(
        self, backend, entry: GroupEntry, values: np.ndarray
    ) -> List[object]:
        """Template-bind a values matrix (branch-crossing rows compiled
        exactly) and schedule every row; one handle per row, in row order."""
        binding, fallback = self.parametric_transpile_cache.bind_rows(
            entry.circuit,
            values,
            entry.weights,
            device=self.device,
            initial_layout=self.initial_layout,
            optimization_level=int(self.config.optimization_level),
        )
        if binding is not None:
            self.stats.template_rows += binding.n_rows
        self.stats.fallback_rows += len(fallback)
        return run_bound_rows(backend, entry, binding, fallback)

    def _vqe_group_structures(self, ansatz, plan) -> List[ParameterizedCircuit]:
        """One parametric structure per measurement group: ansatz ops shared,
        basis-change instructions appended as constant slots (hoisted — built
        once per (ansatz, plan), reused by every shifted evaluation)."""
        key = (id(ansatz), id(plan))
        cached = self._vqe_structures.get(key)
        if cached is not None:
            return cached[2]
        structures: List[ParameterizedCircuit] = []
        for basis_change, _group in plan.settings():
            structure = ParameterizedCircuit(ansatz.n_qubits)
            for op in ansatz.ops:
                structure.add_op(op)
            for instruction in basis_change.instructions:
                structure.add_fixed(
                    instruction.gate, instruction.qubits, instruction.params
                )
            structures.append(structure)
        self._vqe_structures[key] = (ansatz, plan, structures)
        return structures
