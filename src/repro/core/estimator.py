"""The performance estimator used inside the evolutionary co-search.

Given a candidate (SubCircuit, qubit mapping) pair, the estimator assigns the
SubCircuit its *inherited* parameters and predicts its measured performance on
the target device.  Two estimation modes follow the paper:

* ``noise_sim`` — compile with the candidate mapping and simulate with the
  device's full noise model (used for small circuits, <= ~10 qubits);
* ``success_rate`` — noise-free simulation combined with the product of
  per-gate success rates (``l_augmented = l_noise_free / r_overall``), used for
  circuits too large to simulate with noise.

``mode="real_qc"`` evaluates on the shot-based backend instead, which is the
Table IV "search with real QC in the loop" configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..backends.density import BatchedDensityRunner
from ..devices.backend import QuantumBackend
from ..devices.library import Device
from ..qml.datasets import Dataset
from ..qml.qnn import QNNModel
from ..quantum.circuit import ParameterizedCircuit
from ..quantum.operators import PauliString, PauliSum
from ..quantum.statevector import expectation_pauli_sum, run_parameterized
from ..transpile.compiler import transpile
from ..utils.env import env_workers
from ..utils.rng import ensure_rng
from ..utils.stats import nll_loss, softmax
from ..vqe.molecules import Molecule

__all__ = ["EstimatorConfig", "PerformanceEstimator"]

#: entries of the estimator-owned bound-key transpile cache
_TRANSPILE_CACHE_SIZE = 1024


@dataclass
class EstimatorConfig:
    """Configuration of the performance estimator."""

    mode: str = "auto"               # auto | noise_sim | success_rate | noise_free | real_qc
    optimization_level: int = 2
    max_density_qubits: int = 10
    n_valid_samples: int = 24
    shots: int = 2048                # only used in real_qc mode
    seed: int = 0
    # -- population execution engine (see repro.execution) --------------------
    #: worker processes for population evaluation.  > 1 makes
    #: :meth:`PerformanceEstimator.population_engine` return a
    #: :class:`~repro.execution.scheduler.ShardedExecutionEngine`; <= 1 stays
    #: in-process.  The default honours the ``REPRO_WORKERS`` environment
    #: variable (the CI matrix runs the suite with ``REPRO_WORKERS=2``).
    #: Scores are bit-for-bit independent of this value.
    workers: int = field(default_factory=env_workers)
    #: minimum candidates per shard worth one process dispatch; populations
    #: smaller than ``2 * shard_min_group_size`` evaluate in-process
    shard_min_group_size: int = 4
    #: must be ``None``: the resolved mode picks the simulation backend
    #: (see :mod:`repro.backends`).  Kept only because perfbench's workloads
    #: pass ``backend=None``; any other value raises.
    backend: Optional[str] = None
    # -- shard resilience policy (see repro.execution.resilience) -------------
    #: per-shard wall-clock deadline; a shard still running past it is
    #: declared hung, its worker pool is killed, and the shard is retried.
    #: ``None`` disables the watchdog (futures are awaited unbounded).
    shard_deadline_seconds: Optional[float] = 600.0
    #: retry rounds for infrastructure-failed shard tasks before the
    #: generation degrades to the in-process path
    shard_retries: int = 2
    #: base / cap of the capped exponential backoff between retry rounds
    shard_backoff_seconds: float = 0.05
    shard_backoff_max_seconds: float = 2.0

    def __post_init__(self) -> None:
        valid = ("auto", "noise_sim", "success_rate", "noise_free", "real_qc")
        if self.mode not in valid:
            raise ValueError(f"mode must be one of {valid}")
        self.workers = int(self.workers)
        if self.shard_min_group_size < 1:
            raise ValueError("shard_min_group_size must be positive")
        if self.backend is not None:
            raise ValueError(
                f"backend={self.backend!r}: the estimator mode picks the "
                "simulation backend, so backend must be None"
            )


def _noise_free_energy(
    ansatz: ParameterizedCircuit, weights: np.ndarray, hamiltonian: PauliSum
) -> float:
    states = run_parameterized(ansatz, weights)
    return float(expectation_pauli_sum(states, hamiltonian)[0])


class PerformanceEstimator:
    """Estimates QML validation loss or VQE energy under device noise."""

    def __init__(self, device: Device, config: Optional[EstimatorConfig] = None) -> None:
        self.device = device
        self.config = config or EstimatorConfig()
        self.rng = ensure_rng(self.config.seed)
        self._backend = QuantumBackend(
            device,
            shots=self.config.shots,
            seed=self.config.seed,
            max_density_qubits=self.config.max_density_qubits,
        )
        self.num_queries = 0
        # Task-level artifacts (the observable PauliSum and its measurement
        # grouping) are fixed across an entire co-search, so they are derived
        # once per task instead of once per candidate.  Entries keep a strong
        # reference to the molecule: the keys are object ids, which CPython
        # may otherwise reuse after garbage collection.
        self._observables: Dict[int, Tuple[Molecule, PauliSum]] = {}
        self._measurement_plans: Dict[Tuple[int, int], Tuple[Molecule, "MeasurementPlan"]] = {}
        # Transpile caches live on the estimator (not on each ExecutionEngine)
        # so they persist across co-search restarts, across engines created
        # from the same estimator, and into the deploy/evaluate stage — the
        # ROADMAP's warm-start item.  Imported lazily to keep repro.core free
        # of an import-time dependency on repro.execution.
        from ..execution.cache import ParametricTranspileCache, TranspileCache

        self.transpile_cache = TranspileCache(_TRANSPILE_CACHE_SIZE)
        self.parametric_transpile_cache = ParametricTranspileCache(
            fallback=self.transpile_cache
        )

    # -- mode resolution ---------------------------------------------------------

    def resolve_mode(self, n_qubits: int) -> str:
        """The estimation mode used for an ``n_qubits`` candidate."""
        if self.config.mode != "auto":
            return self.config.mode
        if n_qubits <= self.config.max_density_qubits:
            return "noise_sim"
        return "success_rate"

    # -- task-level observables ---------------------------------------------------

    def observable_for(self, molecule: Molecule) -> PauliSum:
        """The molecule's Hamiltonian, derived once per task.

        The observable is identical for every candidate of a co-search; this
        hoists it out of the per-candidate hot path so implementations whose
        ``hamiltonian`` is derived lazily are only queried once.
        """
        key = id(molecule)
        if key not in self._observables:
            self._observables[key] = (molecule, molecule.hamiltonian)
        return self._observables[key][1]

    def measurement_plan_for(self, molecule: Molecule, n_qubits: int):
        """The commuting-group measurement plan, derived once per task."""
        from ..quantum.measurement import MeasurementPlan

        key = (id(molecule), int(n_qubits))
        if key not in self._measurement_plans:
            self._measurement_plans[key] = (
                molecule,
                MeasurementPlan(self.observable_for(molecule), int(n_qubits)),
            )
        return self._measurement_plans[key][1]

    def population_engine(self, supercircuit):
        """A population engine bound to this estimator.

        ``config.workers > 1`` returns the multi-process
        :class:`~repro.execution.scheduler.ShardedExecutionEngine` (whose
        worker caches merge back into this estimator's caches each
        generation); otherwise the in-process
        :class:`~repro.execution.ExecutionEngine`.  Callers should ``close()``
        the returned engine when the search is done — a no-op in-process,
        worker-pool shutdown when sharded.
        """
        if self.config.workers > 1:
            from ..execution.scheduler import ShardedExecutionEngine

            return ShardedExecutionEngine(self, supercircuit)
        from ..execution.engine import ExecutionEngine

        return ExecutionEngine(self, supercircuit)

    # -- QML -----------------------------------------------------------------------

    def estimate_qml(
        self,
        circuit: ParameterizedCircuit,
        weights: np.ndarray,
        dataset: Dataset,
        n_classes: int,
        layout=None,
    ) -> float:
        """Predicted validation loss of a QML SubCircuit (lower is better).

        This per-candidate loop is the seed path the population engines are
        checked against.  In ``noise_sim`` and ``real_qc`` every validation
        sample runs through :meth:`QuantumBackend.run`: an uncached compile,
        the one fused density kernel (as a batch of one), readout confusion
        and one #QC run per sample.  ``noise_sim`` reads the exact
        probabilities (``shots=0``); ``real_qc`` samples ``config.shots``.
        """
        self.num_queries += 1
        model = QNNModel.from_circuit(circuit, n_classes)
        features, labels = self.validation_subset(dataset)
        mode = self.resolve_mode(circuit.n_qubits)

        if mode == "noise_free":
            out = model.forward(weights, features)
            return nll_loss(softmax(out.logits), labels)

        if mode == "success_rate":
            out = model.forward(weights, features)
            noise_free = nll_loss(softmax(out.logits), labels)
            compiled = transpile(
                circuit.bind(weights, features[0]),
                self.device,
                initial_layout=layout,
                optimization_level=self.config.optimization_level,
            )
            return noise_free / compiled.success_rate()

        shots = self.config.shots if mode == "real_qc" else 0
        expectations = np.zeros((len(labels), circuit.n_qubits))
        for index, row in enumerate(features):
            expectations[index] = self._backend.run(
                circuit.bind(weights, row),
                initial_layout=layout,
                optimization_level=self.config.optimization_level,
                shots=shots,
            ).expectation_z_all()
        logits = model.logits_from_expectations(expectations)
        return nll_loss(softmax(logits), labels)

    def validation_subset(self, dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
        n_valid = len(dataset.y_valid)
        count = min(self.config.n_valid_samples, n_valid)
        index = np.arange(count)  # deterministic subset keeps candidates comparable
        return dataset.x_valid[index], dataset.y_valid[index]

    # -- VQE -----------------------------------------------------------------------

    def estimate_vqe(
        self,
        ansatz: ParameterizedCircuit,
        weights: np.ndarray,
        molecule: Molecule,
        layout=None,
    ) -> float:
        """Predicted measured energy of a VQE ansatz (lower is better).

        In ``noise_sim`` the compiled circuit runs on the one fused density
        kernel, a :class:`~repro.backends.density.BatchedDensityRunner` batch
        of one, and the energy is the Hamiltonian remapped onto the reduced
        register, read off the density matrix.  That charges no #QC run,
        and the engine's VQE path charges none either.  ``success_rate``,
        and ``noise_sim`` above ``max_density_qubits``, weight the
        noise-free energy by the compiled circuit's success rate.
        """
        self.num_queries += 1
        hamiltonian = self.observable_for(molecule)
        mode = self.resolve_mode(ansatz.n_qubits)

        if mode == "real_qc":
            from ..vqe.vqe import VQEModel

            model = VQEModel(
                ansatz,
                molecule,
                measurement_plan=self.measurement_plan_for(molecule, ansatz.n_qubits),
            )
            return model.measure_energy(
                weights,
                self._backend,
                initial_layout=layout,
                optimization_level=self.config.optimization_level,
                shots=self.config.shots,
            )

        if mode == "noise_free":
            return _noise_free_energy(ansatz, weights, hamiltonian)

        compiled = transpile(
            ansatz.bind(weights),
            self.device,
            initial_layout=layout,
            optimization_level=self.config.optimization_level,
        )
        if mode == "noise_sim":
            _reduced, used_physical = compiled.reduced_circuit()
            if len(used_physical) <= self.config.max_density_qubits:
                runner = BatchedDensityRunner(
                    self.device, self.config.max_density_qubits
                )
                row = runner.submit(compiled)
                runner.run()
                return row.pauli_expectation(
                    self.remap_hamiltonian(hamiltonian, compiled, used_physical)
                )
        # success_rate, and noise_sim above max_density_qubits
        rate = compiled.success_rate()
        noise_free_energy = _noise_free_energy(ansatz, weights, hamiltonian)
        return rate * noise_free_energy + (1.0 - rate) * hamiltonian.constant

    @staticmethod
    def remap_hamiltonian(
        hamiltonian: PauliSum, compiled, used_physical: Sequence[int]
    ) -> PauliSum:
        physical_to_reduced = {phys: i for i, phys in enumerate(used_physical)}
        terms = []
        for term in hamiltonian.terms:
            mapped = {}
            for logical, pauli in term.paulis:
                physical = compiled.final_layout[logical]
                mapped[physical_to_reduced[physical]] = pauli
            terms.append(PauliString.from_dict(term.coefficient, mapped))
        return PauliSum(terms)
