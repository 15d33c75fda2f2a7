"""VQE model: ansatz + Hamiltonian, training and noisy energy measurement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..devices.backend import QuantumBackend
from ..gradients import make_gradient_engine
from ..quantum.autodiff import adjoint_gradient
from ..quantum.circuit import ParameterizedCircuit, QuantumCircuit
from ..quantum.measurement import MeasurementPlan
from ..quantum.operators import PauliSum
from ..quantum.statevector import expectation_pauli_sum, run_parameterized
from ..utils.optimizers import Adam, CosineWarmupSchedule
from ..utils.rng import ensure_rng
from .molecules import Molecule

__all__ = ["VQEConfig", "VQEResult", "VQEModel"]


@dataclass
class VQEConfig:
    """Training hyper-parameters (paper: 1000 steps, Adam, LR 5e-3).

    ``gradient`` selects the optimization gradient: ``"adjoint"`` (the fast
    classical-simulation default) or ``"parameter_shift"`` (the
    hardware-compatible rule, routed through the batched gradient engines —
    noise-free without a backend, noisy/measured with one).
    ``gradient_workers`` (default: the ``REPRO_WORKERS`` environment
    variable) shards each step's shifted evaluations across worker
    processes; ``gradient_engine`` picks ``"batched"`` (the default) or
    ``"sequential"`` row evaluation.  ``shots`` overrides the
    backend's shot count for parameter-shift energy evaluations (``0`` means
    exact noisy simulation).
    """

    steps: int = 300
    learning_rate: float = 5e-3
    weight_decay: float = 1e-4
    warmup_steps: int = 0
    seed: int = 0
    gradient: str = "adjoint"
    gradient_engine: str = "batched"
    gradient_workers: Optional[int] = None
    shots: Optional[int] = None
    optimization_level: int = 2


@dataclass
class VQEResult:
    """Optimized parameters and the energy trajectory."""

    weights: np.ndarray
    energies: List[float] = field(default_factory=list)

    @property
    def final_energy(self) -> float:
        return self.energies[-1] if self.energies else float("nan")

    @property
    def best_energy(self) -> float:
        return min(self.energies) if self.energies else float("nan")


class VQEModel:
    """A variational eigensolver for one molecule with a given ansatz."""

    def __init__(
        self,
        ansatz: ParameterizedCircuit,
        molecule: Molecule,
        measurement_plan: Optional[MeasurementPlan] = None,
    ) -> None:
        if ansatz.n_qubits < molecule.n_qubits:
            raise ValueError("ansatz has fewer qubits than the molecule requires")
        self.ansatz = ansatz
        self.molecule = molecule
        if measurement_plan is not None:
            # A hoisted plan (e.g. the estimator's per-task cache) avoids
            # re-deriving the commuting-group decomposition per candidate.
            if measurement_plan.n_qubits != ansatz.n_qubits:
                raise ValueError("measurement plan does not match the ansatz size")
            self.hamiltonian: PauliSum = measurement_plan.observable
        else:
            self.hamiltonian = molecule.hamiltonian
        self._measurement_plan = measurement_plan

    @property
    def measurement_plan(self) -> MeasurementPlan:
        """The commuting-group plan of the Hamiltonian, built on first read
        when none was passed: noise-free training never measures, and
        SuperCircuit training builds a model per step."""
        if self._measurement_plan is None:
            self._measurement_plan = MeasurementPlan(
                self.hamiltonian, self.ansatz.n_qubits
            )
        return self._measurement_plan

    @property
    def num_weights(self) -> int:
        return self.ansatz.num_weights

    def init_weights(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = ensure_rng(rng)
        # Small initial angles keep the ansatz near the reference state, the
        # usual VQE initialisation.
        return 0.1 * rng.normal(size=self.num_weights)

    # -- noise-free energy -----------------------------------------------------

    def energy(self, weights: np.ndarray) -> float:
        states = run_parameterized(self.ansatz, weights)
        return float(expectation_pauli_sum(states, self.hamiltonian)[0])

    def energy_and_gradient(self, weights: np.ndarray):
        states = run_parameterized(self.ansatz, weights)
        energy = float(expectation_pauli_sum(states, self.hamiltonian)[0])
        grads = adjoint_gradient(
            self.ansatz, weights, observable=self.hamiltonian, states_final=states
        )
        return energy, grads

    # -- training ---------------------------------------------------------------

    def train(
        self,
        config: Optional[VQEConfig] = None,
        initial_weights: Optional[np.ndarray] = None,
        weight_mask: Optional[np.ndarray] = None,
        backend: Optional[QuantumBackend] = None,
        initial_layout=None,
    ) -> VQEResult:
        """Minimize the energy with Adam (optionally with frozen weights).

        With ``config.gradient == "parameter_shift"``, each step's energy
        and gradient come from one batched shift-rule evaluation —
        noise-free without a ``backend``, under its noise model otherwise —
        and the trajectory's final entry is the same evaluator's energy, so
        the recorded energies are consistent with what drove optimization.
        """
        config = config or VQEConfig()
        rng = ensure_rng(config.seed)
        weights = (
            self.init_weights(rng)
            if initial_weights is None
            else np.array(initial_weights, dtype=float)
        )
        if weight_mask is None:
            weight_mask = np.ones_like(weights, dtype=bool)
        weight_mask = np.asarray(weight_mask, dtype=bool)
        schedule = CosineWarmupSchedule(
            base_lr=config.learning_rate,
            total_steps=max(config.steps, 1),
            warmup_steps=config.warmup_steps,
        )
        optimizer = Adam(
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
            schedule=schedule,
        )
        engine = None
        if config.gradient == "parameter_shift":
            engine = make_gradient_engine(
                backend, initial_layout=initial_layout, shots=config.shots,
                seed=config.seed, optimization_level=config.optimization_level,
                workers=config.gradient_workers,
                engine=config.gradient_engine,
            )
        elif config.gradient != "adjoint":
            raise ValueError(f"unknown VQE gradient {config.gradient!r}")
        try:
            energies: List[float] = []
            for _step in range(config.steps):
                if engine is None:
                    energy, grads = self.energy_and_gradient(weights)
                else:
                    energy, grads = self._shift_energy_and_gradient(
                        engine, weights
                    )
                grads = np.where(weight_mask, grads, 0.0)
                weights = optimizer.step(weights, grads, mask=weight_mask)
                energies.append(energy)
            if engine is None:
                energies.append(self.energy(weights))
            else:
                energies.append(
                    float(
                        engine.vqe_energy_rows(
                            self.ansatz,
                            self.measurement_plan,
                            weights[None, :],
                            witness_weights=weights,
                        )[0]
                    )
                )
        finally:
            if engine is not None:
                engine.close()
        return VQEResult(weights=weights, energies=energies)

    def _shift_energy_and_gradient(self, engine, weights: np.ndarray):
        """One batched shift-rule step: center + shifted rows, one dispatch."""
        weights = np.asarray(weights, dtype=float)
        plan = engine.shift_plan(self.ansatz)
        rows = np.concatenate(
            [weights[None, :], plan.shifted_weight_rows(weights)]
        )
        energies = engine.vqe_energy_rows(
            self.ansatz, self.measurement_plan, rows, witness_weights=weights
        )
        return float(energies[0]), plan.jacobian_from_shifted(energies[1:])

    # -- noisy measurement -------------------------------------------------------

    def bound_circuit(self, weights: np.ndarray) -> QuantumCircuit:
        return self.ansatz.bind(weights)

    def measure_energy(
        self,
        weights: np.ndarray,
        backend: QuantumBackend,
        initial_layout=None,
        optimization_level: int = 2,
        shots: Optional[int] = None,
    ) -> float:
        """Measured expectation value on a noisy backend.

        Every qubit-wise commuting measurement group is executed as its own
        circuit (state preparation + basis change), exactly as on hardware.
        """
        prepared = self.bound_circuit(weights)
        group_probabilities = []
        for basis_change, _terms in self.measurement_plan.settings():
            circuit = prepared.compose(basis_change)
            result = backend.run(
                circuit,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
                shots=shots,
            )
            group_probabilities.append(result.probabilities)
        return self.measurement_plan.expectation_from_group_probabilities(
            group_probabilities
        )
