"""The estimator derives task-level observables once, not once per candidate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.execution import ExecutionEngine
from repro.vqe.molecules import load_molecule


class CountingMolecule:
    """Duck-typed molecule whose Hamiltonian derivation is counted.

    Mimics a molecule that builds its observable lazily (integral evaluation,
    operator mapping, ...) — exactly the work the estimator must not repeat
    per candidate when the task is fixed.
    """

    def __init__(self, base):
        self._base = base
        self.name = base.name
        self.n_qubits = base.n_qubits
        self.ground_energy = base.ground_energy
        self.hamiltonian_derivations = 0

    @property
    def hamiltonian(self):
        self.hamiltonian_derivations += 1
        return self._base.hamiltonian


@pytest.fixture
def h2_setup():
    molecule = CountingMolecule(load_molecule("h2"))
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    from repro.core.subcircuit import SubCircuitConfig

    sub_config = SubCircuitConfig.full(space, molecule.n_qubits)
    ansatz, _ = supercircuit.build_standalone_circuit(sub_config,
                                                      include_encoder=False)
    weights = supercircuit.inherited_weights(sub_config)
    return molecule, supercircuit, ansatz, weights


@pytest.mark.parametrize("mode", ["success_rate", "noise_sim", "noise_free"])
def test_estimator_derives_observable_once(h2_setup, yorktown, mode):
    molecule, _supercircuit, ansatz, weights = h2_setup
    estimator = PerformanceEstimator(yorktown, EstimatorConfig(mode=mode))

    energies = [
        estimator.estimate_vqe(ansatz, weights + 0.01 * step, molecule,
                               layout=(0, 1))
        for step in range(4)
    ]
    assert len(set(energies)) == 4  # genuinely different candidates
    assert molecule.hamiltonian_derivations == 1


def test_measurement_plan_built_once_for_real_qc(h2_setup, yorktown, monkeypatch):
    molecule, _supercircuit, ansatz, weights = h2_setup
    import repro.quantum.measurement as measurement_module

    constructions = []
    original_init = measurement_module.MeasurementPlan.__init__

    def counting_init(self, observable, n_qubits):
        constructions.append(n_qubits)
        original_init(self, observable, n_qubits)

    monkeypatch.setattr(measurement_module.MeasurementPlan, "__init__",
                        counting_init)

    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="real_qc", shots=256)
    )
    for step in range(3):
        estimator.estimate_vqe(ansatz, weights + 0.01 * step, molecule,
                               layout=(0, 1))
    assert constructions == [molecule.n_qubits]
    assert molecule.hamiltonian_derivations == 1


def test_engine_batched_vqe_uses_hoisted_observable(h2_setup, yorktown):
    molecule, supercircuit, _ansatz, _weights = h2_setup
    from repro.core import EvolutionConfig, EvolutionEngine

    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, molecule.n_qubits, yorktown,
                                EvolutionConfig(seed=1))
    candidates = [evolution.random_candidate() for _ in range(6)]

    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="success_rate")
    )
    engine = ExecutionEngine(estimator, supercircuit)
    engine.evaluate_vqe_population(candidates, molecule)
    engine.evaluate_vqe_population(candidates[:3], molecule)
    assert molecule.hamiltonian_derivations == 1
