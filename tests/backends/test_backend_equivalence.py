"""The mode's backend is a pure reorganization of the same numbers.

Population scores computed on the backend of each estimator mode must match
the per-candidate sequential seed path to 1e-9 across qubit counts
(2q/4q/6q), tasks (QML and VQE) and estimator modes
(``noise_sim``/``success_rate``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BackendCapabilityError,
    DensityMatrixBackend,
    SimulationJob,
)
from repro.core import EvolutionConfig, EvolutionEngine, SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.qml.encoders import EncoderSpec
from repro.qml import make_classification_dataset
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operators import PauliSum
from repro.transpile import transpile
from repro.vqe.molecules import load_molecule

ATOL = 1e-9


def make_population(space, n_qubits, device, seed, size):
    evolution = EvolutionEngine(space, n_qubits, device, EvolutionConfig(seed=seed))
    return [evolution.random_candidate() for _ in range(size)]


def qml_task(n_qubits: int):
    """A small n-qubit QML task: per-qubit ry/rz encoder + matching dataset."""
    encoder = EncoderSpec(
        f"test_{n_qubits}q", n_qubits, (("ry", n_qubits), ("rz", n_qubits))
    )
    dataset = make_classification_dataset(
        f"tiny-{n_qubits}q", n_classes=2, n_features=encoder.n_features,
        n_train=12, n_valid=6, n_test=6, seed=5,
    )
    return encoder, dataset


def qml_scores(device, supercircuit, dataset, candidates, mode, n_valid=3):
    estimator = PerformanceEstimator(
        device, EstimatorConfig(mode=mode, n_valid_samples=n_valid)
    )
    with ExecutionEngine(estimator, supercircuit) as engine:
        scores = engine.evaluate_qml_population(candidates, dataset, 2)
        return scores, engine


@pytest.mark.parametrize("n_qubits,device_name", [(2, "yorktown"), (6, "jakarta")])
@pytest.mark.parametrize("mode", ["noise_sim", "success_rate"])
def test_qml_dispatch_matches_sequential_across_widths(seed_path_scorer, n_qubits,
                                                       device_name, mode):
    device = get_device(device_name)
    space = get_design_space("u3cu3")
    encoder, dataset = qml_task(n_qubits)
    supercircuit = SuperCircuit(space, n_qubits, encoder=encoder, seed=3)
    candidates = make_population(space, n_qubits, device, seed=11, size=3)

    sequential = seed_path_scorer(
        device, supercircuit, EstimatorConfig(mode=mode, n_valid_samples=3),
        dataset=dataset, n_classes=2,
    )(candidates)
    batched, engine = qml_scores(
        device, supercircuit, dataset, candidates, mode
    )
    np.testing.assert_allclose(batched, sequential, rtol=0, atol=ATOL)
    if mode == "noise_sim":
        assert engine.stats.density_circuits == 3 * 3
    else:
        assert engine.stats.statevector_batches >= len(
            {tuple(c.config.as_gene()) for c in candidates}
        )


@pytest.mark.parametrize("molecule_name,device_name", [
    ("h2", "yorktown"),     # 2 qubits
    ("lih", "jakarta"),     # 6 qubits
])
@pytest.mark.parametrize("mode", ["noise_sim", "success_rate"])
def test_vqe_dispatch_matches_sequential_across_widths(seed_path_scorer,
                                                       molecule_name,
                                                       device_name, mode):
    molecule = load_molecule(molecule_name)
    device = get_device(device_name)
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    candidates = make_population(space, molecule.n_qubits, device, seed=7, size=3)

    estimator = PerformanceEstimator(device, EstimatorConfig(mode=mode))
    with ExecutionEngine(estimator, supercircuit) as engine:
        scores = engine.evaluate_vqe_population(candidates, molecule)

    sequential = seed_path_scorer(
        device, supercircuit, EstimatorConfig(mode=mode), molecule=molecule
    )(candidates)
    np.testing.assert_allclose(scores, sequential, rtol=0, atol=ATOL)


@pytest.mark.parametrize("mode,n_valid,population", [
    ("success_rate", 4, 8),
    ("noise_sim", 2, 6),
])
def test_evolution_rankings_match_under_dispatch(u3cu3_supercircuit, yorktown,
                                                 tiny_dataset, seed_path_scorer,
                                                 mode, n_valid, population):
    """Seeded searches driven by the dispatched engines visit identical
    populations and produce identical rankings to the sequential path."""
    space = get_design_space("u3cu3")
    evolution_config = EvolutionConfig(
        iterations=2, population_size=population, parent_size=3,
        mutation_size=max(2, population - 5), crossover_size=2, seed=9,
    )
    config = EstimatorConfig(mode=mode, n_valid_samples=n_valid)
    sequential = EvolutionEngine(space, 4, yorktown, evolution_config).search(
        population_score_fn=seed_path_scorer(
            yorktown, u3cu3_supercircuit, config,
            dataset=tiny_dataset, n_classes=4,
        )
    )
    estimator = PerformanceEstimator(yorktown, config)
    with ExecutionEngine(estimator, u3cu3_supercircuit) as execution:
        batched = EvolutionEngine(space, 4, yorktown, evolution_config).search(
            population_score_fn=execution.qml_population_scorer(tiny_dataset, 4)
        )
    assert batched.best.gene() == sequential.best.gene()
    assert batched.evaluated == sequential.evaluated
    assert batched.best_score == pytest.approx(sequential.best_score, abs=ATOL)


def test_approximated_rows_refuse_pauli_expectations(yorktown):
    """A register above ``max_density_qubits`` takes the success-rate
    approximation: its row carries probabilities but no density matrix, so
    an observable request is a capability error, not a crash."""
    ghz = QuantumCircuit(3)
    ghz.add("h", (0,))
    ghz.add("cx", (0, 1))
    ghz.add("cx", (1, 2))
    compiled = transpile(ghz, yorktown, seed=0)
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="noise_sim", max_density_qubits=2)
    )
    backend = DensityMatrixBackend(estimator)
    handle = backend.run_group(None, [SimulationJob(compiled=compiled)])[0]
    backend.synchronize()

    with pytest.raises(BackendCapabilityError, match="approximate"):
        handle.pauli_expectation(PauliSum.from_labels([(1.0, "ZZZ")]))
    assert handle.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
