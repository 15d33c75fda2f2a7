"""The device backend's plumbing against the dense oracle's route.

``QuantumBackend`` simulates every compiled circuit on the fused
:class:`~repro.backends.density.BatchedDensityRunner`, as does the
estimator's seed path.  These tests check what the backend does around the
kernel: its probabilities equal the dense oracle's route (reduce, evolve
densely, read out, marginalize; ``test_dense_oracle.py``) to 1e-12, its
oversized-register fallback equals the success-rate route exactly, and its
shot counts equal sampling the reference probabilities with the same seed.
The last test pins the #QC-runs charge of the seed path.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.supercircuit import SuperCircuit
from repro.devices.backend import (
    QuantumBackend,
    approximate_probabilities,
    logical_probabilities,
)
from repro.devices.library import get_device
from repro.quantum.measurement import sample_counts
from repro.transpile.compiler import transpile
from repro.utils.rng import ensure_rng
from repro.vqe import load_molecule
from repro.vqe.vqe import VQEModel


def _load_oracle():
    # test directories are not packages: load the oracle module by path
    path = Path(__file__).resolve().parents[1] / "quantum" / "test_dense_oracle.py"
    spec = importlib.util.spec_from_file_location("dense_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

TOL = 1e-12


def reference_probabilities(compiled, device, n_logical, max_density_qubits=10):
    """The oracle's dense route, or the success-rate route for a register
    above ``max_density_qubits``."""
    reduced, used_physical = compiled.reduced_circuit()
    if reduced.n_qubits <= max_density_qubits:
        return oracle.density_route(compiled, device, n_logical)
    reduced_probs = approximate_probabilities(
        reduced, device.noise_model().reduced(used_physical)
    )
    return logical_probabilities(reduced_probs, compiled, used_physical, n_logical)


@pytest.fixture(scope="module")
def routed_qml_bind(u3cu3_supercircuit, yorktown):
    """A 4-qubit QML bind on yorktown whose routing inserts swaps."""
    evolution = EvolutionEngine(
        get_design_space("u3cu3"), 4, yorktown, EvolutionConfig(seed=2)
    )
    config = evolution.random_config()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
    weights = u3cu3_supercircuit.inherited_weights(config)
    bound = circuit.bind(weights, np.linspace(-1.0, 1.0, 16))
    compiled = transpile(bound, yorktown, initial_layout=(0, 1, 3, 4))
    assert compiled.num_swaps > 0
    return compiled


@pytest.fixture(scope="module")
def lih_group_circuits():
    """Every LiH measurement-group circuit, compiled for jakarta."""
    device = get_device("jakarta")
    molecule = load_molecule("lih")
    space = dataclasses.replace(get_design_space("u3cu3"), max_blocks=2)
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=4)
    config = EvolutionEngine(
        space, molecule.n_qubits, device, EvolutionConfig(seed=4)
    ).random_config()
    ansatz, _ = supercircuit.build_standalone_circuit(
        config, include_encoder=False
    )
    model = VQEModel(ansatz, molecule)
    prepared = model.bound_circuit(supercircuit.inherited_weights(config))
    compiled = [
        transpile(prepared.compose(basis_change), device,
                  initial_layout=(6, 5, 3, 1, 0, 2))
        for basis_change, _terms in model.measurement_plan.settings()
    ]
    assert len(compiled) >= 2
    return device, molecule.n_qubits, compiled


def test_routed_qml_bind_matches_reference_kernel(routed_qml_bind, yorktown):
    result = QuantumBackend(yorktown, shots=0).run_compiled(routed_qml_bind, 4)
    expected = reference_probabilities(routed_qml_bind, yorktown, 4)
    assert np.abs(result.probabilities - expected).max() <= TOL


def test_lih_measurement_groups_match_reference_kernel(lih_group_circuits):
    device, n_logical, circuits = lih_group_circuits
    backend = QuantumBackend(device, shots=0)
    for compiled in circuits:
        result = backend.run_compiled(compiled, n_logical)
        expected = reference_probabilities(compiled, device, n_logical)
        assert np.abs(result.probabilities - expected).max() <= TOL
    assert backend.executions == len(circuits)


def test_oversized_register_matches_approximation_route(lih_group_circuits):
    device, n_logical, circuits = lih_group_circuits
    backend = QuantumBackend(device, shots=0, max_density_qubits=4)
    for compiled in circuits:
        assert len(compiled.reduced_circuit()[1]) > 4
        result = backend.run_compiled(compiled, n_logical)
        expected = reference_probabilities(
            compiled, device, n_logical, max_density_qubits=4
        )
        assert np.array_equal(result.probabilities, expected)


def test_shot_counts_match_sampling_the_reference(routed_qml_bind, yorktown):
    shots, seed = 2048, 17
    result = QuantumBackend(yorktown, shots=shots, seed=seed).run_compiled(
        routed_qml_bind, 4
    )
    counts = sample_counts(
        reference_probabilities(routed_qml_bind, yorktown, 4), shots,
        ensure_rng(seed),
    )
    assert result.shots == shots
    assert np.array_equal(result.probabilities, counts / counts.sum())


@pytest.mark.parametrize("mode", ["noise_sim", "real_qc"])
def test_estimate_qml_charges_one_execution_per_row(
    mode, u3cu3_supercircuit, yorktown, tiny_dataset
):
    n_rows = 3
    estimator = PerformanceEstimator(
        yorktown,
        EstimatorConfig(mode=mode, n_valid_samples=n_rows, shots=256, workers=1),
    )
    evolution = EvolutionEngine(
        get_design_space("u3cu3"), 4, yorktown, EvolutionConfig(seed=5)
    )
    candidate = evolution.random_candidate()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    before = estimator._backend.executions
    estimator.estimate_qml(circuit, weights, tiny_dataset, 4,
                           layout=candidate.mapping)
    assert estimator._backend.executions - before == n_rows
