"""Tests for the density-matrix simulator and noisy execution."""

import numpy as np
import pytest

from repro.noise.channels import depolarizing_kraus, thermal_relaxation_kraus
from repro.noise.models import NoiseModel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import (
    DensityMatrixSimulator,
    apply_kraus,
    apply_unitary,
    density_probabilities,
    expectation_pauli_sum_dm,
    expectation_z_all_dm,
    kraus_to_superoperator,
    purity,
    zero_density_matrix,
)
from repro.quantum.operators import PauliSum
from repro.quantum.statevector import expectation_z_all, probabilities, run_circuit


def _bell_circuit():
    circuit = QuantumCircuit(2)
    circuit.add("h", (0,))
    circuit.add("cx", (0, 1))
    return circuit


def _random_density_matrix(n_qubits, seed=0):
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    rho /= np.trace(rho)
    return rho.reshape((2,) * (2 * n_qubits))


def test_noiseless_density_matrix_matches_statevector():
    circuit = _bell_circuit()
    simulator = DensityMatrixSimulator(2, noise_model=None)
    rho_probs = density_probabilities(simulator.run(circuit))
    sv_probs = probabilities(run_circuit(circuit))[0]
    assert np.allclose(rho_probs, sv_probs, atol=1e-10)


def test_noiseless_z_expectations_match_statevector():
    circuit = QuantumCircuit(3)
    circuit.add("ry", (0,), (0.7,))
    circuit.add("cx", (0, 1))
    circuit.add("rx", (2,), (1.2,))
    simulator = DensityMatrixSimulator(3)
    dm_expectations = simulator.expectation_z_all(circuit, with_readout_error=False)
    sv_expectations = expectation_z_all(run_circuit(circuit))[0]
    assert np.allclose(dm_expectations, sv_expectations, atol=1e-10)


def test_pure_state_purity_one_and_noise_reduces_it():
    circuit = _bell_circuit()
    clean = DensityMatrixSimulator(2).run(circuit)
    assert np.isclose(purity(clean), 1.0, atol=1e-10)
    noisy_model = NoiseModel.uniform(2, two_qubit_error=0.05, edges=[(0, 1)])
    noisy = DensityMatrixSimulator(2, noisy_model).run(circuit)
    assert purity(noisy) < 1.0 - 1e-4


def test_kraus_application_preserves_trace():
    rho = _random_density_matrix(3)
    for kraus in (depolarizing_kraus(0.2, 1), thermal_relaxation_kraus(50.0, 40.0, 0.3)):
        out = apply_kraus(rho, kraus, (1,))
        assert np.isclose(
            np.trace(out.reshape(8, 8)).real, 1.0, atol=1e-9
        )


def test_superoperator_path_matches_naive_sum():
    rho = _random_density_matrix(3, seed=4)
    kraus = depolarizing_kraus(0.15, 2)
    fast = apply_kraus(rho, kraus, (0, 2))
    slow = np.zeros_like(rho)
    from repro.quantum.density_matrix import _apply_left, _apply_right

    for op in kraus:
        slow = slow + _apply_right(_apply_left(rho, op, (0, 2), 3), op, (0, 2), 3)
    assert np.allclose(fast, slow, atol=1e-10)


def test_kraus_to_superoperator_identity_channel():
    superop = kraus_to_superoperator([np.eye(2)])
    expected = np.einsum("ac,bd->abcd", np.eye(2), np.eye(2))
    assert np.allclose(superop, expected)


def test_full_depolarizing_gives_maximally_mixed_state():
    rho = zero_density_matrix(1)
    out = apply_kraus(rho, depolarizing_kraus(1.0, 1), (0,))
    matrix = out.reshape(2, 2)
    # with p=1 the state becomes (rho + X rho X + Y rho Y + Z rho Z)/3 which for
    # |0><0| has 1/3 vs 2/3 populations; just check it is mixed and unit trace
    assert np.isclose(np.trace(matrix).real, 1.0)
    assert purity(out) < 1.0


def test_expectation_pauli_sum_dm_matches_dense():
    rho = _random_density_matrix(2, seed=7)
    observable = PauliSum.from_terms(
        [(0.4, {0: "X"}), (0.6, {0: "Z", 1: "Z"}), (0.25, {})]
    )
    dense = observable.to_matrix(2)
    expected = float(np.real(np.trace(dense @ rho.reshape(4, 4))))
    assert np.isclose(expectation_pauli_sum_dm(rho, observable), expected, atol=1e-10)


@pytest.mark.parametrize("qubit", [2, 3, 4, 7])
def test_expectation_pauli_sum_dm_rejects_qubit_outside_register(qubit):
    """A term on qubit n <= q < 2n must not read the bra axis of qubit q - n."""
    rho = _random_density_matrix(2, seed=7)
    observable = PauliSum.from_terms([(1.0, {qubit: "X"})])
    with pytest.raises(ValueError, match=f"qubit {qubit}, outside the 2-qubit"):
        expectation_pauli_sum_dm(rho, observable)


def test_readout_error_biases_probabilities():
    circuit = QuantumCircuit(1)  # stays in |0>
    model = NoiseModel.uniform(1, single_qubit_error=0.0, readout_error=0.1)
    simulator = DensityMatrixSimulator(1, model)
    probs = simulator.probabilities(circuit, with_readout_error=True)
    assert probs[1] == pytest.approx(0.1, abs=1e-6)


def test_expectation_z_all_dm_shape():
    rho = zero_density_matrix(3)
    values = expectation_z_all_dm(rho)
    assert values.shape == (3,)
    assert np.allclose(values, 1.0)


def test_simulator_rejects_size_mismatch():
    simulator = DensityMatrixSimulator(2)
    with pytest.raises(ValueError):
        simulator.run(QuantumCircuit(3))


def test_unitary_application_matches_statevector_product():
    circuit = QuantumCircuit(2)
    circuit.add("u3", (0,), (0.3, 0.1, -0.4))
    circuit.add("cx", (0, 1))
    rho = zero_density_matrix(2)
    for instruction in circuit.instructions:
        rho = apply_unitary(rho, instruction.matrix(), instruction.qubits)
    sv = run_circuit(circuit)[0].reshape(-1)
    expected = np.outer(sv, sv.conj())
    assert np.allclose(rho.reshape(4, 4), expected, atol=1e-10)
