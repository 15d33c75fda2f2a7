"""Tests for the batched statevector simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.circuit import ParameterizedCircuit, QuantumCircuit
from repro.quantum.operators import PauliString, PauliSum
from repro.quantum.statevector import (
    apply_matrix,
    apply_pauli_sum,
    circuit_unitary,
    expectation_pauli_sum,
    expectation_z,
    expectation_z_all,
    probabilities,
    run_circuit,
    run_parameterized,
    state_fidelity,
    zero_state,
)


def _random_circuit(n_qubits, n_gates, rng):
    circuit = QuantumCircuit(n_qubits)
    gates_1q = ["h", "x", "rx", "ry", "rz", "u3", "s", "t", "sx"]
    gates_2q = ["cx", "cz", "rzz", "cu3", "swap"]
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.4:
            name = rng.choice(gates_2q)
            qubits = tuple(rng.choice(n_qubits, size=2, replace=False))
        else:
            name = rng.choice(gates_1q)
            qubits = (int(rng.integers(n_qubits)),)
        from repro.quantum.gates import gate_num_params

        params = tuple(rng.uniform(-np.pi, np.pi, size=gate_num_params(name)))
        circuit.add(name, qubits, params)
    return circuit


def test_zero_state_normalised():
    states = zero_state(3, batch=5)
    assert states.shape == (5, 2, 2, 2)
    assert np.allclose(probabilities(states).sum(axis=1), 1.0)
    assert np.allclose(probabilities(states)[:, 0], 1.0)


def test_bell_state_probabilities():
    circuit = QuantumCircuit(2)
    circuit.add("h", (0,))
    circuit.add("cx", (0, 1))
    probs = probabilities(run_circuit(circuit))[0]
    assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(5):
        circuit = _random_circuit(3, 12, rng)
        states = run_circuit(circuit)
        assert np.isclose(probabilities(states).sum(), 1.0, atol=1e-10)


def test_apply_matrix_matches_full_unitary():
    """Local application equals embedding the gate in the full register."""
    rng = np.random.default_rng(5)
    circuit = _random_circuit(3, 8, rng)
    unitary = circuit_unitary(circuit)
    state_direct = run_circuit(circuit)[0].reshape(-1)
    state_from_unitary = unitary[:, 0]
    assert np.allclose(state_direct, state_from_unitary, atol=1e-10)


def test_apply_matrix_batched_per_sample_matrices():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-np.pi, np.pi, size=3)
    from repro.quantum.gates import gate_matrix

    matrices = np.stack([gate_matrix("ry", (t,)) for t in thetas])
    states = zero_state(2, batch=3)
    batched = apply_matrix(states, matrices, (1,))
    for index, theta in enumerate(thetas):
        single = apply_matrix(zero_state(2, 1), gate_matrix("ry", (theta,)), (1,))
        assert np.allclose(batched[index], single[0])


def test_expectation_z_matches_dense():
    rng = np.random.default_rng(11)
    circuit = _random_circuit(3, 10, rng)
    states = run_circuit(circuit)
    vector = states[0].reshape(-1)
    for qubit in range(3):
        dense = PauliString.from_dict(1.0, {qubit: "Z"}).to_matrix(3)
        expected = np.real(vector.conj() @ dense @ vector)
        assert np.isclose(expectation_z(states, qubit)[0], expected, atol=1e-10)
    all_z = expectation_z_all(states)
    assert all_z.shape == (1, 3)


def test_expectation_pauli_sum_matches_dense():
    rng = np.random.default_rng(13)
    circuit = _random_circuit(3, 10, rng)
    states = run_circuit(circuit)
    vector = states[0].reshape(-1)
    observable = PauliSum.from_terms(
        [(0.5, {0: "X", 1: "Y"}), (-0.7, {2: "Z"}), (0.2, {}), (1.1, {0: "Z", 2: "X"})]
    )
    dense = observable.to_matrix(3)
    expected = np.real(vector.conj() @ dense @ vector)
    assert np.isclose(expectation_pauli_sum(states, observable)[0], expected, atol=1e-9)


def test_apply_pauli_sum_matches_dense():
    rng = np.random.default_rng(17)
    circuit = _random_circuit(2, 6, rng)
    states = run_circuit(circuit)
    observable = PauliSum.from_terms([(0.3, {0: "X"}), (0.9, {0: "Z", 1: "Z"})])
    applied = apply_pauli_sum(states, observable)[0].reshape(-1)
    dense = observable.to_matrix(2) @ states[0].reshape(-1)
    assert np.allclose(applied, dense, atol=1e-10)


@pytest.mark.parametrize("qubit", [2, 3, 5])
def test_expectation_pauli_sum_rejects_qubit_outside_register(qubit):
    states = zero_state(2, batch=2)
    observable = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {qubit: "Y"})])
    with pytest.raises(ValueError, match=f"qubit {qubit}, outside the 2-qubit"):
        expectation_pauli_sum(states, observable)


@pytest.mark.parametrize("qubit", [2, 3, 5])
def test_apply_pauli_sum_rejects_qubit_outside_register(qubit):
    states = zero_state(2, batch=2)
    observable = PauliSum.from_terms([(0.5, {qubit: "X"})])
    with pytest.raises(ValueError, match=f"qubit {qubit}, outside the 2-qubit"):
        apply_pauli_sum(states, observable)


def test_run_parameterized_batches_match_individual_binds():
    pcirc = ParameterizedCircuit(2)
    pcirc.add_encoder("ry", (0,), (0,))
    pcirc.add_encoder("rz", (1,), (1,))
    pcirc.add_trainable("cu3", (0, 1))
    rng = np.random.default_rng(19)
    weights = pcirc.init_weights(rng)
    features = rng.uniform(0, np.pi, size=(4, 2))
    batched = run_parameterized(pcirc, weights, features)
    for index in range(4):
        bound = pcirc.bind(weights, features[index])
        single = run_circuit(bound)
        assert np.allclose(batched[index], single[0], atol=1e-10)


def test_circuit_unitary_is_unitary():
    rng = np.random.default_rng(23)
    circuit = _random_circuit(3, 9, rng)
    unitary = circuit_unitary(circuit)
    assert np.allclose(unitary @ unitary.conj().T, np.eye(8), atol=1e-10)


def test_state_fidelity_bounds():
    a = zero_state(2)[0]
    circuit = QuantumCircuit(2)
    circuit.add("x", (0,))
    b = run_circuit(circuit)[0]
    assert np.isclose(state_fidelity(a, a), 1.0)
    assert np.isclose(state_fidelity(a, b), 0.0)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-np.pi, np.pi, allow_nan=False))
def test_ry_rotation_expectation(theta):
    """<Z> after RY(theta) on |0> equals cos(theta)."""
    circuit = QuantumCircuit(1)
    circuit.add("ry", (0,), (theta,))
    states = run_circuit(circuit)
    assert np.isclose(expectation_z(states, 0)[0], np.cos(theta), atol=1e-9)
