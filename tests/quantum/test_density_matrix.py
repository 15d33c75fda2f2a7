"""Tests for the fused density kernel and noisy execution on the runner."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.density import BatchedDensityRunner
from repro.noise.channels import depolarizing_kraus, thermal_relaxation_kraus
from repro.noise.models import NoiseModel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import (
    apply_fused_positions,
    channel_superoperator,
    density_probabilities,
    expectation_pauli_sum_dm,
    kraus_to_superoperator,
    zero_density_matrices,
)
from repro.quantum.measurement import expectation_z_all_from_probabilities
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


def _evolve(circuit, noise_model=None):
    """``circuit`` from ``|0..0>`` on the fused kernel, under the noise
    model's channels after each gate (none without a model)."""
    positions = [
        (
            instruction.matrix(),
            instruction.qubits,
            None if noise_model is None else channel_superoperator(
                noise_model.channels_for(instruction), instruction.qubits
            ),
        )
        for instruction in circuit.instructions
    ]
    return apply_fused_positions(
        zero_density_matrices(circuit.n_qubits), positions
    )[0]


def _apply_channel(rho, kraus, qubits):
    """One Kraus channel on ``qubits`` of one state, through the fused
    kernel (an identity gate carrying the channel)."""
    identity = np.eye(2 ** len(qubits), dtype=complex)
    superop = channel_superoperator([(kraus, tuple(qubits))], tuple(qubits))
    return apply_fused_positions(rho[None], [(identity, tuple(qubits), superop)])[0]


def _purity(rho):
    dim = 2 ** (rho.ndim // 2)
    matrix = rho.reshape(dim, dim)
    return float(np.real(np.trace(matrix @ matrix)))


def test_noiseless_density_matrix_matches_statevector():
    circuit = _bell_circuit()
    rho_probs = density_probabilities(_evolve(circuit))
    sv_probs = probabilities(run_circuit(circuit))[0]
    assert np.allclose(rho_probs, sv_probs, atol=1e-10)


def test_noiseless_z_expectations_match_statevector():
    circuit = QuantumCircuit(3)
    circuit.add("ry", (0,), (0.7,))
    circuit.add("cx", (0, 1))
    circuit.add("rx", (2,), (1.2,))
    dm_expectations = expectation_z_all_from_probabilities(
        density_probabilities(_evolve(circuit)), 3
    )
    sv_expectations = expectation_z_all(run_circuit(circuit))[0]
    assert np.allclose(dm_expectations, sv_expectations, atol=1e-10)


def test_pure_state_purity_one_and_noise_reduces_it():
    circuit = _bell_circuit()
    assert np.isclose(_purity(_evolve(circuit)), 1.0, atol=1e-10)
    noisy_model = NoiseModel.uniform(2, two_qubit_error=0.05, edges=[(0, 1)])
    assert _purity(_evolve(circuit, noisy_model)) < 1.0 - 1e-4


def test_kraus_application_preserves_trace():
    rho = _random_density_matrix(3)
    for kraus in (depolarizing_kraus(0.2, 1), thermal_relaxation_kraus(50.0, 40.0, 0.3)):
        out = _apply_channel(rho, kraus, (1,))
        assert np.isclose(
            np.trace(out.reshape(8, 8)).real, 1.0, atol=1e-9
        )


def test_superoperator_path_matches_naive_sum():
    rho = _random_density_matrix(3, seed=4)
    kraus = depolarizing_kraus(0.15, 2)
    fast = _apply_channel(rho, kraus, (0, 2))
    # sum K rho K^dagger with each K on qubits (0, 2) written as an einsum
    # over the ket and bra axes of those qubits
    slow = np.zeros_like(rho)
    for op in kraus:
        op = op.reshape(2, 2, 2, 2)
        slow = slow + np.einsum(
            "acAC,AbCdef,DFdf->abcDeF", op, rho, op.conj(), optimize=True
        )
    assert np.allclose(fast, slow, atol=1e-10)


def test_kraus_to_superoperator_identity_channel():
    superop = kraus_to_superoperator([np.eye(2)])
    expected = np.einsum("ac,bd->abcd", np.eye(2), np.eye(2))
    assert np.allclose(superop, expected)


def test_full_depolarizing_gives_maximally_mixed_state():
    rho = zero_density_matrices(1)[0]
    out = _apply_channel(rho, depolarizing_kraus(1.0, 1), (0,))
    matrix = out.reshape(2, 2)
    # with p=1 the state becomes (rho + X rho X + Y rho Y + Z rho Z)/3 which for
    # |0><0| has 1/3 vs 2/3 populations; just check it is mixed and unit trace
    assert np.isclose(np.trace(matrix).real, 1.0)
    assert _purity(out) < 1.0


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
    runner = BatchedDensityRunner(
        SimpleNamespace(noise_model=lambda: model), max_density_qubits=8
    )
    row = runner.submit(SimpleNamespace(reduced_circuit=lambda: (circuit, (0,)),
                                        final_layout={0: 0}))
    runner.run()
    assert row.probabilities()[1] == pytest.approx(0.1, abs=1e-6)


def test_unitary_application_matches_statevector_product():
    circuit = QuantumCircuit(2)
    circuit.add("u3", (0,), (0.3, 0.1, -0.4))
    circuit.add("cx", (0, 1))
    rho = _evolve(circuit)
    sv = run_circuit(circuit)[0].reshape(-1)
    expected = np.outer(sv, sv.conj())
    assert np.allclose(rho.reshape(4, 4), expected, atol=1e-10)
