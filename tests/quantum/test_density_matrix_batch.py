"""The fused batched density kernel against dense single-row evolution.

``apply_fused_positions`` composes each position's unitary with its noise
channels and folds runs on at most two qubits into one contraction; every
row must still match ``U rho U^dagger`` followed by ``sum K rho K^dagger``
for each channel, on that row alone, with every operator embedded densely
by the dense oracle (``test_dense_oracle.py``).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.noise.channels import (
    amplitude_damping_kraus,
    depolarizing_kraus,
    thermal_relaxation_kraus,
)
from repro.quantum.density_matrix import (
    apply_fused_positions,
    channel_superoperator,
    zero_density_matrices,
)
from repro.quantum.gates import gate_matrix


def _load_oracle():
    # test directories are not packages: load the oracle module by path
    path = Path(__file__).resolve().parent / "test_dense_oracle.py"
    spec = importlib.util.spec_from_file_location("dense_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

ATOL = 1e-12


def random_density_stack(n_qubits: int, batch: int, rng: np.random.Generator):
    """A stack of valid (PSD, trace-one) density matrices."""
    dim = 2**n_qubits
    rhos = np.empty((batch,) + (2,) * (2 * n_qubits), dtype=complex)
    for index in range(batch):
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho)
        rhos[index] = rho.reshape((2,) * (2 * n_qubits))
    return rhos


def random_gate(qubits, rng, batch=None):
    """A u3 (one qubit) or cu3 (two), shared or one per row."""
    name = "u3" if len(qubits) == 1 else "cu3"
    if batch is None:
        return gate_matrix(name, rng.uniform(-np.pi, np.pi, size=3))
    return np.stack([
        gate_matrix(name, rng.uniform(-np.pi, np.pi, size=3)) for _ in range(batch)
    ])


def reference(rho, positions):
    """One row through dense evolution, position by position."""
    n_qubits = rho.ndim // 2
    dim = 2**n_qubits
    rho = rho.reshape(dim, dim)
    for matrix, qubits, channels in positions:
        full = oracle.embed(matrix, qubits, n_qubits)
        rho = full @ rho @ full.conj().T
        for kraus, targets in channels:
            rho = oracle.apply_channel(rho, kraus, targets, n_qubits)
    return rho.reshape((2,) * (2 * n_qubits))


def check_against_reference(rhos, positions):
    """Run the fused kernel and compare every row with :func:`reference`."""
    fused = apply_fused_positions(rhos, [
        (matrix, qubits, channel_superoperator(channels, qubits))
        for matrix, qubits, channels in positions
    ])
    for index in range(rhos.shape[0]):
        row = [
            (matrix if matrix.ndim == 2 else matrix[index], qubits, channels)
            for matrix, qubits, channels in positions
        ]
        np.testing.assert_allclose(fused[index], reference(rhos[index], row),
                                   rtol=0, atol=ATOL)


def test_zero_density_matrices_matches_single():
    batch = zero_density_matrices(3, batch=4)
    single = np.zeros((8, 8), dtype=complex)
    single[0, 0] = 1.0
    assert batch.shape == (4,) + (2,) * 6
    for index in range(4):
        np.testing.assert_array_equal(batch[index].reshape(8, 8), single)


@pytest.mark.parametrize("n_qubits,qubits", [(2, (0,)), (3, (2,)), (3, (0, 2)),
                                             (4, (3, 1))])
def test_shared_matrix(n_qubits, qubits):
    rng = np.random.default_rng(21)
    rhos = random_density_stack(n_qubits, 5, rng)
    check_against_reference(rhos, [(random_gate(qubits, rng), qubits, [])])


@pytest.mark.parametrize("n_qubits,qubits", [(2, (1,)), (3, (0, 2))])
def test_per_sample_matrices(n_qubits, qubits):
    rng = np.random.default_rng(33)
    rhos = random_density_stack(n_qubits, 4, rng)
    check_against_reference(rhos, [(random_gate(qubits, rng, 4), qubits, [])])


@pytest.mark.parametrize("kraus_factory", [
    lambda: amplitude_damping_kraus(0.13),                    # 2 operators
    lambda: thermal_relaxation_kraus(50e3, 70e3, 300.0),      # few operators
    lambda: depolarizing_kraus(0.05, 1),                      # 4 operators
])
def test_single_qubit_channel(kraus_factory):
    rng = np.random.default_rng(55)
    rhos = random_density_stack(3, 4, rng)
    channels = [(kraus_factory(), (1,))]
    check_against_reference(rhos, [(random_gate((1,), rng), (1,), channels)])


def test_two_qubit_depolarizing_and_relaxation():
    rng = np.random.default_rng(77)
    rhos = random_density_stack(3, 3, rng)
    relaxation = thermal_relaxation_kraus(40.0, 30.0, 0.3)
    channels = [
        (depolarizing_kraus(0.08, 2), (0, 2)),   # 16 operators
        (relaxation, (0,)),
        (relaxation, (2,)),
    ]
    check_against_reference(rhos, [(random_gate((0, 2), rng, 3), (0, 2), channels)])


def test_block_sequence_matches_unfused():
    """Pending maps, blocks reused in both qubit orders, blocks flushed by
    an overlapping pair, and a channel-free position."""
    rng = np.random.default_rng(91)
    rhos = random_density_stack(4, 3, rng)
    one_qubit = (depolarizing_kraus(0.02, 1), amplitude_damping_kraus(0.1))

    def position(qubits, per_row):
        channels = [(kraus, (qubit,)) for qubit in qubits for kraus in one_qubit]
        if len(qubits) == 2:
            channels.insert(0, (depolarizing_kraus(0.05, 2), qubits))
        return random_gate(qubits, rng, 3 if per_row else None), qubits, channels

    positions = [
        position((0,), False), position((1,), True), position((0, 1), False),
        position((1,), False), position((1, 0), True), position((2,), True),
        position((1, 2), False), position((3,), False), position((0,), True),
        position((2, 3), False), position((3, 2), False),
    ]
    positions.append((random_gate((1,), rng), (1,), []))
    check_against_reference(rhos, positions)


def test_rejects_wrong_batch_dimension():
    rng = np.random.default_rng(3)
    rhos = random_density_stack(2, 3, rng)
    matrices = np.stack([gate_matrix("x") for _ in range(2)])  # wrong batch
    with pytest.raises(ValueError):
        apply_fused_positions(rhos, [(matrices, (0,), None)])
