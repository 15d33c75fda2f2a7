"""Batched statevector simulation (the noise-free "TorchQuantum" engine).

States are stored as arrays of shape ``(batch,) + (2,) * n_qubits`` so a whole
minibatch of data-encoded circuits is simulated with a single sequence of
tensor contractions — this is the batched execution mode that gives the large
speedups over per-sample parameter-shift loops reported in Fig. 12 of the
paper.

Gates apply through the density-matrix module's ``_apply_front_matrix``, the
one cached-permutation BLAS contraction both layouts share: a shared
``(D, D)`` matrix multiplies the target axes brought to the front, and a
per-sample ``(batch, D, D)`` stack multiplies each sample's slice in one
batched ``matmul``.  Per-sample matrices come from the gate registry's
batched table (:func:`~repro.quantum.gates.batched_gate_matrix`), never from
a loop over scalar constructors.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .circuit import ParameterizedCircuit, QuantumCircuit
from .density_matrix import _apply_front_matrix
from .gates import batched_gate_matrix, gate_matrix
from .operators import PauliSum

__all__ = [
    "zero_state",
    "apply_matrix",
    "apply_pauli",
    "op_matrix",
    "run_circuit",
    "run_parameterized",
    "run_parameterized_rows",
    "circuit_unitary",
    "probabilities",
    "expectation_z",
    "expectation_z_all",
    "expectation_pauli_sum",
    "apply_pauli_sum",
    "state_fidelity",
]


def zero_state(n_qubits: int, batch: int = 1) -> np.ndarray:
    """The ``|0...0>`` state replicated ``batch`` times."""
    states = np.zeros((batch,) + (2,) * n_qubits, dtype=complex)
    states[(slice(None),) + (0,) * n_qubits] = 1.0
    return states


def _num_qubits_of(states: np.ndarray) -> int:
    return states.ndim - 1


def apply_matrix(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``k``-qubit unitary to the given qubits of a batched state.

    ``matrix`` may be a single ``(2**k, 2**k)`` array (shared across the batch)
    or a batched ``(batch, 2**k, 2**k)`` array (per-sample encoder gates).
    """
    return _apply_front_matrix(states, matrix, tuple(1 + q for q in qubits))


def apply_pauli(states: np.ndarray, qubit: int, pauli: str) -> np.ndarray:
    """Apply a single-qubit Pauli operator to a batched state."""
    return apply_matrix(states, gate_matrix(pauli.lower()), (qubit,))


def run_circuit(
    circuit: QuantumCircuit,
    states: Optional[np.ndarray] = None,
    batch: int = 1,
) -> np.ndarray:
    """Evolve ``states`` (default ``|0...0>``) through a concrete circuit."""
    if states is None:
        states = zero_state(circuit.n_qubits, batch)
    for instruction in circuit.instructions:
        states = apply_matrix(states, instruction.matrix(), instruction.qubits)
    return states


def resolved_operations(
    pcirc: ParameterizedCircuit,
    weights: np.ndarray,
    features: Optional[np.ndarray] = None,
) -> Iterable[Tuple[str, Tuple[int, ...], np.ndarray]]:
    """Yield ``(gate, qubits, params)`` with parameters resolved.

    ``params`` has shape ``(n_params,)`` for sample-independent operations and
    ``(batch, n_params)`` for encoder operations.
    """
    for op in pcirc.ops:
        yield op.gate, op.qubits, pcirc.resolve_params(op, weights, features)


def op_matrix(gate: str, params: np.ndarray) -> np.ndarray:
    """Matrix for resolved parameters, batched if ``params`` is 2-D."""
    if params.ndim == 2:
        return batched_gate_matrix(gate, params)
    return gate_matrix(gate, params)


def run_parameterized(
    pcirc: ParameterizedCircuit,
    weights: np.ndarray,
    features: Optional[np.ndarray] = None,
    batch: Optional[int] = None,
) -> np.ndarray:
    """Simulate a parameterized circuit for a batch of inputs.

    ``features`` (if given) has shape ``(batch, n_features)``; otherwise a
    single sample (``batch`` defaults to 1) is simulated.
    """
    weights = np.asarray(weights, dtype=float)
    if features is not None:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        batch = features.shape[0]
    states = zero_state(pcirc.n_qubits, batch or 1)
    for gate, qubits, params in resolved_operations(pcirc, weights, features):
        states = apply_matrix(states, op_matrix(gate, params), qubits)
    return states


def run_parameterized_rows(
    pcirc: ParameterizedCircuit,
    weight_rows: np.ndarray,
    features: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Simulate a circuit for a whole *matrix* of weight vectors at once.

    The gradient sibling of :func:`run_parameterized`: a parameter-shift
    gradient evaluates the same structure under ``2 * num_weights + 1``
    weight vectors, so the weight rows join the batch dimension.  Returns
    states of shape ``(n_rows * batch,) + (2,) * n_qubits`` in row-major
    order (weight row varies slowest, feature row fastest); ``features``
    defaults to a single empty sample (``batch = 1``).

    Per-pair states match ``run_parameterized(pcirc, weight_rows[r],
    features)`` up to last-ulp contraction-order differences: a shared gate
    applies as one 2-D matrix there and as part of a stacked batch here.
    """
    weight_rows = np.asarray(weight_rows, dtype=float)
    if weight_rows.ndim != 2:
        raise ValueError("run_parameterized_rows expects a 2-D weight matrix")
    n_rows = weight_rows.shape[0]
    if n_rows == 0:
        raise ValueError("run_parameterized_rows needs at least one weight row")
    if features is not None:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        batch = features.shape[0]
    else:
        batch = 1
    states = zero_state(pcirc.n_qubits, n_rows * batch)
    for op in pcirc.ops:
        if op.is_trainable:
            if op.uses_input:
                # mixed weight/input op: per-row (batch, k) blocks, row-major
                params = np.concatenate(
                    [
                        np.atleast_2d(pcirc.resolve_params(op, row, features))
                        for row in weight_rows
                    ],
                    axis=0,
                )
                matrix = op_matrix(op.gate, params)
            else:
                params = np.stack(
                    [pcirc.resolve_params(op, row, None) for row in weight_rows]
                )
                matrix = op_matrix(op.gate, params)
                if batch > 1:
                    matrix = np.repeat(matrix, batch, axis=0)
        elif op.uses_input:
            params = np.atleast_2d(
                pcirc.resolve_params(op, weight_rows[0], features)
            )
            matrix = op_matrix(op.gate, params)
            if n_rows > 1:
                matrix = np.tile(matrix, (n_rows, 1, 1))
        else:
            # constant op: one matrix shared by every (row, sample) pair
            matrix = op_matrix(
                op.gate, pcirc.resolve_params(op, weight_rows[0], None)
            )
        states = apply_matrix(states, matrix, op.qubits)
    return states


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary matrix of a concrete circuit (small circuits only)."""
    dim = 2**circuit.n_qubits
    basis = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * circuit.n_qubits)
    evolved = run_circuit(circuit, states=basis)
    return evolved.reshape(dim, dim).T


def probabilities(states: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities, shape ``(batch, 2**n)``."""
    batch = states.shape[0]
    flat = states.reshape(batch, -1)
    return np.abs(flat) ** 2


def expectation_z(states: np.ndarray, qubit: int) -> np.ndarray:
    """Expectation of Pauli-Z on ``qubit``; returns shape ``(batch,)``."""
    n_qubits = _num_qubits_of(states)
    probs = np.abs(states) ** 2
    axes = tuple(a for a in range(1, n_qubits + 1) if a != 1 + qubit)
    marginal = probs.sum(axis=axes)
    return marginal[:, 0] - marginal[:, 1]


def expectation_z_all(states: np.ndarray) -> np.ndarray:
    """Z expectations on every qubit; returns shape ``(batch, n_qubits)``."""
    n_qubits = _num_qubits_of(states)
    return np.stack([expectation_z(states, q) for q in range(n_qubits)], axis=1)


def expectation_pauli_sum(states: np.ndarray, observable: PauliSum) -> np.ndarray:
    """Expectation value of a weighted Pauli sum, shape ``(batch,)``: one
    gather over the sum's compiled table (:mod:`repro.quantum.operators`)."""
    table = observable._table(_num_qubits_of(states))
    return table.expectations(states.reshape(states.shape[0], -1))


def apply_pauli_sum(states: np.ndarray, observable: PauliSum) -> np.ndarray:
    """Apply ``H = sum_i c_i P_i`` to a batched state (not a unitary): one
    gather over the sum's compiled table (:mod:`repro.quantum.operators`)."""
    table = observable._table(_num_qubits_of(states))
    return table.apply(states.reshape(states.shape[0], -1)).reshape(states.shape)


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """``|<a|b>|^2`` between two single (non-batched or batch-1) states."""
    vec_a = np.asarray(state_a, dtype=complex).reshape(-1)
    vec_b = np.asarray(state_b, dtype=complex).reshape(-1)
    return float(np.abs(np.vdot(vec_a, vec_b)) ** 2)
