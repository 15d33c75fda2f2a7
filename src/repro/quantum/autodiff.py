"""Gradient engines for parameterized circuits.

Three modes are provided, mirroring the training modes discussed in the paper:

* :func:`adjoint_gradient` — analytic reverse-mode ("backprop") gradients of
  expectation values, computed with a single forward and a single reverse
  sweep.  This is the fast classical-simulation training mode.
* :func:`parameter_shift_jacobian` — the hardware-compatible parameter-shift
  rule (exact for single-generator rotation gates), used to demonstrate
  on-device training (Table V / Fig. 16).
* :func:`finite_difference_gradient` — a reference implementation used by the
  test-suite to validate the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .circuit import ParameterizedCircuit
from .gates import batched_gate_gradients, gate_gradients
from .operators import PauliSum
from .statevector import (
    apply_matrix,
    apply_pauli,
    apply_pauli_sum,
    op_matrix,
    run_parameterized,
)

__all__ = [
    "adjoint_gradient",
    "parameter_shift_jacobian",
    "finite_difference_gradient",
    "ShiftRulePlan",
    "build_shift_plan",
    "SHIFT_EXACT_GATES",
]

#: Gates for which the two-term parameter-shift rule is exact (their
#: parameters each enter through a single ±1/2-spectrum generator).
SHIFT_EXACT_GATES = frozenset(
    {"rx", "ry", "rz", "u1", "u2", "u3", "rxx", "ryy", "rzz", "rzx"}
)


def _weighted_z_apply(states: np.ndarray, z_coefficients: np.ndarray) -> np.ndarray:
    """Apply ``sum_q c_{b,q} Z_q`` with per-sample coefficients ``c``."""
    n_qubits = states.ndim - 1
    out = np.zeros_like(states)
    shape = (-1,) + (1,) * n_qubits
    for qubit in range(n_qubits):
        coeff = z_coefficients[:, qubit].reshape(shape)
        out = out + coeff * apply_pauli(states, qubit, "z")
    return out


def _dagger(matrix: np.ndarray) -> np.ndarray:
    if matrix.ndim == 3:
        return np.conj(np.swapaxes(matrix, 1, 2))
    return matrix.conj().T


def _batched_gradients(gate: str, params: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per-parameter dU/dp, batched when params is 2-D."""
    if params.ndim == 2:
        return batched_gate_gradients(gate, params)
    return gate_gradients(gate, params)


def adjoint_gradient(
    pcirc: ParameterizedCircuit,
    weights: np.ndarray,
    features: Optional[np.ndarray] = None,
    *,
    z_coefficients: Optional[np.ndarray] = None,
    observable: Optional[PauliSum] = None,
    states_final: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of a weighted observable expectation with respect to weights.

    Exactly one of ``z_coefficients`` or ``observable`` must be given:

    * ``z_coefficients`` of shape ``(batch, n_qubits)`` represents the
      effective observable ``sum_q c_{b,q} Z_q`` per sample (this is how the
      classical loss gradient ``dL/d<Z_q>`` is chained into the circuit).
    * ``observable`` is a :class:`PauliSum` shared by all samples (VQE).

    The gradient is summed over the batch.
    """
    if (z_coefficients is None) == (observable is None):
        raise ValueError("provide exactly one of z_coefficients or observable")
    weights = np.asarray(weights, dtype=float)
    if features is not None:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]

    if states_final is None:
        states_final = run_parameterized(pcirc, weights, features)

    if z_coefficients is not None:
        z_coefficients = np.asarray(z_coefficients, dtype=float)
        lam = _weighted_z_apply(states_final, z_coefficients)
    else:
        lam = apply_pauli_sum(states_final, observable)

    grads = np.zeros(pcirc.num_weights)
    psi = states_final
    batch = states_final.shape[0]

    for op in reversed(pcirc.ops):
        params = pcirc.resolve_params(op, weights, features)
        matrix = op_matrix(op.gate, params)
        matrix_dag = _dagger(matrix)
        psi = apply_matrix(psi, matrix_dag, op.qubits)
        if op.is_trainable:
            grad_matrices = _batched_gradients(op.gate, params)
            bra = np.conj(lam.reshape(batch, -1))
            for position, slot in enumerate(op.slots):
                if slot.kind != "weight":
                    continue
                d_states = apply_matrix(psi, grad_matrices[position], op.qubits)
                overlap = (bra * d_states.reshape(batch, -1)).sum()
                grads[int(slot.value)] += 2.0 * overlap.real
        lam = apply_matrix(lam, matrix_dag, op.qubits)
    return grads


@dataclass(frozen=True)
class ShiftRulePlan:
    """The per-weight shift rule of one circuit structure.

    Classifies every trainable weight once — the two-term shift rule for
    weights that only feed gates in :data:`SHIFT_EXACT_GATES`, a symmetric
    finite difference for the rest — and turns that classification into the
    matrix of shifted weight vectors every gradient engine evaluates.  Built
    by :func:`build_shift_plan`; shared between the sequential
    :func:`parameter_shift_jacobian` and the batched engines in
    :mod:`repro.gradients`, so "which circuits does one gradient take"
    has exactly one definition.

    Evaluation-row convention: for weight index ``i``, row ``2*i`` is the
    plus shift and row ``2*i + 1`` the minus shift — ``2 * num_weights``
    rows total, the unshifted center row is *not* included.
    """

    num_weights: int
    #: per-weight flag: exact two-term rule (True) or finite difference
    exact: Tuple[bool, ...]
    #: per-weight shift magnitude (``shift`` when exact, ``epsilon`` otherwise)
    deltas: Tuple[float, ...]

    @property
    def n_shifted(self) -> int:
        """Number of shifted evaluation rows (``2 * num_weights``)."""
        return 2 * self.num_weights

    def shifted_weight_rows(self, weights: np.ndarray) -> np.ndarray:
        """The ``(2 * num_weights, num_weights)`` matrix of shifted vectors.

        Row ``2*i`` / ``2*i + 1`` apply the same ``+=`` / ``-=`` updates the
        sequential rule performs, so a batched engine evaluating these rows
        sees bit-identical weight vectors.
        """
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape[0] != self.num_weights:
            raise ValueError(
                f"expected {self.num_weights} weights (got {weights.shape[0]})"
            )
        rows = np.repeat(weights[None, :], self.n_shifted, axis=0)
        for index in range(self.num_weights):
            rows[2 * index, index] += self.deltas[index]
            rows[2 * index + 1, index] -= self.deltas[index]
        return rows

    def jacobian_from_shifted(self, shifted: np.ndarray) -> np.ndarray:
        """Combine shifted evaluations into the Jacobian.

        ``shifted`` has shape ``(2 * num_weights,) + expectations.shape`` in
        the row convention above; the result has shape
        ``expectations.shape + (num_weights,)``.  The per-index arithmetic is
        the exact sequence of float operations the sequential rule performs.
        """
        shifted = np.asarray(shifted)
        if shifted.shape[0] != self.n_shifted:
            raise ValueError(
                f"expected {self.n_shifted} shifted evaluations "
                f"(got {shifted.shape[0]})"
            )
        jacobian = np.zeros(shifted.shape[1:] + (self.num_weights,))
        for index in range(self.num_weights):
            upper = shifted[2 * index]
            lower = shifted[2 * index + 1]
            if self.exact[index]:
                jacobian[..., index] = 0.5 * (upper - lower)
            else:
                jacobian[..., index] = (upper - lower) / (2.0 * self.deltas[index])
        return jacobian


def build_shift_plan(
    pcirc: ParameterizedCircuit,
    shift: float = np.pi / 2,
    epsilon: float = 1e-3,
) -> ShiftRulePlan:
    """Classify every weight of ``pcirc`` for the parameter-shift rule.

    A weight is *exact* when every gate it feeds is in
    :data:`SHIFT_EXACT_GATES`; other weights (e.g. controlled-rotation
    angles) fall back to a symmetric finite difference, which is what one
    would run on hardware when no exact rule applies.
    """
    weight_gates: dict[int, set[str]] = {}
    for op in pcirc.ops:
        for index in op.weight_indices:
            weight_gates.setdefault(index, set()).add(op.gate)
    exact = []
    deltas = []
    for index in range(pcirc.num_weights):
        gates = weight_gates.get(index, set())
        is_exact = bool(gates) and gates <= SHIFT_EXACT_GATES
        exact.append(is_exact)
        deltas.append(shift if is_exact else epsilon)
    return ShiftRulePlan(
        num_weights=pcirc.num_weights,
        exact=tuple(exact),
        deltas=tuple(deltas),
    )


def parameter_shift_jacobian(
    expectations_fn: Callable[[np.ndarray], np.ndarray],
    pcirc: ParameterizedCircuit,
    weights: np.ndarray,
    shift: float = np.pi / 2,
    epsilon: float = 1e-3,
) -> np.ndarray:
    """Jacobian of circuit expectations with respect to every weight.

    ``expectations_fn(weights)`` must return an array of expectation values
    (any shape); the returned Jacobian has shape ``expectations.shape +
    (num_weights,)``.

    The shifted weight vectors and the per-weight rule (exact two-term shift
    vs symmetric finite difference) come from :func:`build_shift_plan`, the
    single source of truth shared with the batched engines in
    :mod:`repro.gradients`; this function evaluates the rows one
    ``expectations_fn`` call at a time.
    """
    plan = build_shift_plan(pcirc, shift=shift, epsilon=epsilon)
    weights = np.asarray(weights, dtype=float)
    reference = np.asarray(expectations_fn(weights))
    rows = plan.shifted_weight_rows(weights)
    if rows.shape[0] == 0:
        return np.zeros(reference.shape + (0,))
    shifted = np.stack([np.asarray(expectations_fn(row)) for row in rows])
    return plan.jacobian_from_shifted(shifted)


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float],
    weights: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of a scalar loss (testing reference)."""
    weights = np.asarray(weights, dtype=float)
    grads = np.zeros_like(weights)
    for index in range(weights.size):
        plus = weights.copy()
        minus = weights.copy()
        plus[index] += epsilon
        minus[index] -= epsilon
        grads[index] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * epsilon)
    return grads
