"""Shot-based measurement utilities.

Used by the device backend (finite-shot runs, as on real IBMQ machines) and by
the VQE measurement pipeline (basis rotations + Z-basis counts).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from .circuit import QuantumCircuit
from .operators import PauliString, PauliSum, _diagonal_weights, group_commuting

__all__ = [
    "sample_counts",
    "counts_to_probabilities",
    "expectation_z_from_probabilities",
    "expectation_z_all_from_probabilities",
    "basis_change_circuit",
    "MeasurementPlan",
]


def sample_counts(
    probabilities: np.ndarray, shots: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample ``shots`` measurement outcomes; returns counts per basis state."""
    rng = ensure_rng(rng)
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probability vector sums to zero")
    probs = probs / total
    return rng.multinomial(shots, probs).astype(float)


def counts_to_probabilities(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("no counts recorded")
    return counts / total


def expectation_z_from_probabilities(
    probabilities: np.ndarray, qubit: int, n_qubits: int
) -> float:
    """Z expectation on one qubit from a basis-state probability vector."""
    probs = np.asarray(probabilities, dtype=float).reshape((2,) * n_qubits)
    axes = tuple(a for a in range(n_qubits) if a != qubit)
    marginal = probs.sum(axis=axes)
    return float(marginal[0] - marginal[1])


def expectation_z_all_from_probabilities(
    probabilities: np.ndarray, n_qubits: int
) -> np.ndarray:
    return np.array(
        [
            expectation_z_from_probabilities(probabilities, qubit, n_qubits)
            for qubit in range(n_qubits)
        ]
    )


def basis_change_circuit(n_qubits: int, bases: Dict[int, str]) -> QuantumCircuit:
    """Circuit rotating the given per-qubit Pauli bases onto the Z axis."""
    circuit = QuantumCircuit(n_qubits)
    for qubit, pauli in sorted(bases.items()):
        pauli = pauli.upper()
        if pauli == "X":
            circuit.add("h", (qubit,))
        elif pauli == "Y":
            circuit.add("sdg", (qubit,))
            circuit.add("h", (qubit,))
        elif pauli == "Z":
            continue
        else:
            raise ValueError(f"invalid Pauli basis '{pauli}'")
    return circuit


class MeasurementPlan:
    """Groups a Pauli-sum observable into simultaneously measurable settings.

    Each group is measured by appending one basis-change circuit and reading
    all qubits in the Z basis — exactly how VQE expectation values are
    estimated on hardware ("we prepare the state multiple times for
    measurements on different qubits and bases").

    After a group's basis change every term of the group is a parity over
    its support, so each group folds once into one sign-weighted vector over
    outcomes, and the energy is ``c0 + sum_g p_g . v_g``.
    """

    def __init__(self, observable: PauliSum, n_qubits: int) -> None:
        self.observable = observable
        self.n_qubits = n_qubits
        self.groups: List[List[PauliString]] = group_commuting(observable)
        self.constant = observable.constant
        self._outcome_weights: Optional[List[np.ndarray]] = None
        self._settings: Optional[
            List[Tuple[QuantumCircuit, List[PauliString]]]
        ] = None

    def __len__(self) -> int:
        return len(self.groups)

    def settings(self) -> List[Tuple[QuantumCircuit, List[PauliString]]]:
        """(basis-change circuit, terms measured in that setting) pairs.

        Memoized: a parameter-shift gradient of a measured energy evaluates
        the same settings ``2 * num_weights + 1`` times per step, and plans
        are hoisted per task (the estimator's per-task cache), so the
        basis-change circuits are derived once per plan, not once per
        shifted evaluation.  Callers must treat the returned list (and its
        circuits) as immutable.
        """
        if self._settings is None:
            out = []
            for group in self.groups:
                bases: Dict[int, str] = {}
                for term in group:
                    for qubit, pauli in term.paulis:
                        bases[qubit] = pauli
                out.append((basis_change_circuit(self.n_qubits, bases), group))
            self._settings = out
        return self._settings

    def expectation_from_group_probabilities(
        self, group_probabilities: Sequence[np.ndarray]
    ) -> float:
        """Combine per-setting probability vectors into <H>."""
        if len(group_probabilities) != len(self.groups):
            raise ValueError("one probability vector per measurement group required")
        if self._outcome_weights is None:
            # memoized like settings(): a plan is built per VQE model, and
            # most models never measure
            self._outcome_weights = [
                _diagonal_weights(group, self.n_qubits) for group in self.groups
            ]
        total = self.constant
        for probs, weights in zip(group_probabilities, self._outcome_weights):
            total += float(np.dot(np.asarray(probs, dtype=float), weights))
        return float(total)
