"""Pauli-string observables and weighted sums of them.

These are the observables measured by the QML readout layer (single-qubit
Pauli-Z expectations) and by VQE (molecular Hamiltonians expressed as weighted
sums of Pauli strings).

Every kernel that evaluates a Pauli sum reads it through one compiled form,
the binary symplectic form of its strings, built in this module only:

* Qubit ``q`` is bit ``n - 1 - q`` of a basis index: qubit 0 is the most
  significant bit, as in every dense matrix of this package.
* A string ``c P`` has an x-mask (its X and Y factors), a z-mask (its Z and
  Y factors) and ``n_Y`` Y factors, and
  ``P|k> = i**n_Y (-1)**popcount(k & z) |k ^ x>``.
* Strings with the same x-mask fold into one weight vector over basis
  states, ``w_x(k) = sum_t c_t i**n_Y,t (-1)**popcount(k & z_t)``, and
  identity strings into the constant ``c0``, so
  ``H = c0 + sum_x sum_k w_x(k) |k ^ x><k|``.
* :class:`_PauliTable` stores each ``w_x`` at the row it lands in,
  ``H[j, j ^ x] = w_x(j ^ x) = sum_t c_t (-i)**n_Y,t (-1)**popcount(j & z_t)``
  (a Y factor both flips and reads its bit).  Then ``tr(H rho)``,
  ``<psi|H|psi>`` and ``H|psi>`` are each one gather of the flat state at
  ``j ^ x``, for every row of a batch at once.  ``c0`` is added as is,
  never scaled by a trace or a norm.

:meth:`PauliSum._table` memoizes one table per register size, keyed on the
size and the tuple of terms, so a sum whose ``terms`` list changes never
reads a stale table.  Pickles carry the terms only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .gates import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z

__all__ = ["PauliString", "PauliSum", "group_commuting"]

_PAULI_MATRICES = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Pauli operators with a real coefficient.

    ``paulis`` maps qubit index to one of ``"X"``, ``"Y"``, ``"Z"``.  Qubits
    absent from the mapping carry the identity.
    """

    coefficient: float
    paulis: Tuple[Tuple[int, str], ...]

    @staticmethod
    def from_dict(coefficient: float, paulis: Mapping[int, str]) -> "PauliString":
        cleaned = {}
        for qubit, label in paulis.items():
            label = label.upper()
            if label == "I":
                continue
            if label not in ("X", "Y", "Z"):
                raise ValueError(f"invalid Pauli label '{label}'")
            cleaned[int(qubit)] = label
        ordered = tuple(sorted(cleaned.items()))
        return PauliString(float(coefficient), ordered)

    @staticmethod
    def from_label(coefficient: float, label: str) -> "PauliString":
        """Build from a dense label, e.g. ``"XIZY"`` (qubit 0 first)."""
        mapping = {i: ch for i, ch in enumerate(label.upper()) if ch != "I"}
        return PauliString.from_dict(coefficient, mapping)

    @property
    def qubits(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.paulis)

    @property
    def is_identity(self) -> bool:
        return not self.paulis

    def label(self, n_qubits: int) -> str:
        chars = ["I"] * n_qubits
        for qubit, pauli in self.paulis:
            chars[qubit] = pauli
        return "".join(chars)

    def weight(self) -> int:
        """Number of non-identity factors (Pauli weight)."""
        return len(self.paulis)

    def to_matrix(self, n_qubits: int) -> np.ndarray:
        """Dense matrix representation (for small systems / tests)."""
        mapping = dict(self.paulis)
        out = np.array([[1.0 + 0.0j]])
        for qubit in range(n_qubits):
            out = np.kron(out, _PAULI_MATRICES[mapping.get(qubit, "I")])
        return self.coefficient * out

    def with_coefficient(self, coefficient: float) -> "PauliString":
        return PauliString(float(coefficient), self.paulis)

    def commutes_qubitwise(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: shared qubits must carry identical Paulis."""
        mine = dict(self.paulis)
        for qubit, pauli in other.paulis:
            if qubit in mine and mine[qubit] != pauli:
                return False
        return True


@dataclass
class PauliSum:
    """A weighted sum of :class:`PauliString` terms."""

    terms: List[PauliString] = field(default_factory=list)

    @staticmethod
    def from_terms(terms: Iterable[Tuple[float, Mapping[int, str]]]) -> "PauliSum":
        return PauliSum([PauliString.from_dict(c, p) for c, p in terms])

    @staticmethod
    def from_labels(terms: Iterable[Tuple[float, str]]) -> "PauliSum":
        return PauliSum([PauliString.from_label(c, label) for c, label in terms])

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    @property
    def n_qubits_min(self) -> int:
        """Smallest register size that can host every term."""
        highest = -1
        for term in self.terms:
            if term.paulis:
                highest = max(highest, max(term.qubits))
        return highest + 1

    @property
    def constant(self) -> float:
        """Sum of identity-term coefficients."""
        return sum(t.coefficient for t in self.terms if t.is_identity)

    def simplify(self, tol: float = 1e-12) -> "PauliSum":
        """Merge duplicate Pauli strings and drop negligible terms."""
        merged: Dict[Tuple[Tuple[int, str], ...], float] = {}
        for term in self.terms:
            merged[term.paulis] = merged.get(term.paulis, 0.0) + term.coefficient
        terms = [
            PauliString(coeff, paulis)
            for paulis, coeff in merged.items()
            if abs(coeff) > tol
        ]
        terms.sort(key=lambda t: (t.weight(), t.paulis))
        return PauliSum(terms)

    def to_matrix(self, n_qubits: int) -> np.ndarray:
        """Dense Hamiltonian matrix (exponential in ``n_qubits``)."""
        dim = 2**n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            out += term.to_matrix(n_qubits)
        return out

    def ground_energy_dense(self, n_qubits: int) -> float:
        """Exact ground-state energy from dense diagonalisation."""
        eigvals = np.linalg.eigvalsh(self.to_matrix(n_qubits))
        return float(eigvals[0])

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum([t.with_coefficient(t.coefficient * factor) for t in self.terms])

    def shifted(self, constant: float) -> "PauliSum":
        return PauliSum(self.terms + [PauliString(float(constant), ())])

    def _table(self, n_qubits: int) -> "_PauliTable":
        """This sum compiled for an ``n_qubits`` register, memoized."""
        terms = tuple(self.terms)
        memo = self.__dict__.setdefault("_tables", {})
        entry = memo.get(n_qubits)
        if entry is None or entry[0] != terms:
            entry = memo[n_qubits] = (terms, _PauliTable(terms, n_qubits))
        return entry[1]

    def __getstate__(self) -> Dict[str, object]:
        # the memoized tables are rebuilt on demand, never shipped
        return {"terms": self.terms}


#: ``(-i) ** n_Y`` by ``n_Y mod 4``: a string's phase read at its rows
_ROW_PHASES = (1.0, -1.0j, -1.0, 1.0j)


def _term_masks(term: PauliString, n_qubits: int) -> Tuple[int, int, int]:
    """``(x-mask, z-mask, n_Y)`` of a string on an ``n_qubits`` register."""
    x_mask = z_mask = n_y = 0
    for qubit, pauli in term.paulis:
        if not 0 <= qubit < n_qubits:
            raise ValueError(
                f"Pauli term acts on qubit {qubit}, outside the "
                f"{n_qubits}-qubit register"
            )
        bit = 1 << (n_qubits - 1 - qubit)
        if pauli != "Z":
            x_mask |= bit
        if pauli != "X":
            z_mask |= bit
        n_y += pauli == "Y"
    return x_mask, z_mask, n_y


def _parity_signs(values: np.ndarray, n_qubits: int) -> np.ndarray:
    """``(-1) ** popcount(v)`` of each ``n_qubits``-bit integer ``v``.

    The parity folds in signed integers and the sign is taken in floats: an
    unsigned ``1 - 2 * parity`` would wrap around.
    """
    bits = np.array(values, dtype=np.int64)
    shift = 1
    while shift < n_qubits:
        bits ^= bits >> shift
        shift <<= 1
    return 1.0 - 2.0 * (bits & 1)


def _diagonal_weights(terms: Sequence[PauliString], n_qubits: int) -> np.ndarray:
    """``sum_t c_t (-1) ** popcount(k & s_t)`` over basis states ``k``.

    ``s_t`` is the support mask of term ``t``: once a basis change has made
    every factor of a string Z, its value on outcome ``k`` is the parity of
    ``k`` over its support.
    """
    basis = np.arange(1 << n_qubits, dtype=np.int64)
    supports = np.zeros(len(terms), dtype=np.int64)
    for index, term in enumerate(terms):
        x_mask, z_mask, _ = _term_masks(term, n_qubits)
        supports[index] = x_mask | z_mask
    coefficients = np.array([term.coefficient for term in terms], dtype=float)
    signs = _parity_signs(supports[:, None] & basis, n_qubits)
    return (coefficients[:, None] * signs).sum(axis=0)


class _PauliTable:
    """A Pauli sum compiled for an ``n_qubits`` register (module docstring).

    ``masks`` holds the distinct x-masks in increasing order and
    ``columns[m, j] = j ^ masks[m]``.  ``weights[m, j] = H[j, columns[m, j]]``
    is the weight vector of ``masks[m]`` at the rows it lands in, so every
    form reads the state at ``columns``.  ``constant`` is ``c0``.
    """

    __slots__ = ("constant", "masks", "columns", "weights")

    def __init__(self, terms: Sequence[PauliString], n_qubits: int) -> None:
        basis = np.arange(1 << n_qubits, dtype=np.int64)
        self.constant = float(sum(t.coefficient for t in terms if t.is_identity))
        strings = [term for term in terms if not term.is_identity]
        x_masks = np.zeros(len(strings), dtype=np.int64)
        z_masks = np.zeros(len(strings), dtype=np.int64)
        factors = np.zeros(len(strings), dtype=complex)
        for index, term in enumerate(strings):
            x_mask, z_mask, n_y = _term_masks(term, n_qubits)
            x_masks[index], z_masks[index] = x_mask, z_mask
            # popcount((j ^ x) & z) = popcount(j & z) + n_Y (mod 2)
            factors[index] = term.coefficient * _ROW_PHASES[n_y % 4]
        order = np.argsort(x_masks, kind="stable")
        self.masks, starts = np.unique(x_masks[order], return_index=True)
        self.columns = basis ^ self.masks[:, None]
        signs = _parity_signs(z_masks[order, None] & basis, n_qubits)
        if strings:
            grid = factors[order, None] * signs
            self.weights = np.add.reduceat(grid, starts, axis=0)
        else:
            self.weights = np.zeros((0, basis.size), dtype=complex)

    def _moved(self, states: np.ndarray) -> np.ndarray:
        """``moved[b, m, j] = H[j, j ^ masks[m]] psi_b[j ^ masks[m]]``."""
        moved = states[:, self.columns].astype(complex, copy=False)
        moved *= self.weights
        return moved

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """``<psi|H|psi>`` of each row of a ``(batch, 2**n)`` array."""
        overlap = np.einsum("bj,bmj->b", states.conj(), self._moved(states))
        return self.constant + overlap.real

    def apply(self, states: np.ndarray) -> np.ndarray:
        """``H|psi>`` of each row of a ``(batch, 2**n)`` array."""
        return self.constant * states + self._moved(states).sum(axis=1)

    def trace(self, rho: np.ndarray) -> float:
        """``tr(H rho)`` of one ``(2**n, 2**n)`` density matrix."""
        gathered = rho[self.columns, np.arange(rho.shape[0])]
        return self.constant + float(np.sum(self.weights * gathered).real)


def group_commuting(observable: PauliSum) -> List[List[PauliString]]:
    """Greedy grouping of terms into qubit-wise commuting measurement groups.

    VQE measures each group with one circuit (one basis-rotation setting), so
    fewer groups means fewer device runs — the same strategy Qiskit uses.
    """
    groups: List[List[PauliString]] = []
    for term in sorted(observable.terms, key=lambda t: -t.weight()):
        if term.is_identity:
            continue
        placed = False
        for group in groups:
            if all(term.commutes_qubitwise(member) for member in group):
                group.append(term)
                placed = True
                break
        if not placed:
            groups.append([term])
    return groups
