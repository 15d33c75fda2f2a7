"""Kraus-operator noise channels.

The three error families the paper's estimator uses ("coherent (depolarizing),
decoherence (thermal relaxation), and SPAM (readout) errors") are implemented
as Kraus channels.  The density kernel composes them into superoperators
(:func:`repro.quantum.density_matrix.channel_superoperator`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..quantum.gates import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z

__all__ = [
    "depolarizing_kraus",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "thermal_relaxation_kraus",
    "readout_confusion_matrix",
    "completeness_error",
    "is_cptp",
]

_PAULIS = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]


@lru_cache(maxsize=512)
def depolarizing_kraus(probability: float, n_qubits: int = 1) -> Tuple[np.ndarray, ...]:
    """Depolarizing channel on ``n_qubits`` with error probability ``p``.

    With probability ``p`` the state is replaced by a uniformly random Pauli
    error (excluding identity); with probability ``1 - p`` it is untouched.

    Memoized: a device has a handful of distinct error rates but the noisy
    simulation hot loop requests the channel once per gate position, so the
    operators (an ``n_qubits``-fold Kronecker sweep) are built once per
    ``(probability, n_qubits)`` and shared read-only.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    dim_terms = 4**n_qubits
    kraus: List[np.ndarray] = []
    for index, paulis in enumerate(itertools.product(_PAULIS, repeat=n_qubits)):
        op = np.array([[1.0 + 0.0j]])
        for pauli in paulis:
            op = np.kron(op, pauli)
        if index == 0:
            kraus.append(math.sqrt(1.0 - probability) * op)
        else:
            kraus.append(math.sqrt(probability / (dim_terms - 1)) * op)
    for op in kraus:
        op.flags.writeable = False
    return tuple(kraus)


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """T1 relaxation toward ``|0>`` with decay probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(lam: float) -> List[np.ndarray]:
    """Pure dephasing with phase-flip-equivalent probability ``lam``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return [k0, k1]


def _compose_single_qubit(
    first: Sequence[np.ndarray], second: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Kraus operators of channel ``second ∘ first`` on one qubit."""
    return [b @ a for a in first for b in second]


@lru_cache(maxsize=4096)
def thermal_relaxation_kraus(
    t1: float, t2: float, duration: float
) -> Tuple[np.ndarray, ...]:
    """Thermal relaxation during ``duration`` given T1/T2 times.

    Modelled as amplitude damping (rate ``1/T1``) followed by pure dephasing at
    the excess rate ``1/T_phi = 1/T2 - 1/(2 T1)`` — the standard decomposition
    for ``T2 <= 2 T1`` superconducting qubits.

    Memoized per ``(t1, t2, duration)`` — the simulation hot loop requests the
    same per-qubit channel once per gate position.  Operators are read-only.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    t2 = min(t2, 2.0 * t1)
    gamma = 1.0 - math.exp(-duration / t1)
    rate_phi = max(1.0 / t2 - 0.5 / t1, 0.0)
    lam = 1.0 - math.exp(-2.0 * duration * rate_phi)
    kraus = _compose_single_qubit(
        amplitude_damping_kraus(gamma), phase_damping_kraus(lam)
    )
    for op in kraus:
        op.flags.writeable = False
    return tuple(kraus)


def readout_confusion_matrix(p_meas1_given0: float, p_meas0_given1: float):
    """Single-qubit readout confusion matrix ``M[i, j] = P(read i | true j)``."""
    for value in (p_meas1_given0, p_meas0_given1):
        if not 0.0 <= value <= 1.0:
            raise ValueError("readout error probabilities must be in [0, 1]")
    return np.array(
        [
            [1.0 - p_meas1_given0, p_meas0_given1],
            [p_meas1_given0, 1.0 - p_meas0_given1],
        ]
    )


def completeness_error(kraus_operators: Sequence[np.ndarray]) -> float:
    """Largest entry of ``|sum_i K_i† K_i - I|`` (zero for a CPTP channel)."""
    dim = kraus_operators[0].shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for kraus in kraus_operators:
        total += kraus.conj().T @ kraus
    return float(np.abs(total - np.eye(dim)).max())


def is_cptp(kraus_operators: Sequence[np.ndarray], atol: float = 1e-9) -> bool:
    """Check the completeness relation ``sum_i K_i† K_i = I``."""
    return completeness_error(kraus_operators) <= atol
