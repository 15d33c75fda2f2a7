"""Decomposition of circuits into the IBMQ basis gate set (CX, SX, RZ, X).

The gate-count bookkeeping here drives the pruning analysis in the paper:
``U3(theta, phi, lambda)`` compiles to 5 basis gates, while zeroing one or two
of its angles reduces the compiled count to 4 or 1 — which is exactly why
fine-grained (per-angle) pruning reduces noise.

Every rule is written once and serves both compilation pipelines.  What
differs between them arrives as keyword-only hooks that default to the
concrete pipeline: ``make(gate, qubits, params)`` builds an emitted gate,
``is_zero(angle)`` decides a zero-angle branch and ``norm(angle)`` wraps an
emitted angle.  The rules only ever lower instructions that were validated
where the circuit entered the compiler, so the default ``make`` is
:func:`~repro.quantum.circuit.trusted_instruction`, which checks nothing;
every emitted angle is a ``float``.  The parametric pipeline
(:mod:`.parametric`) runs the same rules over angle expressions, with an
``is_zero`` that records a guard and an identity ``norm``; its bind-time
replay emits ``(gate, qubits, params)`` tuples, and its batch bind runs
:func:`decompose_u3` over arrays of angles.  For that, the scalar angle
helpers have array forms written next to them (``_normalize_angles``,
``_is_zero_angles``, ``_gate_entries_batch``, ``_u3_angles_batch``), each
repeating its scalar pair's arithmetic elementwise.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Sequence, Tuple

import numpy as np

from ..quantum.circuit import (
    Instruction,
    QuantumCircuit,
    trusted_circuit,
    trusted_instruction,
)
from ..quantum.gates import gate_matrix

__all__ = [
    "BASIS_GATES",
    "u3_angles_from_matrix",
    "decompose_u3",
    "decompose_instruction",
    "decompose_circuit",
    "compiled_gate_count_u3",
]

BASIS_GATES = ("cx", "sx", "rz", "x")

_TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _normalize_angle(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]``."""
    wrapped = math.fmod(angle, _TWO_PI)
    if wrapped > math.pi:
        wrapped -= _TWO_PI
    elif wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """:func:`_normalize_angle` over an array, elementwise (a 0-d one too)."""
    wrapped = np.asarray(np.fmod(angles, _TWO_PI))
    np.subtract(wrapped, _TWO_PI, out=wrapped, where=wrapped > math.pi)
    np.add(wrapped, _TWO_PI, out=wrapped, where=wrapped <= -math.pi)
    return wrapped


def _is_zero_angle(angle: float, atol: float = 1e-9) -> bool:
    """Whether ``angle`` lies within ``atol`` of a multiple of ``2*pi``."""
    return abs(_normalize_angle(angle)) < atol


def _is_zero_angles(angles: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """:func:`_is_zero_angle` over an array, elementwise."""
    return np.abs(_normalize_angles(angles)) < atol


def _complex(real, imag) -> np.ndarray:
    """``complex(real, imag)`` elementwise: no product, so no rounding."""
    out = np.empty(np.broadcast(real, imag).shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _gate_entries(gate: str, params: Sequence[float]):
    """The 2x2 matrix of a single-qubit gate as four python complex scalars.

    Uses the formulas of :mod:`repro.quantum.gates` for the gates a compile
    meets most, so every entry equals :func:`gate_matrix`'s (pinned by the
    transpile tests), without building an array; any other gate is read off
    :func:`gate_matrix`.
    """
    if gate == "rz":
        theta = params[0]
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(cos, -sin), 0j, 0j, complex(cos, sin))
    if gate == "ry":
        theta = params[0]
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(cos), complex(-sin), complex(sin), complex(cos))
    if gate == "rx":
        theta = params[0]
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return (complex(cos), complex(0, -sin), complex(0, -sin), complex(cos))
    if gate == "u1":
        return (1 + 0j, 0j, 0j, cmath.exp(1j * params[0]))
    if gate == "u3":
        theta, phi, lam = params
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return (
            complex(cos),
            -cmath.exp(1j * lam) * sin,
            cmath.exp(1j * phi) * sin,
            cmath.exp(1j * (phi + lam)) * cos,
        )
    if gate == "u2":
        phi, lam = params
        return (
            complex(_INV_SQRT2),
            -_INV_SQRT2 * cmath.exp(1j * lam),
            _INV_SQRT2 * cmath.exp(1j * phi),
            _INV_SQRT2 * cmath.exp(1j * (phi + lam)),
        )
    if gate == "sx":
        return (0.5 + 0.5j, 0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j)
    if gate == "x":
        return (0j, 1 + 0j, 1 + 0j, 0j)
    matrix = gate_matrix(gate, params)
    return (
        complex(matrix[0, 0]),
        complex(matrix[0, 1]),
        complex(matrix[1, 0]),
        complex(matrix[1, 1]),
    )


def _gate_entries_batch(gate: str, params: Sequence[np.ndarray]):
    """:func:`_gate_entries` over arrays: ``params[i]`` holds angle ``i``.

    Each formula repeats its scalar sibling's, so the entries agree with it
    to rounding (numpy may round a complex product differently in the last
    bit).  A real entry may come back as a float array, and an entry that
    does not depend on the angles as a python scalar; both broadcast into a
    complex array unchanged.  Only the gates a replay node or an emission
    guard reads reach it: U3 is always decomposed symbolically.
    """
    if gate in ("rz", "ry", "rx"):
        theta = params[0]
        cos, sin = np.cos(theta / 2), np.sin(theta / 2)
        if gate == "rz":
            return (_complex(cos, -sin), 0j, 0j, _complex(cos, sin))
        if gate == "ry":
            return (cos, -sin, sin, cos)
        return (cos, _complex(0.0, -sin), _complex(0.0, -sin), cos)
    if gate == "u1":
        return (1 + 0j, 0j, 0j, np.exp(1j * params[0]))
    if gate == "u2":
        phi, lam = params
        return (
            complex(_INV_SQRT2),
            -_INV_SQRT2 * np.exp(1j * lam),
            _INV_SQRT2 * np.exp(1j * phi),
            _INV_SQRT2 * np.exp(1j * (phi + lam)),
        )
    raise ValueError(f"no batched 2x2 entries for gate '{gate}'")


def _u3_angles(m00, m01, m10, m11) -> Tuple[float, float, float]:
    """``(theta, phi, lam)`` of the 2x2 unitary with entries ``m00 .. m11``."""
    abs00 = abs(m00)
    abs10 = abs(m10)
    theta = 2.0 * math.atan2(abs10, abs00)
    if abs10 < 1e-12:  # diagonal: theta ~ 0
        alpha = cmath.phase(m00)
        lam = cmath.phase(m11) - alpha
        return (0.0, 0.0, _normalize_angle(lam))
    if abs00 < 1e-12:  # anti-diagonal: theta ~ pi
        alpha = cmath.phase(-m01)
        phi = cmath.phase(m10) - alpha
        return (math.pi, _normalize_angle(phi), 0.0)
    alpha = cmath.phase(m00)
    phi = cmath.phase(m10) - alpha
    lam = cmath.phase(-m01) - alpha
    return (theta, _normalize_angle(phi), _normalize_angle(lam))


def _u3_angles_batch(m00, m01, m10, m11) -> Tuple[np.ndarray, ...]:
    """:func:`_u3_angles` over arrays of entries: each element takes the
    scalar's diagonal, anti-diagonal or general branch."""
    abs00 = np.abs(m00)
    abs10 = np.abs(m10)
    diagonal = abs10 < 1e-12
    anti = ~diagonal & (abs00 < 1e-12)
    phase01 = np.angle(-m01)
    alpha = np.where(anti, phase01, np.angle(m00))
    theta = np.where(
        diagonal, 0.0, np.where(anti, math.pi, 2.0 * np.arctan2(abs10, abs00))
    )
    phi = np.where(diagonal, 0.0, np.angle(m10) - alpha)
    lam = np.where(
        diagonal, np.angle(m11) - alpha, np.where(anti, 0.0, phase01 - alpha)
    )
    return theta, _normalize_angles(phi), _normalize_angles(lam)


def u3_angles_from_matrix(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Extract ``(theta, phi, lam)`` such that ``U = e^{i alpha} U3(theta, phi, lam)``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("u3 extraction needs a 2x2 matrix")
    return _u3_angles(matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1])


def decompose_u3(
    qubit: int, theta, phi, lam, *,
    make=trusted_instruction, is_zero=_is_zero_angle, norm=_normalize_angle,
) -> List:
    """Compile ``U3`` to the ``RZ/SX`` basis with the zero-angle special cases."""
    if is_zero(theta):
        merged = norm(phi + lam)
        if is_zero(merged):
            return []
        return [make("rz", (qubit,), (merged,))]
    sequence = []
    if not is_zero(lam):
        sequence.append(make("rz", (qubit,), (norm(lam),)))
    sequence.append(make("sx", (qubit,), ()))
    sequence.append(make("rz", (qubit,), (norm(theta + math.pi),)))
    sequence.append(make("sx", (qubit,), ()))
    # one object serves the branch and the emitted angle: a parametric
    # template gives every expression object its own row
    phi_shifted = phi + math.pi
    if not is_zero(phi_shifted):
        sequence.append(make("rz", (qubit,), (norm(phi_shifted),)))
    return sequence


def compiled_gate_count_u3(theta: float, phi: float, lam: float) -> int:
    """Number of basis gates a U3 with the given angles compiles to."""
    return len(decompose_u3(0, theta, phi, lam))


def _decompose_single_qubit(
    gate: str, qubit: int, params: Tuple[float, ...], make=trusted_instruction
) -> List:
    """One single-qubit gate with float angles in the basis, built by ``make``."""
    if gate in ("rz", "x", "sx"):
        if gate == "rz" and _is_zero_angle(params[0]):
            return []
        return [make(gate, (qubit,), params)]
    if gate == "i":
        return []
    if gate == "u3":
        theta, phi, lam = params
    else:
        theta, phi, lam = _u3_angles(*_gate_entries(gate, params))
    return decompose_u3(qubit, theta, phi, lam, make=make)


def _decompose_one(instruction: Instruction) -> List[Instruction]:
    return _decompose_single_qubit(
        instruction.gate, instruction.qubits[0], instruction.params
    )


def _two_qubit_rules(instruction, make=trusted_instruction) -> List | None:
    """Known exact decompositions of two-qubit gates into CX + 1q gates."""
    gate = instruction.gate
    a, b = instruction.qubits
    params = instruction.params
    cx = lambda c, t: make("cx", (c, t))  # noqa: E731

    if gate == "cx":
        return [instruction]
    if gate == "cz":
        return [make("h", (b,)), cx(a, b), make("h", (b,))]
    if gate == "cy":
        return [make("sdg", (b,)), cx(a, b), make("s", (b,))]
    if gate == "swap":
        return [cx(a, b), cx(b, a), cx(a, b)]
    if gate == "rzz":
        (theta,) = params
        return [cx(a, b), make("rz", (b,), (theta,)), cx(a, b)]
    if gate == "rzx":
        (theta,) = params
        return [
            make("h", (b,)),
            cx(a, b),
            make("rz", (b,), (theta,)),
            cx(a, b),
            make("h", (b,)),
        ]
    if gate == "rxx":
        (theta,) = params
        return [
            make("h", (a,)),
            make("h", (b,)),
            cx(a, b),
            make("rz", (b,), (theta,)),
            cx(a, b),
            make("h", (a,)),
            make("h", (b,)),
        ]
    if gate == "ryy":
        (theta,) = params
        return [
            make("rx", (a,), (math.pi / 2,)),
            make("rx", (b,), (math.pi / 2,)),
            cx(a, b),
            make("rz", (b,), (theta,)),
            cx(a, b),
            make("rx", (a,), (-math.pi / 2,)),
            make("rx", (b,), (-math.pi / 2,)),
        ]
    if gate == "crz":
        (lam,) = params
        return [
            make("rz", (b,), (lam / 2,)),
            cx(a, b),
            make("rz", (b,), (-lam / 2,)),
            cx(a, b),
        ]
    if gate == "cry":
        (theta,) = params
        return [
            make("ry", (b,), (theta / 2,)),
            cx(a, b),
            make("ry", (b,), (-theta / 2,)),
            cx(a, b),
        ]
    if gate == "crx":
        (theta,) = params
        return [
            make("h", (b,)),
            make("rz", (b,), (theta / 2,)),
            cx(a, b),
            make("rz", (b,), (-theta / 2,)),
            cx(a, b),
            make("h", (b,)),
        ]
    if gate == "cu1":
        (lam,) = params
        return [
            make("u1", (a,), (lam / 2,)),
            cx(a, b),
            make("u1", (b,), (-lam / 2,)),
            cx(a, b),
            make("u1", (b,), (lam / 2,)),
        ]
    if gate == "cu3":
        theta, phi, lam = params
        return [
            make("u1", (a,), ((lam + phi) / 2,)),
            make("u1", (b,), ((lam - phi) / 2,)),
            cx(a, b),
            make("u3", (b,), (-theta / 2, 0.0, -(phi + lam) / 2)),
            cx(a, b),
            make("u3", (b,), (theta / 2, phi, 0.0)),
        ]
    return None


def decompose_instruction(
    instruction: Instruction, *,
    make=trusted_instruction, single=_decompose_one, is_zero=_is_zero_angle,
) -> List:
    """Decompose one instruction into the basis gate set.

    Two-qubit gates without a registered rule (e.g. ``sqswap``) are kept as
    opaque hardware-calibrated gates; they still receive two-qubit noise and
    count as two-qubit operations.  ``single`` lowers one single-qubit
    instruction, a rule's pieces included.
    """
    if len(instruction.qubits) == 1:
        return single(instruction)
    rule = _two_qubit_rules(instruction, make)
    if rule is None:
        return [instruction]
    out = []
    for item in rule:
        if len(item.qubits) == 1 and item.gate not in BASIS_GATES:
            out.extend(single(item))
        elif len(item.qubits) == 1 and item.gate == "rz" and is_zero(item.params[0]):
            continue
        else:
            out.append(item)
    return out


def decompose_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Decompose every instruction of a circuit into the basis gate set."""
    return trusted_circuit(circuit.n_qubits, [
        piece
        for instruction in circuit.instructions
        for piece in decompose_instruction(instruction)
    ])
