"""Tests for basis-gate decomposition (unitary equivalence, gate counts)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.gates import GATES, gate_matrix, gate_num_params
from repro.quantum.statevector import circuit_unitary
from repro.transpile.decompose import (
    BASIS_GATES,
    _gate_entries,
    compiled_gate_count_u3,
    decompose_circuit,
    decompose_instruction,
    decompose_u3,
    u3_angles_from_matrix,
)

ANGLES = st.floats(-np.pi + 1e-3, np.pi - 1e-3, allow_nan=False)


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol=1e-7) -> bool:
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[index]) < 1e-12:
        return False
    phase = a[index] / b[index]
    return np.allclose(a, phase * b, atol=atol)


def _instruction_unitary(instructions, n_qubits):
    circuit = QuantumCircuit(n_qubits)
    circuit.extend(instructions)
    return circuit_unitary(circuit)


@settings(max_examples=30, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_u3_angle_extraction_roundtrip(theta, phi, lam):
    matrix = gate_matrix("u3", (theta, phi, lam))
    recovered = u3_angles_from_matrix(matrix)
    rebuilt = gate_matrix("u3", recovered)
    assert _equal_up_to_phase(matrix, rebuilt)


@settings(max_examples=30, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_decompose_u3_preserves_unitary(theta, phi, lam):
    original = gate_matrix("u3", (theta, phi, lam))
    decomposed = _instruction_unitary(decompose_u3(0, theta, phi, lam), 1)
    assert _equal_up_to_phase(original, decomposed)


def test_u3_compiled_gate_counts_match_paper():
    """U3 special cases: pruning angles reduces the compiled gate count.

    The paper's Table (5, 1, 4, 4, 4, 1, 1) is reproduced except for
    ``U3(theta, 0, lambda)`` where our ZSX template keeps a trailing RZ(pi)
    (5 gates instead of 4); the monotone benefit of pruning is unchanged.
    """
    assert compiled_gate_count_u3(0.7, 0.5, 0.3) == 5
    assert compiled_gate_count_u3(0.7, 0.5, 0.0) == 4
    assert compiled_gate_count_u3(0.7, 0.0, 0.3) <= 5
    assert compiled_gate_count_u3(0.7, 0.0, 0.0) == 4
    assert compiled_gate_count_u3(0.0, 0.5, 0.3) == 1
    assert compiled_gate_count_u3(0.0, 0.5, 0.0) == 1
    assert compiled_gate_count_u3(0.0, 0.0, 0.3) == 1
    assert compiled_gate_count_u3(0.0, 0.0, 0.0) == 0


TWO_QUBIT_PARAM_GATES = ["cu3", "cu1", "crx", "cry", "crz", "rzz", "rxx", "ryy", "rzx"]


@pytest.mark.parametrize("gate", TWO_QUBIT_PARAM_GATES)
def test_two_qubit_decompositions_preserve_unitary(gate):
    rng = np.random.default_rng(hash(gate) % 2**31)
    for _ in range(3):
        params = tuple(rng.uniform(-np.pi, np.pi, size=gate_num_params(gate)))
        instruction = Instruction(gate, (0, 1), params)
        decomposed = decompose_instruction(instruction)
        assert _equal_up_to_phase(
            _instruction_unitary([instruction], 2),
            _instruction_unitary(decomposed, 2),
        ), gate


@pytest.mark.parametrize("gate", ["cz", "cy", "swap", "cx"])
def test_fixed_two_qubit_decompositions(gate):
    instruction = Instruction(gate, (0, 1))
    decomposed = decompose_instruction(instruction)
    assert _equal_up_to_phase(
        _instruction_unitary([instruction], 2), _instruction_unitary(decomposed, 2)
    )


@pytest.mark.parametrize("gate", ["h", "s", "t", "sx", "x", "sh", "sdg", "tdg"])
def test_single_qubit_gates_decompose_to_basis(gate):
    instruction = Instruction(gate, (0,))
    decomposed = decompose_instruction(instruction)
    for out in decomposed:
        assert out.gate in BASIS_GATES
    assert _equal_up_to_phase(
        _instruction_unitary([instruction], 1), _instruction_unitary(decomposed, 1)
    )


def test_opaque_two_qubit_gate_is_kept():
    instruction = Instruction("sqswap", (0, 1))
    decomposed = decompose_instruction(instruction)
    assert decomposed == [instruction]


def test_decompose_circuit_only_contains_basis_or_opaque_gates():
    circuit = QuantumCircuit(3)
    circuit.add("u3", (0,), (0.4, 0.2, 0.1))
    circuit.add("cu3", (0, 1), (0.9, -0.3, 0.5))
    circuit.add("rzz", (1, 2), (0.6,))
    circuit.add("h", (2,))
    lowered = decompose_circuit(circuit)
    allowed = set(BASIS_GATES)
    for instruction in lowered.instructions:
        assert instruction.gate in allowed
    assert _equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(lowered))


def test_identity_rotations_disappear():
    assert decompose_instruction(Instruction("rz", (0,), (0.0,))) == []
    assert decompose_instruction(Instruction("i", (0,))) == []


@pytest.mark.parametrize(
    "gate", sorted(name for name, spec in GATES.items() if spec.num_qubits == 1)
)
def test_scalar_entries_equal_gate_matrix(gate):
    """The scalar 2x2 entries the decomposition and bind-time replay read are
    ``gate_matrix``'s, entry for entry, at random and at branch angles."""
    rng = np.random.default_rng(sorted(GATES).index(gate))
    n_params = gate_num_params(gate)
    draws = [rng.uniform(-2 * np.pi, 2 * np.pi, n_params) for _ in range(200)]
    draws += [np.full(n_params, angle) for angle in (0.0, np.pi, -np.pi, np.pi / 2)]
    for params in draws:
        params = tuple(float(p) for p in params)
        matrix = gate_matrix(gate, params)
        expected = (matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1])
        assert _gate_entries(gate, params) == expected, (gate, params)
