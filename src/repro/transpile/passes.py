"""Circuit optimization passes (the compiler's optimization levels 1-3).

Each pass is a list-level core that both compilation pipelines run; the
public :class:`QuantumCircuit` passes wrap it.  The cores read only gate
names, qubits and angles through keyword-only hooks that default to the
concrete pipeline: ``is_zero(angle)`` decides a zero-angle branch,
``fuse(first, second, angle)`` builds the RZ two merged RZs become, and
``flush(qubit, run)`` re-emits a run of single-qubit gates.  The passes only
see instructions validated where the circuit entered the compiler, so the
default hooks build what they emit through
:func:`~repro.quantum.circuit.trusted_instruction`, unchecked.  The
parametric pipeline passes hooks that record guards, carry provenance and
replay runs at bind time (:mod:`.parametric`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import telemetry
from ..quantum.circuit import (
    Instruction,
    QuantumCircuit,
    trusted_circuit,
    trusted_instruction,
)
from .decompose import _is_zero_angle, decompose_u3, u3_angles_from_matrix

__all__ = [
    "cancel_adjacent_inverse_cx",
    "cancel_adjacent_inverse_cx_run",
    "merge_adjacent_rz",
    "drop_identity_rotations",
    "resynthesize_single_qubit_runs",
]

#: gates that compile to the identity when every angle is ~0
_ROTATION_GATES = frozenset({
    "rx", "ry", "rz", "u1", "u3", "rzz", "rxx", "ryy", "rzx",
    "crx", "cry", "crz", "cu1", "cu3",
})


def _traced(step: str, compiler_pass, *args, **kwargs):
    """Run one compiler pass under a ``transpile.pass{step=...}`` span."""
    with telemetry.span("transpile.pass", step=step):
        return compiler_pass(*args, **kwargs)


#: two-qubit gates that are their own inverse
_SELF_INVERSE_2Q = frozenset({"cx", "cz", "swap"})

# The CX-cancel and RZ-merge passes look up a qubit's latest output
# instruction in ``last`` (qubit -> position in ``out``) instead of scanning
# ``out`` backwards.  Only a gate the pass may remove records ``below``, the
# positions it covered on its qubits; removing it (always the latest on each
# of its qubits) leaves a ``None`` hole in ``out`` and restores ``last``.


def cancel_adjacent_inverse_cx_run(instructions: List) -> List:
    """List-level core of :func:`cancel_adjacent_inverse_cx`.

    Reads only ``.gate`` and ``.qubits``, never an angle, so it needs no
    hooks: both pipelines run it as it is.
    """
    out: List = []
    last: Dict[int, int] = {}
    below: Dict[int, Tuple[int, int]] = {}
    for instruction in instructions:
        qubits = instruction.qubits
        if instruction.gate in _SELF_INVERSE_2Q:
            a, b = qubits
            covered = (last.get(a, -1), last.get(b, -1))
            # the latest op on either qubit; one acting on both qubits is
            # then the latest on each
            previous = max(covered)
            if previous >= 0:
                candidate = out[previous]
                if (
                    candidate.gate == instruction.gate
                    and candidate.qubits == qubits
                ):
                    out[previous] = None
                    last[a], last[b] = below.pop(previous)
                    continue
            below[len(out)] = covered
        for qubit in qubits:
            last[qubit] = len(out)
        out.append(instruction)
    return [instruction for instruction in out if instruction is not None]


def cancel_adjacent_inverse_cx(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove back-to-back identical CX (and CZ/SWAP) pairs."""
    return trusted_circuit(
        circuit.n_qubits, cancel_adjacent_inverse_cx_run(circuit.instructions)
    )


def _fuse_rz(first: Instruction, second: Instruction, angle: float) -> Instruction:
    return trusted_instruction("rz", second.qubits, (angle,))


def _merge_adjacent_rz_run(
    instructions: List, *, is_zero=_is_zero_angle, fuse=_fuse_rz
) -> List:
    """List-level core of :func:`merge_adjacent_rz`."""
    out: List = []
    last: Dict[int, int] = {}
    below: Dict[int, int] = {}
    for instruction in instructions:
        if instruction.gate == "rz":
            (qubit,) = instruction.qubits
            previous = last.get(qubit, -1)
            if previous >= 0 and out[previous].gate == "rz":
                first = out[previous]
                out[previous] = None
                last[qubit] = below.pop(previous)
                merged = first.params[0] + instruction.params[0]
                if not is_zero(merged):
                    below[len(out)] = last[qubit]
                    last[qubit] = len(out)
                    out.append(fuse(first, instruction, merged))
                continue
            if is_zero(instruction.params[0]):
                continue
            below[len(out)] = previous
        for qubit in instruction.qubits:
            last[qubit] = len(out)
        out.append(instruction)
    return [instruction for instruction in out if instruction is not None]


def merge_adjacent_rz(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse consecutive RZ rotations on the same qubit; drop zero rotations."""
    return trusted_circuit(
        circuit.n_qubits, _merge_adjacent_rz_run(circuit.instructions)
    )


def _drop_identity_run(instructions: List, *, is_zero=_is_zero_angle) -> List:
    """List-level core of :func:`drop_identity_rotations`."""
    return [
        instruction
        for instruction in instructions
        if not (
            instruction.gate in _ROTATION_GATES
            and all(is_zero(angle) for angle in instruction.params)
        )
    ]


def drop_identity_rotations(circuit: QuantumCircuit, atol: float = 1e-9):
    """Remove rotations whose angles are all ~0 (they compile to identity)."""
    return trusted_circuit(circuit.n_qubits, _drop_identity_run(
        circuit.instructions, is_zero=lambda angle: _is_zero_angle(angle, atol)
    ))


_IDENTITY = np.eye(2, dtype=complex)
_IDENTITY.setflags(write=False)


def _flush_run(qubit: int, run: List) -> List[Instruction]:
    """Multiply a run's 2x2 matrices and re-emit the product as one U3."""
    matrix = _IDENTITY
    for instruction in run:
        matrix = instruction.matrix() @ matrix
    theta, phi, lam = u3_angles_from_matrix(matrix)
    return decompose_u3(qubit, theta, phi, lam)


def _resynthesize_run(instructions: List, *, flush=_flush_run) -> List:
    """List-level core of :func:`resynthesize_single_qubit_runs`."""
    pending: Dict[int, List] = {}
    out: List = []
    for instruction in instructions:
        if len(instruction.qubits) == 1:
            pending.setdefault(instruction.qubits[0], []).append(instruction)
            continue
        for qubit in instruction.qubits:
            run = pending.pop(qubit, None)
            if run is not None:
                out.extend(flush(qubit, run))
        out.append(instruction)
    for qubit in sorted(pending):
        out.extend(flush(qubit, pending[qubit]))
    return out


def resynthesize_single_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse runs of consecutive single-qubit gates into one U3 each.

    Each maximal run of single-qubit gates on a wire is multiplied into a
    single 2x2 unitary and re-emitted through the U3 -> RZ/SX decomposition,
    which both shortens the circuit and restores the zero-angle special cases
    after pruning.
    """
    return trusted_circuit(
        circuit.n_qubits, _resynthesize_run(circuit.instructions)
    )


def _optimize(
    instructions: List, level: int, *,
    is_zero=_is_zero_angle, fuse=_fuse_rz, flush=_flush_run,
) -> List:
    """Optimization ``level``'s pass sequence over a decomposed instruction list.

    Level 1 cancels adjacent CX pairs, merges RZs and drops identity
    rotations; level 2 then re-synthesizes single-qubit runs and cancels and
    merges once more.  Each pass runs under its ``transpile.pass`` span.
    """
    if level >= 1:
        instructions = _traced("cancel_cx", cancel_adjacent_inverse_cx_run,
                               instructions)
        instructions = _traced("merge_rz", _merge_adjacent_rz_run, instructions,
                               is_zero=is_zero, fuse=fuse)
        instructions = _traced("drop_identity", _drop_identity_run, instructions,
                               is_zero=is_zero)
    if level >= 2:
        instructions = _traced("resynthesize", _resynthesize_run, instructions,
                               flush=flush)
        instructions = _traced("cancel_cx", cancel_adjacent_inverse_cx_run,
                               instructions)
        instructions = _traced("merge_rz", _merge_adjacent_rz_run, instructions,
                               is_zero=is_zero, fuse=fuse)
    return instructions
