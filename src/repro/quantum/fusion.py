"""Static execution mode: greedy gate fusion (TorchQuantum "static mode").

Consecutive instructions whose combined support fits in ``max_fused_qubits``
are fused into a single unitary, so the simulator applies fewer, larger
contractions.  This is Fig. 12's static-mode engine: it reproduces the >2x
static-mode speedup the paper reports for TorchQuantum, and
``benchmarks/bench_fig12_training_speed.py`` measures it.  No simulation
backend uses it; every noise-free score runs the dynamic forward
(:func:`~repro.quantum.statevector.run_parameterized`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .circuit import Instruction, QuantumCircuit
from .statevector import apply_matrix, circuit_unitary, zero_state

__all__ = ["FusedInstruction", "FusedCircuit", "fuse_circuit"]


@dataclass(frozen=True)
class FusedInstruction:
    """A dense unitary acting on an ordered tuple of qubits."""

    qubits: Tuple[int, ...]
    matrix: np.ndarray


def _fuse_group(group: Sequence[Instruction], qubits: Tuple[int, ...]) -> np.ndarray:
    """Compute the joint unitary of a group of instructions on ``qubits``."""
    local_index = {q: i for i, q in enumerate(qubits)}
    mini = QuantumCircuit(len(qubits))
    for instruction in group:
        mini.add(
            instruction.gate,
            tuple(local_index[q] for q in instruction.qubits),
            instruction.params,
        )
    return circuit_unitary(mini)


def fuse_circuit(
    circuit: QuantumCircuit, max_fused_qubits: int = 3
) -> List[FusedInstruction]:
    """Greedily group consecutive instructions into ≤ ``max_fused_qubits`` blocks."""
    if max_fused_qubits < 1:
        raise ValueError("max_fused_qubits must be positive")
    fused: List[FusedInstruction] = []
    group: List[Instruction] = []
    support: Tuple[int, ...] = ()

    def flush() -> None:
        nonlocal group, support
        if group:
            fused.append(FusedInstruction(support, _fuse_group(group, support)))
            group, support = [], ()

    for instruction in circuit.instructions:
        candidate = tuple(sorted(set(support) | set(instruction.qubits)))
        if len(candidate) <= max_fused_qubits:
            group.append(instruction)
            support = candidate
        else:
            flush()
            group = [instruction]
            support = tuple(sorted(instruction.qubits))
    flush()
    return fused


class FusedCircuit:
    """A fused (static-mode) representation of a concrete circuit."""

    def __init__(self, n_qubits: int, fused: Sequence[FusedInstruction]) -> None:
        self.n_qubits = n_qubits
        self.fused = list(fused)

    @classmethod
    def from_circuit(
        cls, circuit: QuantumCircuit, max_fused_qubits: int = 3
    ) -> "FusedCircuit":
        return cls(circuit.n_qubits, fuse_circuit(circuit, max_fused_qubits))

    def __len__(self) -> int:
        return len(self.fused)

    def run(self, states: np.ndarray | None = None, batch: int = 1) -> np.ndarray:
        """Evolve a batched state through the fused instruction list."""
        if states is None:
            states = zero_state(self.n_qubits, batch)
        for block in self.fused:
            states = apply_matrix(states, block.matrix, block.qubits)
        return states
