"""SWAP-insertion routing onto a device coupling map."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..quantum.circuit import QuantumCircuit, trusted_circuit, trusted_instruction
from ..devices.library import Device

__all__ = ["RoutedCircuit", "route_circuit"]


@dataclass
class RoutedCircuit:
    """The result of routing a logical circuit onto physical qubits."""

    circuit: QuantumCircuit          # instructions act on physical qubit indices
    initial_layout: Dict[int, int]   # logical -> physical, before routing
    final_layout: Dict[int, int]     # logical -> physical, after routing
    num_swaps: int
    used_qubits: Tuple[int, ...]     # physical qubits touched by the circuit

    @property
    def depth(self) -> int:
        return self.circuit.depth()


def route_circuit(
    circuit: QuantumCircuit, device: Device, initial_layout: Dict[int, int],
    *, make=trusted_instruction,
) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on coupled physical qubits.

    A greedy shortest-path router: when a two-qubit gate addresses physical
    qubits that are not adjacent, SWAPs are inserted along a shortest path to
    bring the first operand next to the second.

    ``initial_layout`` must be a checked layout (``int`` physical qubits,
    distinct and on the device, as the compiler's layout resolution returns),
    so every routed gate is built unchecked by ``make(gate, qubits,
    params)``.  The parametric pipeline passes its symbolic instruction
    class and routes through this same code.
    """
    topology = device.topology
    if circuit.n_qubits > device.n_qubits:
        raise ValueError(
            f"circuit with {circuit.n_qubits} qubits does not fit on "
            f"{device.name} ({device.n_qubits} qubits)"
        )
    logical_to_physical = dict(initial_layout)
    for logical in range(circuit.n_qubits):
        if logical not in logical_to_physical:
            raise ValueError(f"initial layout is missing logical qubit {logical}")
    physical_to_logical = {p: l for l, p in logical_to_physical.items()}

    routed: list = []
    num_swaps = 0
    used: set[int] = set(logical_to_physical.values())

    def apply_swap(phys_a: int, phys_b: int) -> None:
        nonlocal num_swaps
        routed.append(make("swap", (phys_a, phys_b), ()))
        num_swaps += 1
        logical_a = physical_to_logical.get(phys_a)
        logical_b = physical_to_logical.get(phys_b)
        if logical_a is not None:
            logical_to_physical[logical_a] = phys_b
        if logical_b is not None:
            logical_to_physical[logical_b] = phys_a
        physical_to_logical.pop(phys_a, None)
        physical_to_logical.pop(phys_b, None)
        if logical_a is not None:
            physical_to_logical[phys_b] = logical_a
        if logical_b is not None:
            physical_to_logical[phys_a] = logical_b
        used.update((phys_a, phys_b))

    for instruction in circuit.instructions:
        if len(instruction.qubits) == 1:
            physical = logical_to_physical[instruction.qubits[0]]
            routed.append(make(instruction.gate, (physical,), instruction.params))
            used.add(physical)
            continue
        logical_a, logical_b = instruction.qubits
        phys_a = logical_to_physical[logical_a]
        phys_b = logical_to_physical[logical_b]
        if not topology.are_adjacent(phys_a, phys_b):
            path = topology.shortest_path(phys_a, phys_b)
            # Move the first operand along the path until adjacent to the target.
            for step in range(len(path) - 2):
                apply_swap(path[step], path[step + 1])
            phys_a = logical_to_physical[logical_a]
            phys_b = logical_to_physical[logical_b]
        routed.append(make(instruction.gate, (phys_a, phys_b), instruction.params))
        used.update((phys_a, phys_b))

    return RoutedCircuit(
        circuit=trusted_circuit(device.n_qubits, routed),
        initial_layout=dict(initial_layout),
        final_layout=dict(logical_to_physical),
        num_swaps=num_swaps,
        used_qubits=tuple(sorted(used)),
    )
