"""Qubit-layout (initial mapping) passes.

Three layout strategies are provided, matching the baselines in the paper:

* :func:`trivial_layout` — logical qubit ``i`` on physical qubit ``i`` (the
  "naive mapping").
* :func:`noise_adaptive_layout` — a greedy noise-aware placement in the spirit
  of Murali et al. (the "Human design + noise-adaptive mapping" baseline).
* :func:`sabre_layout` — a randomized routing-cost-driven layout in the spirit
  of SABRE (Li et al.), the "Sabre mapping" baseline.

QuantumNAS itself searches the layout jointly with the circuit; the searched
mapping is handed to the compiler as the "initial layout" just as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..utils.rng import ensure_rng
from ..devices.library import Device

__all__ = [
    "Layout",
    "trivial_layout",
    "layout_from_sequence",
    "layout_from_dict",
    "interaction_weights",
    "layout_fidelity_score",
    "noise_adaptive_layout",
    "sabre_layout",
    "random_layout",
]

#: A layout maps logical qubit index -> physical qubit index.
Layout = Dict[int, int]


def trivial_layout(n_logical: int, device: Device) -> Layout:
    """Identity placement of logical onto physical qubits."""
    if n_logical > device.n_qubits:
        raise ValueError("circuit does not fit on the device")
    return {i: i for i in range(n_logical)}


def _checked(layout: Layout, device: Device) -> Layout:
    """``layout`` if its physical qubits are distinct and on ``device``."""
    physical = list(layout.values())
    if len(set(physical)) != len(physical):
        raise ValueError("layout assigns the same physical qubit twice")
    for qubit in physical:
        if not 0 <= qubit < device.n_qubits:
            raise ValueError(f"physical qubit {qubit} outside device of size {device.n_qubits}")
    return layout


def layout_from_sequence(physical_qubits: Sequence[int], device: Device) -> Layout:
    """Build a layout from an ordered list of physical qubits.

    This is how the qubit-mapping sub-gene of the evolutionary search is
    interpreted: position ``i`` of the gene holds the physical qubit assigned
    to logical qubit ``i``.
    """
    return _checked(
        {logical: int(phys) for logical, phys in enumerate(physical_qubits)},
        device,
    )


def layout_from_dict(mapping: Dict[int, int], device: Device) -> Layout:
    """A ``{logical: physical}`` dict as a checked layout of ``int`` qubits."""
    return _checked(
        {int(logical): int(phys) for logical, phys in mapping.items()}, device
    )


def random_layout(
    n_logical: int, device: Device, rng: Optional[np.random.Generator] = None
) -> Layout:
    """A uniformly random injective placement."""
    rng = ensure_rng(rng)
    physical = rng.permutation(device.n_qubits)[:n_logical]
    return {i: int(p) for i, p in enumerate(physical)}


def interaction_weights(circuit: QuantumCircuit) -> Dict[Tuple[int, int], int]:
    """Count two-qubit interactions between logical qubit pairs."""
    weights: Dict[Tuple[int, int], int] = {}
    for instruction in circuit.instructions:
        if len(instruction.qubits) == 2:
            a, b = sorted(instruction.qubits)
            weights[(a, b)] = weights.get((a, b), 0) + 1
    return weights


def layout_fidelity_score(
    circuit: QuantumCircuit, layout: Layout, device: Device
) -> float:
    """Estimated success probability of running ``circuit`` under ``layout``.

    Two-qubit gates between non-adjacent physical qubits are charged the error
    of the SWAP chain required to bring them together (3 CX per SWAP).
    """
    model = device.noise_model()
    topology = device.topology
    score = 1.0
    for instruction in circuit.instructions:
        if len(instruction.qubits) == 1:
            physical = layout[instruction.qubits[0]]
            score *= 1.0 - model.single_qubit_error(physical)
            continue
        phys_a, phys_b = (layout[q] for q in instruction.qubits)
        path = topology.shortest_path(phys_a, phys_b)
        n_swaps = max(len(path) - 2, 0)
        gate_error = model.two_qubit_error(path[-2], path[-1])
        score *= 1.0 - gate_error
        for i in range(n_swaps):
            edge_error = model.two_qubit_error(path[i], path[i + 1])
            score *= (1.0 - edge_error) ** 3
    for logical in range(circuit.n_qubits):
        physical = layout.get(logical)
        if physical is not None:
            score *= 1.0 - model.readout_error(physical)
    return score


def noise_adaptive_layout(circuit: QuantumCircuit, device: Device) -> Layout:
    """Greedy noise-aware placement.

    The most strongly interacting logical pair is placed on the most reliable
    physical edge; remaining logical qubits are attached one at a time to the
    neighbour that minimizes (CX error + readout error), following the greedy
    strategy of noise-adaptive compilers.
    """
    model = device.noise_model()
    topology = device.topology
    weights = interaction_weights(circuit)
    n_logical = circuit.n_qubits

    # Order logical qubits by total interaction strength.
    strength = {q: 0 for q in range(n_logical)}
    for (a, b), count in weights.items():
        strength[a] += count
        strength[b] += count

    # Pick the best physical edge for the strongest logical pair.
    best_edge = min(
        topology.edges,
        key=lambda e: model.two_qubit_error(*e)
        + 0.5 * (model.readout_error(e[0]) + model.readout_error(e[1])),
    )
    if weights:
        first_pair = max(weights, key=weights.get)
    else:
        ordered = sorted(strength, key=strength.get, reverse=True)
        first_pair = (ordered[0], ordered[1 % n_logical]) if n_logical > 1 else (0, 0)

    layout: Layout = {}
    used: set[int] = set()
    if n_logical == 1:
        best_qubit = min(
            range(device.n_qubits), key=lambda q: model.readout_error(q)
        )
        return {0: best_qubit}

    layout[first_pair[0]] = best_edge[0]
    layout[first_pair[1]] = best_edge[1]
    used.update(best_edge)

    remaining = [q for q in sorted(strength, key=strength.get, reverse=True)
                 if q not in layout]
    for logical in remaining:
        # physical candidates adjacent to already-placed partners, else any free
        partner_physicals = []
        for (a, b), count in weights.items():
            if a == logical and b in layout:
                partner_physicals.append((layout[b], count))
            elif b == logical and a in layout:
                partner_physicals.append((layout[a], count))
        candidates: set[int] = set()
        for physical, _count in partner_physicals:
            candidates.update(
                n for n in topology.neighbors(physical) if n not in used
            )
        if not candidates:
            candidates = {q for q in range(device.n_qubits) if q not in used}
        def cost(candidate: int) -> float:
            total = model.readout_error(candidate)
            for physical, count in partner_physicals:
                if topology.are_adjacent(candidate, physical):
                    total += count * model.two_qubit_error(candidate, physical)
                else:
                    total += count * (
                        3 * topology.distance(candidate, physical) * 0.02
                    )
            return total

        chosen = min(candidates, key=cost)
        layout[logical] = chosen
        used.add(chosen)
    return layout


def sabre_layout(
    circuit: QuantumCircuit,
    device: Device,
    n_trials: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> Layout:
    """Randomized routing-cost layout search (simplified SABRE).

    Several random initial layouts are routed; the layout with the fewest
    inserted SWAPs (ties broken by estimated fidelity) wins.
    """
    from .routing import route_circuit  # local import to avoid a cycle

    rng = ensure_rng(rng)
    best_layout: Optional[Layout] = None
    best_key: Optional[Tuple[int, float]] = None
    candidates = [trivial_layout(circuit.n_qubits, device)]
    candidates.extend(
        random_layout(circuit.n_qubits, device, rng) for _ in range(max(n_trials - 1, 0))
    )
    for layout in candidates:
        routed = route_circuit(circuit, device, layout)
        n_swaps = routed.num_swaps
        fidelity = layout_fidelity_score(circuit, layout, device)
        key = (n_swaps, -fidelity)
        if best_key is None or key < best_key:
            best_key = key
            best_layout = layout
    assert best_layout is not None
    return best_layout
