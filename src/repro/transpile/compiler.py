"""The transpiler front-end: layout + routing + decomposition + optimization.

``transpile`` mirrors the Qiskit flow the paper configures (optimization level
2 by default, level 3 for the Sabre / noise-adaptive baselines): the searched
qubit mapping is passed as the *initial layout*, SWAPs are inserted for the
device's coupling map, everything is lowered to the CX/SX/RZ/X basis and then
cleaned up by the optimization passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..devices.library import Device
from ..quantum.circuit import QuantumCircuit, trusted_circuit, trusted_instruction
from ..utils.rng import ensure_rng, stable_seed
from .decompose import decompose_circuit
from .layout import (
    Layout,
    layout_from_dict,
    layout_from_sequence,
    noise_adaptive_layout,
    sabre_layout,
    trivial_layout,
)
from .passes import _optimize, _traced
from .routing import RoutedCircuit, route_circuit

__all__ = ["CompiledCircuit", "compile_key", "compile_seed", "transpile"]

LayoutSpec = Union[str, Layout, Sequence[int], None]


@dataclass
class CompiledCircuit:
    """A compiled circuit plus the statistics the paper reports (Table II)."""

    circuit: QuantumCircuit            # physical circuit over device.n_qubits wires
    device: Device
    initial_layout: Layout
    final_layout: Layout
    used_qubits: Tuple[int, ...]
    num_swaps: int
    # memoized derived artifacts — compiled circuits are immutable shared
    # state (the execution engine's caches hand one instance to many
    # callers), so both are computed at most once per compilation
    _success_rate: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )
    _reduced: Optional[Tuple[QuantumCircuit, Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def depth(self) -> int:
        return self.circuit.depth()

    @property
    def num_gates(self) -> int:
        return len(self.circuit)

    @property
    def num_single_qubit_gates(self) -> int:
        return self.circuit.num_single_qubit_gates()

    @property
    def num_two_qubit_gates(self) -> int:
        return self.circuit.num_two_qubit_gates()

    def gate_counts(self) -> Dict[str, int]:
        return self.circuit.count_ops()

    def success_rate(self) -> float:
        """Estimated success probability under the device's noise model."""
        if self._success_rate is None:
            model = self.device.noise_model()
            rate = 1.0
            for instruction in self.circuit.instructions:
                rate *= 1.0 - model.instruction_error(instruction)
            for qubit in self.used_qubits:
                rate *= 1.0 - model.readout_error(qubit)
            self._success_rate = max(rate, 1e-12)
        return self._success_rate

    def reduced_circuit(self) -> Tuple[QuantumCircuit, Tuple[int, ...]]:
        """Re-index the physical circuit onto only the qubits it uses.

        Returns the reduced circuit and the physical qubits (in order) that
        its wires correspond to — this keeps noisy simulation of circuits on
        large devices tractable.  The result is memoized (and must therefore
        be treated as read-only, like the compilation itself).
        """
        if self._reduced is None:
            used = self.used_qubits
            index = {phys: i for i, phys in enumerate(used)}
            reduced = trusted_circuit(max(len(used), 1), [
                trusted_instruction(
                    instruction.gate,
                    tuple(index[q] for q in instruction.qubits),
                    instruction.params,
                )
                for instruction in self.circuit.instructions
            ])
            self._reduced = (reduced, used)
        return self._reduced

    def __getstate__(self) -> dict:
        # Both memos are derived deterministically from the compilation, so
        # cache entries shipped between sharded-scheduler processes drop them
        # — the pickle stays lean and the receiver re-derives on first use.
        state = self.__dict__.copy()
        state["_success_rate"] = None
        state["_reduced"] = None
        return state

    def summary(self) -> Dict[str, float]:
        return {
            "depth": self.depth,
            "n_gates": self.num_gates,
            "n_1q": self.num_single_qubit_gates,
            "n_2q": self.num_two_qubit_gates,
            "n_swaps_inserted": self.num_swaps,
            "success_rate": self.success_rate(),
        }


def _normalize_layout(initial_layout) -> Hashable:
    """A hashable, order-insensitive representation of a layout spec."""
    if initial_layout is None or isinstance(initial_layout, str):
        return initial_layout
    if isinstance(initial_layout, dict):
        return ("dict",) + tuple(sorted(
            (int(k), int(v)) for k, v in initial_layout.items()
        ))
    return ("seq",) + tuple(int(q) for q in initial_layout)


def circuit_fingerprint(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a concrete circuit (structure and parameters)."""
    return (
        circuit.n_qubits,
        tuple(
            (inst.gate, inst.qubits, inst.params) for inst in circuit.instructions
        ),
    )


def compile_seed(
    device: Device,
    initial_layout: LayoutSpec,
    optimization_level: int,
    n_qubits: int,
    gates: Iterable,
) -> int:
    """The default seed of a compile's SABRE draws, from its structure only.

    ``gates`` are a circuit's instructions or a
    :class:`~repro.quantum.circuit.ParameterizedCircuit`'s ops; both carry
    ``gate`` and ``qubits``, and ``bind`` keeps every gate, so a structure
    and each of its bound rows share one seed.  Angles never enter it: a
    parametric template, its exact fallbacks and the uncached compile of
    any bound row draw the same SABRE layouts.
    """
    return stable_seed((
        device.name,
        int(optimization_level),
        _normalize_layout(initial_layout),
        (int(n_qubits), tuple((gate.gate, gate.qubits) for gate in gates)),
    ))


def compile_key(
    circuit: QuantumCircuit,
    device: Device,
    initial_layout: LayoutSpec,
    optimization_level: int,
    seed: Optional[int] = None,
) -> Tuple:
    """Every input of one :func:`transpile` call as a hashable key, seed last.

    Without a ``seed`` the seed is :func:`compile_seed` of the circuit's
    structure, so the randomized SABRE trials (``optimization_level=3``, or
    a ``"sabre"`` layout) are a pure function of what is compiled, never of
    an unpinned stream.
    """
    if seed is None:
        seed = compile_seed(
            device, initial_layout, optimization_level,
            circuit.n_qubits, circuit.instructions,
        )
    return (
        device.name,
        int(optimization_level),
        _normalize_layout(initial_layout),
        circuit_fingerprint(circuit),
        int(seed),
    )


def _resolve_layout(
    circuit: QuantumCircuit,
    device: Device,
    initial_layout: LayoutSpec,
    rng: np.random.Generator,
) -> Layout:
    if initial_layout is None or initial_layout == "trivial":
        return trivial_layout(circuit.n_qubits, device)
    if isinstance(initial_layout, str):
        if initial_layout == "noise_adaptive":
            return noise_adaptive_layout(circuit, device)
        if initial_layout == "sabre":
            return sabre_layout(circuit, device, rng=rng)
        raise ValueError(f"unknown layout strategy '{initial_layout}'")
    if isinstance(initial_layout, dict):
        return layout_from_dict(initial_layout, device)
    return layout_from_sequence(list(initial_layout), device)


def transpile(
    circuit: QuantumCircuit,
    device: Device,
    initial_layout: LayoutSpec = None,
    optimization_level: int = 2,
    seed: Optional[int] = None,
) -> CompiledCircuit:
    """Compile a logical circuit for a device.

    Parameters
    ----------
    initial_layout:
        ``None``/``"trivial"``, ``"noise_adaptive"``, ``"sabre"``, an explicit
        ``{logical: physical}`` dict, or a sequence of physical qubits (the
        encoding used by the QuantumNAS qubit-mapping gene).
    optimization_level:
        0 — decompose only; 1 — cancel adjacent CX and merge RZ; 2 — also
        re-synthesize single-qubit runs; 3 — additionally try SABRE layouts
        and keep the compilation with the fewest two-qubit gates.
    seed:
        pins the SABRE draws; ``None`` derives it from the circuit's
        structure and the other inputs (:func:`compile_seed`).
    """
    if not 0 <= optimization_level <= 3:
        raise ValueError("optimization_level must be between 0 and 3")
    if seed is None:
        seed = compile_seed(
            device, initial_layout, optimization_level,
            circuit.n_qubits, circuit.instructions,
        )
    rng = ensure_rng(seed)

    def compile_with_layout(layout: Layout) -> CompiledCircuit:
        routed: RoutedCircuit = _traced(
            "route", route_circuit, circuit, device, layout
        )
        lowered = _traced("decompose", decompose_circuit, routed.circuit)
        optimized = trusted_circuit(
            lowered.n_qubits, _optimize(lowered.instructions, optimization_level)
        )
        return CompiledCircuit(
            circuit=optimized,
            device=device,
            initial_layout=dict(layout),
            final_layout=routed.final_layout,
            used_qubits=routed.used_qubits,
            num_swaps=routed.num_swaps,
        )

    base_layout = _resolve_layout(circuit, device, initial_layout, rng)
    compiled = compile_with_layout(base_layout)

    if optimization_level >= 3:
        candidates = [compiled]
        alternative = sabre_layout(circuit, device, n_trials=4, rng=rng)
        candidates.append(compile_with_layout(alternative))
        compiled = min(
            candidates, key=lambda c: (c.num_two_qubit_gates, c.depth)
        )
    return compiled
