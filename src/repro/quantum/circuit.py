"""Quantum circuit intermediate representation.

Two layers of representation are used throughout the repository:

* :class:`QuantumCircuit` — a concrete circuit whose instruction parameters are
  plain floats.  This is what the transpiler, the noisy density-matrix
  simulator and the device backend consume.

* :class:`ParameterizedCircuit` — a circuit template whose parameters may be
  bound to a trainable weight vector (``weight`` slots) or to per-sample input
  features (``input`` slots).  This is the TorchQuantum-style trainable module
  the QML/VQE layers and QuantumNAS operate on.

Where validation lives
----------------------

A circuit is validated once, where it is built from outside input:
``Instruction(...)`` and :class:`ParamOp` canonicalize the gate name and
check arity, distinct qubits and the parameter count, and
:meth:`QuantumCircuit.append` and the ``add_*`` methods of
:class:`ParameterizedCircuit` check that every qubit lies inside the
register.  Everything derived from validated circuits —
:meth:`ParameterizedCircuit.bind`, and the transpiler's routing,
decomposition, optimization passes and reduced circuits — builds its output
through :func:`trusted_instruction` and :func:`trusted_circuit`, which take
canonical names, ``int`` qubit tuples and ``float`` parameter tuples as they
are and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from .gates import GATES, gate_num_params, gate_num_qubits, canonical_name

__all__ = [
    "Instruction",
    "QuantumCircuit",
    "ParamSlot",
    "const",
    "weight",
    "feature",
    "ParamOp",
    "ParameterizedCircuit",
]


def _check_qubits(gate: str, qubits: Tuple[int, ...]) -> None:
    """Arity and distinct qubits of one gate application."""
    expected_qubits = gate_num_qubits(gate)
    if len(qubits) != expected_qubits:
        raise ValueError(
            f"gate '{gate}' acts on {expected_qubits} qubits, got {len(qubits)}"
        )
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in instruction: {qubits}")


def _check_register(item, n_qubits: int) -> None:
    """Every qubit of ``item`` (an instruction or op) inside ``n_qubits`` wires."""
    for qubit in item.qubits:
        if not 0 <= qubit < n_qubits:
            raise ValueError(
                f"{item} addresses qubit {qubit}, outside register of size "
                f"{n_qubits}"
            )


@dataclass(frozen=True)
class Instruction:
    """A concrete gate application: name, target qubits and float parameters."""

    gate: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gate", canonical_name(self.gate))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _check_qubits(self.gate, self.qubits)
        expected_params = gate_num_params(self.gate)
        if len(self.params) != expected_params:
            raise ValueError(
                f"gate '{self.gate}' expects {expected_params} parameters, "
                f"got {len(self.params)}"
            )

    def matrix(self) -> np.ndarray:
        # the parameter count was checked when the instruction was validated
        return np.asarray(GATES[self.gate].matrix_fn(self.params), dtype=complex)

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


def trusted_instruction(
    gate: str, qubits: Tuple[int, ...], params: Tuple[float, ...] = ()
) -> Instruction:
    """An :class:`Instruction` built from already validated parts, unchecked.

    ``gate`` must be a canonical name, ``qubits`` a tuple of ``int`` and
    ``params`` a tuple of ``float`` of the gate's arity — what a validated
    instruction holds.  Skipping ``__post_init__`` (registry lookups, arity
    checks, conversions) is what keeps compiles and binds cheap.
    """
    instruction = object.__new__(Instruction)
    fields = instruction.__dict__
    fields["gate"] = gate
    fields["qubits"] = qubits
    fields["params"] = params
    return instruction


class QuantumCircuit:
    """An ordered list of :class:`Instruction` on ``n_qubits`` wires.

    The constructor and :meth:`append` check that each instruction lies
    inside the register; :func:`trusted_circuit` skips that check.
    """

    def __init__(
        self, n_qubits: int, instructions: Optional[Iterable[Instruction]] = None
    ) -> None:
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = int(n_qubits)
        self.instructions: List[Instruction] = []
        for instruction in instructions or ():
            self.append(instruction)

    # -- construction ------------------------------------------------------

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        _check_register(instruction, self.n_qubits)
        self.instructions.append(instruction)
        return self

    def add(
        self, gate: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "QuantumCircuit":
        return self.append(Instruction(gate, tuple(qubits), tuple(params)))

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        for instruction in instructions:
            self.append(instruction)
        return self

    def copy(self) -> "QuantumCircuit":
        return QuantumCircuit(self.n_qubits, list(self.instructions))

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended after ``self``."""
        if other.n_qubits > self.n_qubits:
            raise ValueError("cannot compose a larger circuit onto a smaller one")
        out = self.copy()
        out.extend(other.instructions)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (only defined for self-describable gates).

        Parameterized rotations invert by negating parameters; fixed gates that
        are their own inverse are reversed in place.  Gates without a simple
        inverse rule raise ``ValueError``.
        """
        self_inverse = {"i", "x", "y", "z", "h", "cx", "cz", "cy", "swap"}
        negate = {
            "rx",
            "ry",
            "rz",
            "u1",
            "rxx",
            "ryy",
            "rzz",
            "rzx",
            "crx",
            "cry",
            "crz",
            "cu1",
        }
        paired = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "sx": "sxdg", "sxdg": "sx"}
        out = QuantumCircuit(self.n_qubits)
        for instruction in reversed(self.instructions):
            if instruction.gate in self_inverse:
                out.append(instruction)
            elif instruction.gate in negate:
                out.add(
                    instruction.gate,
                    instruction.qubits,
                    tuple(-p for p in instruction.params),
                )
            elif instruction.gate in paired:
                out.add(paired[instruction.gate], instruction.qubits)
            elif instruction.gate == "u3":
                theta, phi, lam = instruction.params
                out.add("u3", instruction.qubits, (-theta, -lam, -phi))
            elif instruction.gate == "cu3":
                theta, phi, lam = instruction.params
                out.add("cu3", instruction.qubits, (-theta, -lam, -phi))
            else:
                raise ValueError(f"no inverse rule for gate '{instruction.gate}'")
        return out

    # -- properties --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def count_ops(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for instruction in self.instructions:
            counts[instruction.gate] = counts.get(instruction.gate, 0) + 1
        return counts

    def num_two_qubit_gates(self) -> int:
        return sum(1 for op in self.instructions if op.is_two_qubit)

    def num_single_qubit_gates(self) -> int:
        return sum(1 for op in self.instructions if not op.is_two_qubit)

    def depth(self) -> int:
        """Circuit depth: the longest chain of dependent instructions."""
        frontier = [0] * self.n_qubits
        for instruction in self.instructions:
            level = max(frontier[q] for q in instruction.qubits) + 1
            for qubit in instruction.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the whole circuit (small circuits / tests only)."""
        from .statevector import circuit_unitary

        return circuit_unitary(self)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(n_qubits={self.n_qubits}, "
            f"n_instructions={len(self.instructions)}, depth={self.depth()})"
        )


def trusted_circuit(n_qubits: int, instructions: List) -> QuantumCircuit:
    """A :class:`QuantumCircuit` that takes ``instructions`` as its own list.

    No instruction is register-checked: every one must already lie inside
    ``n_qubits`` wires, as the transpiler's derived circuits do.
    """
    circuit = object.__new__(QuantumCircuit)
    circuit.n_qubits = n_qubits
    circuit.instructions = instructions
    return circuit


# ---------------------------------------------------------------------------
# Parameterized circuits
# ---------------------------------------------------------------------------

_CONST = "const"
_WEIGHT = "weight"
_INPUT = "input"


@dataclass(frozen=True)
class ParamSlot:
    """One parameter slot of a parameterized operation.

    ``kind`` is one of ``"const"`` (fixed float value), ``"weight"`` (index
    into the trainable weight vector) or ``"input"`` (index into the per-sample
    feature vector).
    """

    kind: str
    value: float | int

    def __post_init__(self) -> None:
        if self.kind not in (_CONST, _WEIGHT, _INPUT):
            raise ValueError(f"invalid parameter slot kind '{self.kind}'")


def const(value: float) -> ParamSlot:
    """A fixed parameter value."""
    return ParamSlot(_CONST, float(value))


def weight(index: int) -> ParamSlot:
    """A trainable parameter, stored at ``index`` of the weight vector."""
    return ParamSlot(_WEIGHT, int(index))


def feature(index: int) -> ParamSlot:
    """A data-dependent parameter taken from input feature ``index``."""
    return ParamSlot(_INPUT, int(index))


@dataclass(frozen=True)
class ParamOp:
    """A gate whose parameters are resolved at bind time."""

    gate: str
    qubits: Tuple[int, ...]
    slots: Tuple[ParamSlot, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gate", canonical_name(self.gate))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        _check_qubits(self.gate, self.qubits)
        expected = gate_num_params(self.gate)
        if len(self.slots) != expected:
            raise ValueError(
                f"gate '{self.gate}' expects {expected} parameter slots, "
                f"got {len(self.slots)}"
            )

    @property
    def weight_indices(self) -> Tuple[int, ...]:
        return tuple(int(s.value) for s in self.slots if s.kind == _WEIGHT)

    @property
    def uses_input(self) -> bool:
        return any(s.kind == _INPUT for s in self.slots)

    @property
    def is_trainable(self) -> bool:
        return any(s.kind == _WEIGHT for s in self.slots)


class ParameterizedCircuit:
    """A trainable circuit template (TorchQuantum-style quantum module).

    The template owns a weight vector of size :attr:`num_weights`; operations
    reference weights and/or per-sample input features via :class:`ParamSlot`.
    """

    def __init__(self, n_qubits: int) -> None:
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = int(n_qubits)
        self.ops: List[ParamOp] = []
        self._num_weights = 0

    # -- construction ------------------------------------------------------

    def add_fixed(self, gate: str, qubits: Sequence[int], params: Sequence[float] = ()):
        slots = tuple(const(p) for p in params)
        return self.add_op(ParamOp(gate, tuple(qubits), slots))

    def add_trainable(
        self,
        gate: str,
        qubits: Sequence[int],
        fixed_mask: Optional[Sequence[bool]] = None,
    ) -> Tuple[int, ...]:
        """Append a gate whose parameters are fresh trainable weights.

        ``fixed_mask`` marks parameter positions that should be constant zero
        (used by pruning to drop individual angles of a U3 gate).  Returns the
        indices of the newly created weights.
        """
        n_params = gate_num_params(gate)
        if fixed_mask is None:
            fixed_mask = [False] * n_params
        if len(fixed_mask) != n_params:
            raise ValueError("fixed_mask length must match the gate's parameter count")
        slots: List[ParamSlot] = []
        created: List[int] = []
        for is_fixed in fixed_mask:
            if is_fixed:
                slots.append(const(0.0))
            else:
                created.append(self._num_weights + len(created))
                slots.append(weight(created[-1]))
        # add_op grows the weight vector only once the op is accepted
        self.add_op(ParamOp(gate, tuple(qubits), tuple(slots)))
        return tuple(created)

    def add_encoder(
        self, gate: str, qubits: Sequence[int], feature_indices: Sequence[int]
    ) -> "ParameterizedCircuit":
        """Append a data-encoding gate fed by input features."""
        n_params = gate_num_params(gate)
        if len(feature_indices) != n_params:
            raise ValueError("feature_indices length must match the gate's parameters")
        slots = tuple(feature(i) for i in feature_indices)
        return self.add_op(ParamOp(gate, tuple(qubits), slots))

    def add_op(self, op: ParamOp) -> "ParameterizedCircuit":
        """Append ``op``: the one path every ``add_*`` method takes, and the
        register check :meth:`bind` relies on."""
        _check_register(op, self.n_qubits)
        for index in op.weight_indices:
            self._num_weights = max(self._num_weights, index + 1)
        self.ops.append(op)
        return self

    # -- inspection --------------------------------------------------------

    @property
    def num_weights(self) -> int:
        return self._num_weights

    def ensure_num_weights(self, n_weights: int) -> "ParameterizedCircuit":
        """Grow the declared weight-vector size (never shrinks).

        Used when a circuit references a *shared* parameter space (e.g. a
        SubCircuit reading SuperCircuit parameters) that is larger than the set
        of weights it actually touches.
        """
        self._num_weights = max(self._num_weights, int(n_weights))
        return self

    @property
    def trainable_ops(self) -> List[ParamOp]:
        return [op for op in self.ops if op.is_trainable]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def init_weights(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Random initial weights uniform in ``[-pi, pi)`` (paper's convention)."""
        rng = ensure_rng(rng)
        return rng.uniform(-np.pi, np.pi, size=self.num_weights)

    # -- binding -----------------------------------------------------------

    def resolve_params(
        self,
        op: ParamOp,
        weights: np.ndarray,
        features: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Resolve one op's parameters.

        Returns an array of shape ``(n_params,)`` for sample-independent ops,
        or ``(batch, n_params)`` when the op reads input features and
        ``features`` has shape ``(batch, n_features)``.
        """
        if op.uses_input:
            if features is None:
                raise ValueError("operation reads input features but none were given")
            batch = features.shape[0]
            out = np.zeros((batch, len(op.slots)))
            for position, slot in enumerate(op.slots):
                if slot.kind == _CONST:
                    out[:, position] = slot.value
                elif slot.kind == _WEIGHT:
                    out[:, position] = weights[int(slot.value)]
                else:
                    out[:, position] = features[:, int(slot.value)]
            return out
        values = np.zeros(len(op.slots))
        for position, slot in enumerate(op.slots):
            if slot.kind == _CONST:
                values[position] = slot.value
            elif slot.kind == _WEIGHT:
                values[position] = weights[int(slot.value)]
            else:  # pragma: no cover - guarded by op.uses_input above
                raise AssertionError
        return values

    def bind(
        self, weights: np.ndarray, features_row: Optional[np.ndarray] = None
    ) -> QuantumCircuit:
        """Produce a concrete :class:`QuantumCircuit` for one sample."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.num_weights,):
            raise ValueError(
                f"expected weight vector of shape ({self.num_weights},), "
                f"got {weights.shape}"
            )
        instructions: List[Instruction] = []
        for op in self.ops:
            params: List[float] = []
            for slot in op.slots:
                if slot.kind == _CONST:
                    params.append(float(slot.value))
                elif slot.kind == _WEIGHT:
                    params.append(float(weights[int(slot.value)]))
                else:
                    if features_row is None:
                        raise ValueError(
                            "circuit contains encoder gates; provide features_row"
                        )
                    params.append(float(features_row[int(slot.value)]))
            # ParamOp and add_op validated the gate and its qubits
            instructions.append(
                trusted_instruction(op.gate, op.qubits, tuple(params))
            )
        return trusted_circuit(self.n_qubits, instructions)

    def weight_to_ops(self) -> Dict[int, List[int]]:
        """Map weight index -> indices of ops that read it."""
        mapping: Dict[int, List[int]] = {}
        for op_index, op in enumerate(self.ops):
            for widx in op.weight_indices:
                mapping.setdefault(widx, []).append(op_index)
        return mapping

    def __repr__(self) -> str:
        return (
            f"ParameterizedCircuit(n_qubits={self.n_qubits}, n_ops={len(self.ops)}, "
            f"num_weights={self.num_weights})"
        )
