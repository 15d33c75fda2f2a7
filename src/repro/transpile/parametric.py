"""Parametric transpilation: compile a circuit *structure* once, bind angles cheaply.

The concrete transpiler (:func:`repro.transpile.compiler.transpile`) is a pure
function of the bound instruction stream — every validation sample of a
candidate re-runs layout, routing, decomposition and the optimization passes
even though only its rotation angles changed.  This module compiles a
:class:`~repro.quantum.circuit.ParameterizedCircuit` *symbolically*: rotation
angles flow through the pipeline as expressions over the logical parameter
vector (trainable weights followed by encoder features), and the result is a
:class:`ParametricCompiledCircuit` whose :meth:`~ParametricCompiledCircuit.bind`
fills a fixed instruction template in ``O(#parametric angles)`` instead of
re-running the pipeline.

The symbolic compile runs the concrete pipeline's own code — the layout and
routing passes, the decomposition rules of :mod:`.decompose` and the pass
sequence of :mod:`.passes` — over symbolic instructions, through the hooks
those rules and passes take.  This module holds only what is symbolic: the
angle expressions, the trace state that turns branch decisions into guards
and non-affine steps into replay nodes, and the template with its binds.

Exactness contract
------------------

``bind(values)`` must reproduce ``transpile(circuit.bind(values), ...)``
*instruction for instruction* (angles may differ by multiples of ``2*pi``,
i.e. a global phase — every downstream consumer, including the success-rate
model which charges RZ gates like any other single-qubit gate, sees identical
numbers).  Three mechanisms make this exact rather than approximate:

* **Affine tracking.**  Routing and the CX-cancellation pass never read
  parameter values; the decomposition rules and RZ merging are *affine* in
  the angles (sums, halves, constant shifts), and :class:`_Affine` supports
  exactly that arithmetic, so physical RZ angles are recorded as affine
  combinations of logical parameters.  Parametric angles skip the concrete
  pipeline's wrap into ``(-pi, pi]``, hence the ``2*pi`` multiples.

* **Witness-traced branches.**  Value-dependent decisions (dropping an
  identity rotation, the zero-angle special cases of the U3 decomposition,
  which of two SABRE layouts wins at optimization level 3) are taken for a
  *witness* binding and recorded as guards ``is_zero(expr) == verdict``.
  At optimization level >= 2 a decision that *keeps* an angle of an outer
  single-qubit gate (no multi-qubit gate before it on its qubit, or none
  after it) records no guard: re-synthesis absorbs the gate into a replay
  node, which decides a zeroed angle (an encoder's blank pixel) itself, and
  no CX pair can cancel across the gate.  Every other decision is guarded.

* **Replay nodes.**  Steps that are genuinely non-affine — extracting U3
  angles from a gate matrix, re-synthesizing a run of single-qubit gates into
  one U3 — are recorded as *replay nodes* that run the concrete
  decomposition of :mod:`.decompose` on the bound angles at bind time and
  verify that the emitted gate sequence still matches the compiled template.
  A level-2 mnist-4 template carries about 20 run nodes of 1-15 gates each,
  about 50 guards on their emitted angles and about 11 emission guards.

If a binding would take any branch differently (a guard fails or a replay
node emits a different structure), :meth:`bind` raises
:class:`ParametricBindMismatch` and the caller falls back to a full concrete
transpile — cheap for the rare binding that lands exactly on a branch point,
and always exact.

:meth:`~ParametricCompiledCircuit.bind` replays one row in python scalars,
and stays the reference.  :meth:`~ParametricCompiledCircuit.bind_batch`
binds many rows at once: one matmul for every affine angle, then the same
expressions and guards evaluated once over a binding context whose every
value is an array over the rows.  The replay nodes' 2x2 products form one
complex stack over nodes and rows, the array forms of the decomposition's
helpers extract its U3 angles, and :func:`~.decompose.decompose_u3` re-emits
each node's angles along the branches its witness took.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.library import Device
from ..quantum.circuit import (
    Instruction,
    ParameterizedCircuit,
    QuantumCircuit,
    trusted_circuit,
    trusted_instruction,
)
from ..quantum.gates import gate_matrix
from ..utils.rng import ensure_rng
from .compiler import CompiledCircuit, LayoutSpec, _resolve_layout, compile_seed
from .decompose import (
    _decompose_single_qubit,
    _gate_entries,
    _gate_entries_batch,
    _is_zero_angle,
    _is_zero_angles,
    _normalize_angles,
    _u3_angles,
    _u3_angles_batch,
    decompose_instruction,
    decompose_u3,
)
from .layout import sabre_layout
from .passes import _flush_run, _optimize, _traced
from .routing import route_circuit

__all__ = [
    "ParametricBindMismatch",
    "ParametricCompiledCircuit",
    "TemplateBatchBinding",
    "parametric_transpile",
    "parametric_fingerprint",
    "num_feature_params",
]


class ParametricBindMismatch(Exception):
    """A binding would take a different compile-time branch than the witness.

    Raised by :meth:`ParametricCompiledCircuit.bind`; callers fall back to a
    full concrete transpile of the bound circuit, which is always exact.
    """


# ---------------------------------------------------------------------------
# Angle expressions
# ---------------------------------------------------------------------------


class _BindContext:
    """Parameter values plus replay-node outputs for one binding.

    The expressions only index, add and scale what the context holds, so a
    context whose ``values[i]`` and ``affine[j]`` are arrays over rows (the
    transposed matrices of :meth:`ParametricCompiledCircuit.bind_batch`)
    evaluates every expression for all the rows at once.
    """

    __slots__ = ("values", "node_outputs", "affine")

    def __init__(self, values: np.ndarray, affine: Optional[np.ndarray] = None) -> None:
        self.values = values
        self.node_outputs: Dict[int, Tuple[float, ...]] = {}
        #: pre-evaluated affine expressions (the matvec of :meth:`bind`)
        self.affine = affine


class _Expr:
    """An angle expression; a sum that is not affine becomes a flat :class:`_Sum`."""

    __slots__ = ()

    is_const = False

    def __add__(self, other) -> "_Expr":
        if not isinstance(other, _Expr):
            other = _Affine(other)
        parts: List = []
        for expr in (self, other):
            parts.extend(expr.parts if isinstance(expr, _Sum) else (expr,))
        return _Sum(tuple(parts))


class _Affine(_Expr):
    """``const + sum(coeff * param[index])`` over the logical parameter vector.

    Supports the angle arithmetic of the decomposition rules: ``+`` with
    expressions and floats, ``-``, ``* float`` and ``/ float``.  Scaling by a
    power of two is exact, so ``-x / 2`` is bit for bit a scale by ``-0.5``.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: float, terms: Tuple[Tuple[int, float], ...] = ()) -> None:
        self.const = float(const)
        self.terms = terms

    @classmethod
    def parameter(cls, index: int) -> "_Affine":
        return cls(0.0, ((int(index), 1.0),))

    @property
    def is_const(self) -> bool:
        return not self.terms

    def evaluate(self, ctx: _BindContext) -> float:
        total = self.const
        for index, coeff in self.terms:
            total += coeff * ctx.values[index]
        return total

    def __add__(self, other) -> _Expr:
        if isinstance(other, _Affine):
            combined: Dict[int, float] = {}
            for index, coeff in self.terms + other.terms:
                combined[index] = combined.get(index, 0.0) + coeff
            terms = tuple(
                (i, c) for i, c in sorted(combined.items()) if c != 0.0
            )
            return _Affine(self.const + other.const, terms)
        if isinstance(other, _Expr):
            return super().__add__(other)
        return _Affine(self.const + other, self.terms)

    def __neg__(self) -> "_Affine":
        return self * -1.0

    def __sub__(self, other) -> _Expr:
        return self + (-other)

    def __mul__(self, factor: float) -> "_Affine":
        return _Affine(
            self.const * factor, tuple((i, c * factor) for i, c in self.terms)
        )

    def __truediv__(self, divisor: float) -> "_Affine":
        return _Affine(
            self.const / divisor, tuple((i, c / divisor) for i, c in self.terms)
        )


class _NodeAngle(_Expr):
    """One emitted angle of a replay node (flat index into its parameters)."""

    __slots__ = ("node", "index")

    def __init__(self, node: "_ReplayNode", index: int) -> None:
        self.node = node
        self.index = index

    def evaluate(self, ctx: _BindContext) -> float:
        return ctx.node_outputs[id(self.node)][self.index]


class _RowExpr(_Expr):
    """An affine expression resolved through the template's matvec plan.

    When a binding context carries pre-evaluated affine rows (:meth:`bind`'s
    matvec), evaluation is a single array indexing; otherwise (the
    compile-time witness context) it defers to the original expression.
    """

    __slots__ = ("row", "expr")

    def __init__(self, row: int, expr) -> None:
        self.row = row
        self.expr = expr

    def evaluate(self, ctx: _BindContext) -> float:
        if ctx.affine is not None:
            return ctx.affine[self.row]
        return self.expr.evaluate(ctx)


class _Sum(_Expr):
    """A flat sum of expressions (produced by RZ merging across kinds)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple) -> None:
        self.parts = parts

    def evaluate(self, ctx: _BindContext) -> float:
        return sum(part.evaluate(ctx) for part in self.parts)


def _unwrapped(angle: _Expr) -> _Expr:
    """The symbolic ``norm`` hook: parametric angles are emitted unwrapped."""
    return angle


# ---------------------------------------------------------------------------
# Symbolic IR
# ---------------------------------------------------------------------------


class _SymbolicInstruction:
    """An instruction whose parameters are angle expressions.

    Like :func:`~repro.quantum.circuit.trusted_instruction` it takes its
    parts as they are: a canonical gate name, a tuple of ``int`` qubits and
    a tuple of expressions, all derived from the validated input circuit.

    ``sources`` tracks provenance for the run re-synthesis of optimization
    level 2: the original (pre-decomposition) single-qubit gates whose
    unitaries this instruction carries.  Decomposition emits pieces whose
    source is the piece itself; RZ merging concatenates the sources of both
    operands.  A run's product over its deduplicated sources equals the
    concrete pipeline's product over the decomposed pieces up to a global
    phase, which the U3 extraction is invariant to — and unlike the pieces,
    the sources do not reorder when a rotation angle changes sign.
    """

    __slots__ = ("gate", "qubits", "params", "sources")

    def __init__(
        self,
        gate: str,
        qubits: Sequence[int],
        params: Tuple = (),
        sources: Optional[Tuple] = None,
    ) -> None:
        self.gate = gate
        self.qubits = qubits
        self.params = params
        self.sources = (self,) if sources is None else sources

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2

    def is_const(self) -> bool:
        return all(p.is_const for p in self.params)

    def const_params(self) -> Tuple[float, ...]:
        return tuple(p.const for p in self.params)

    def matrix(self) -> np.ndarray:
        """The gate matrix of a constant instruction (the concrete flush reads it)."""
        return gate_matrix(self.gate, self.const_params())


def _symbolic(gate: str, qubits, params: Tuple = ()) -> _SymbolicInstruction:
    """The ``make`` hook of the two-qubit rules: float angles become constants."""
    angles = tuple(p if isinstance(p, _Expr) else _Affine(p) for p in params)
    return _SymbolicInstruction(gate, qubits, angles)


def _wrap_concrete(instructions: Sequence[Instruction]) -> List[_SymbolicInstruction]:
    """Re-wrap concrete instructions as symbolic ones with constant angles."""
    return [
        _SymbolicInstruction(
            inst.gate, inst.qubits, tuple(_Affine(p) for p in inst.params)
        )
        for inst in instructions
    ]


def _to_concrete(inst: _SymbolicInstruction) -> Instruction:
    return trusted_instruction(inst.gate, inst.qubits, inst.const_params())


def _fuse_sources(
    first: _SymbolicInstruction, second: _SymbolicInstruction, angle: _Expr
) -> _SymbolicInstruction:
    """The symbolic ``fuse`` hook of RZ merging: the merged RZ keeps both sources."""
    return _SymbolicInstruction(
        "rz", second.qubits, (angle,), sources=first.sources + second.sources
    )


def _emit_tuple(gate: str, qubits: Tuple[int, ...], params: Tuple) -> Tuple:
    """The bind-time ``make`` hook: ``(gate, qubits, params)``, no Instruction."""
    return (gate, qubits, params)


# ---------------------------------------------------------------------------
# Replay nodes and trace state
# ---------------------------------------------------------------------------


class _ReplayNode:
    """A value-dependent compile step re-executed concretely at bind time.

    ``kind == "single"`` replays the concrete single-qubit decomposition for
    one parametric RX/RY/U1/U2 gate: U3 angles extracted from the gate
    matrix, which is not affine in the angle.  ``kind == "run"`` replays
    the single-qubit-run re-synthesis of optimization level 2: multiply the
    run's 2x2 matrices, extract U3 angles.  Both re-emit through
    ``decompose_u3``, whose zero-angle verdicts at the witness the node
    records as ``verdicts``.
    """

    __slots__ = ("kind", "qubit", "inputs", "signature", "verdicts", "plan")

    def __init__(
        self,
        kind: str,
        qubit: int,
        inputs: Sequence[Tuple[str, Tuple[int, ...], Tuple]],
    ) -> None:
        self.kind = kind
        self.qubit = qubit
        self.inputs = tuple(inputs)
        self.signature: Tuple = ()
        self.verdicts: Tuple[bool, ...] = ()
        #: bind-time evaluation plan (built by the template finalizer):
        #: constant inputs become precomputed scalar matrices, parametric
        #: inputs stay as (gate, exprs) pairs
        self.plan: Optional[List] = None

    def prepare(self) -> None:
        if self.kind != "run":
            return
        plan: List = []
        for gate, _qubits, exprs in self.inputs:
            if all(isinstance(e, _Affine) and e.is_const for e in exprs):
                plan.append(_gate_entries(gate, tuple(e.const for e in exprs)))
            else:
                plan.append((gate, exprs))
        self.plan = plan

    def sources(self) -> List:
        """The factors of the node's 2x2 unitary, first applied first: four
        constant entries or a ``(gate, exprs)`` pair each."""
        if self.kind == "single":
            gate, _qubits, exprs = self.inputs[0]
            return [(gate, exprs)]
        if self.plan is None:
            return [(gate, exprs) for gate, _qubits, exprs in self.inputs]
        return self.plan

    def emit(self, ctx: _BindContext, is_zero=_is_zero_angle) -> List[Tuple]:
        """Emitted ``(gate, qubits, params)`` tuples for one binding."""
        if self.kind == "single":
            # _decompose_single_qubit's U3 branch: the gate is not rz/u3
            gate, exprs = self.sources()[0]
            params = tuple(expr.evaluate(ctx) for expr in exprs)
            m00, m01, m10, m11 = _gate_entries(gate, params)
        else:
            # run: multiply the sources' 2x2 matrices (last gate leftmost),
            # then re-emit through the U3 extraction — the concrete run
            # flush in python scalars, equal up to a global phase
            m00, m01, m10, m11 = (1 + 0j, 0j, 0j, 1 + 0j)
            for entry in self.sources():
                if len(entry) == 4:
                    g00, g01, g10, g11 = entry
                else:
                    gate, exprs = entry
                    params = tuple(expr.evaluate(ctx) for expr in exprs)
                    g00, g01, g10, g11 = _gate_entries(gate, params)
                m00, m01, m10, m11 = (
                    g00 * m00 + g01 * m10,
                    g00 * m01 + g01 * m11,
                    g10 * m00 + g11 * m10,
                    g10 * m01 + g11 * m11,
                )
        theta, phi, lam = _u3_angles(m00, m01, m10, m11)
        return decompose_u3(
            self.qubit, theta, phi, lam, make=_emit_tuple, is_zero=is_zero
        )

    def replay(self, ctx: _BindContext) -> None:
        emitted = self.emit(ctx)
        signature = tuple((gate, qubits) for gate, qubits, _params in emitted)
        if signature != self.signature:
            raise ParametricBindMismatch(
                f"replay node ({self.kind}, qubit {self.qubit}) emitted "
                f"{signature}, template recorded {self.signature}"
            )
        ctx.node_outputs[id(self)] = tuple(
            param for _gate, _qubits, params in emitted for param in params
        )


def _replay_rows(
    nodes: Sequence[_ReplayNode], ctx: _BindContext, checked: List
) -> None:
    """:meth:`_ReplayNode.replay` for every node and every row of an array
    context at once.

    :func:`_u3_angles_batch` extracts the U3 angles of every node's product
    (:func:`_unitaries`), and ``decompose_u3`` re-emits them once per branch
    path the nodes took at their witness: its ``is_zero`` hook answers the
    path's recorded verdicts in turn and notes each row of each angle it is
    asked about in ``checked``, next to its verdict.  Each branch path emits
    its own gate sequence, so a row emits a node's recorded signature
    exactly when every noted angle of it takes its verdict; the caller
    refuses the other rows, as :meth:`~_ReplayNode.replay` would.
    """
    matrix = _unitaries(nodes, ctx)
    theta, phi, lam = _u3_angles_batch(
        matrix[:, 0, 0], matrix[:, 0, 1], matrix[:, 1, 0], matrix[:, 1, 1]
    )
    paths: Dict[Tuple[bool, ...], List[int]] = {}
    for k, node in enumerate(nodes):
        paths.setdefault(node.verdicts, []).append(k)
    for verdicts, members in paths.items():
        answers = iter(verdicts)

        def is_zero(angle: np.ndarray) -> bool:
            verdict = next(answers)
            checked.extend((row, verdict) for row in angle)
            return verdict

        # the emitted angles are wrapped together afterwards; wrapping is
        # idempotent, so the verdicts on them do not move
        emitted = decompose_u3(
            0, theta[members], phi[members], lam[members],
            make=_emit_tuple, is_zero=is_zero, norm=_unwrapped,
        )
        params = [param for _gate, _qubits, params in emitted for param in params]
        outputs = _normalize_angles(np.array(params)) if params else ()
        for position, k in enumerate(members):
            ctx.node_outputs[id(nodes[k])] = tuple(
                output[position] for output in outputs
            )


def _unitaries(nodes: Sequence[_ReplayNode], ctx: _BindContext) -> np.ndarray:
    """Every node's 2x2 unitary over an array context, ``(nodes, 2, 2, rows)``.

    The product loop of :meth:`_ReplayNode.emit` for all nodes at once: the
    sources' entries are evaluated gate by gate, and each step multiplies
    every product by its next source, from the identity, the shorter
    products padded with identities in front.
    """
    sources = [node.sources() for node in nodes]
    depth = max(len(plan) for plan in sources)
    #: ``order[k][d]``: the source node ``k`` applies at step ``d``
    order: List[List[int]] = []
    const_at: List[int] = [0]
    const: List[Tuple] = [(1 + 0j, 0j, 0j, 1 + 0j)]  # source 0: the identity
    by_gate: Dict[str, Tuple[List[int], List[Tuple]]] = {}
    position = 1
    for plan in sources:
        order.append(
            [0] * (depth - len(plan)) + list(range(position, position + len(plan)))
        )
        for entry in plan:
            if len(entry) == 4:
                const_at.append(position)
                const.append(entry)
            else:
                gate, exprs = entry
                at, members = by_gate.setdefault(gate, ([], []))
                at.append(position)
                members.append(exprs)
            position += 1
    n_rows = ctx.affine.shape[1]
    entries = np.empty((position, 2, 2, n_rows), dtype=complex)
    entries[const_at] = np.reshape(const, (-1, 2, 2, 1))
    for gate, (at, members) in by_gate.items():
        params = np.empty((len(members[0]), len(at), n_rows))
        for member, exprs in enumerate(members):
            for i, expr in enumerate(exprs):
                params[i, member] = expr.evaluate(ctx)
        for (i, j), value in zip(
            ((0, 0), (0, 1), (1, 0), (1, 1)), _gate_entries_batch(gate, params)
        ):
            entries[at, i, j] = value
    matrix = entries[np.zeros(len(nodes), dtype=np.intp)]
    for step in np.array(order, dtype=np.intp).T:
        factor = entries[step]
        matrix = (
            factor[:, :, :1] * matrix[:, None, 0]
            + factor[:, :, 1:] * matrix[:, None, 1]
        )
    return matrix


class _Guard:
    """A recorded branch decision: ``is_zero(expr)`` must equal ``zero``."""

    __slots__ = ("expr", "zero")

    def __init__(self, expr, zero: bool) -> None:
        self.expr = expr
        self.zero = zero

    def check(self, ctx: _BindContext) -> None:
        if _is_zero_angle(self.expr.evaluate(ctx)) != self.zero:
            raise ParametricBindMismatch(
                "angle crossed a zero-branch point recorded at compile time"
            )


class _EmissionGuard:
    """Presence guard for a single-qubit gate deferred at optimization >= 2.

    Deferred gates stay undecomposed until run re-synthesis absorbs them, so
    only the *emptiness* of their concrete decomposition is structurally
    load-bearing (it decides whether the gate blocks a CX cancellation).
    Emptiness — unlike the emitted gate order — does not flip when the angle
    changes sign, which is what keeps templates stable across samples.  An
    outer gate blocks no cancellation, so it records this guard only when
    its witness emission is empty (see :class:`_TraceState`).
    """

    __slots__ = ("gate", "qubits", "params", "empty")

    #: an empty emission of these gates requires the (single) angle to be a
    #: multiple of 2*pi — a distance safely above the decomposition tolerances
    #: proves the emission is non-empty without re-running the decomposition
    _PERIODIC_1P = frozenset(("rx", "ry", "rz", "u1"))

    def __init__(self, gate: str, qubits, params, empty: bool) -> None:
        self.gate = gate
        self.qubits = qubits
        self.params = params
        self.empty = empty

    def check(self, ctx: _BindContext) -> None:
        if not self.empty and self.gate in self._PERIODIC_1P:
            angle = self.params[0].evaluate(ctx)
            wrapped = abs(math.fmod(angle, 2.0 * math.pi))
            if 1e-6 < min(wrapped, 2.0 * math.pi - wrapped):
                return
        emitted = _decompose_single_qubit(
            self.gate,
            self.qubits[0],
            tuple(expr.evaluate(ctx) for expr in self.params),
            _emit_tuple,
        )
        if (len(emitted) == 0) != self.empty:
            raise ParametricBindMismatch(
                "deferred gate crossed the identity-emission branch"
            )

    def holds(self, ctx: _BindContext) -> np.ndarray:
        """:meth:`check` for every row of an array context: whether each
        row's emission is empty exactly when the witness's was."""
        params = tuple(expr.evaluate(ctx) for expr in self.params)
        if not self.empty and self.gate in self._PERIODIC_1P:
            wrapped = np.abs(np.fmod(params[0], 2.0 * math.pi))
            far = 1e-6 < np.minimum(wrapped, 2.0 * math.pi - wrapped)
            if far.all():
                return far
        # the gate is not rz/u3, so _decompose_single_qubit takes its U3
        # branch, and decompose_u3 emits nothing exactly on its first one
        theta, phi, lam = _u3_angles_batch(*_gate_entries_batch(self.gate, params))
        empty = _is_zero_angles(theta) & _is_zero_angles(_normalize_angles(phi + lam))
        return empty == self.empty


def _outer_exprs(instructions: Sequence[_SymbolicInstruction]) -> frozenset:
    """Ids of the parameter expressions of a routed circuit's *outer* gates.

    A single-qubit gate is outer when no multi-qubit gate on its qubit comes
    before it, or none comes after it: no CX pair can cancel across it.
    """
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for position, inst in enumerate(instructions):
        if len(inst.qubits) > 1:
            for qubit in inst.qubits:
                first.setdefault(qubit, position)
                last[qubit] = position
    outer: set = set()
    for position, inst in enumerate(instructions):
        if len(inst.qubits) == 1:
            qubit = inst.qubits[0]
            if not first.get(qubit, position) < position < last.get(qubit, position):
                outer.update(id(expr) for expr in inst.params)
    return frozenset(outer)


class _TraceState:
    """Witness context plus the guards/nodes accumulated for one layout.

    Its methods are the hooks the shared decomposition rules and passes run
    with: :meth:`is_zero` records a guard, :meth:`decompose` and
    :meth:`decompose_single` lower symbolic instructions (through the
    concrete rules) and :meth:`flush` re-emits a single-qubit run.

    At optimization >= 2 a decision that *keeps* an angle of an outer gate
    (its expression id is in ``outer``, see :func:`_outer_exprs`) records no
    guard.  The gate sits in a run that re-synthesis replaces with a replay
    node, so an angle that binds to zero (or ``2*pi*k``) only multiplies the
    identity, up to a global phase, into that node's product: the node
    re-emits what the concrete flush of the shorter run emits, or refuses the
    row.  And no CX pair can cancel across an outer gate, so keeping it in
    the stream until re-synthesis changes no cancellation.  Decisions that
    drop an angle (the template lost it), decisions on derived expressions (a
    merged RZ sum, ``phi + pi``), decisions on gates between two multi-qubit
    gates on their qubit, and every decision below level 2 keep their guards.
    """

    def __init__(
        self,
        witness: np.ndarray,
        defer_single: bool = False,
        outer: frozenset = frozenset(),
    ) -> None:
        self.ctx = _BindContext(witness)
        self.guards: List = []
        self.nodes: List[_ReplayNode] = []
        #: at optimization >= 2 non-affine 1q gates are deferred (see
        #: :class:`_EmissionGuard`) instead of replayed piece-for-piece
        self.defer_single = defer_single
        #: ids of the outer gates' parameter expressions (empty below level 2)
        self.outer = outer

    def is_zero(self, expr) -> bool:
        verdict = _is_zero_angle(expr.evaluate(self.ctx))
        if not expr.is_const and (verdict or id(expr) not in self.outer):
            self.guards.append(_Guard(expr, verdict))
        return verdict

    def decompose_circuit(self, circuit: QuantumCircuit) -> List:
        """Lower every instruction of a routed circuit."""
        return [
            piece for inst in circuit.instructions for piece in self.decompose(inst)
        ]

    def decompose(self, inst: _SymbolicInstruction) -> List[_SymbolicInstruction]:
        """Lower one instruction; a constant one takes the concrete rules."""
        if inst.is_const():
            return _wrap_concrete(decompose_instruction(_to_concrete(inst)))
        return decompose_instruction(
            inst, make=_symbolic, single=self.decompose_single,
            is_zero=self.is_zero,
        )

    def decompose_single(
        self, inst: _SymbolicInstruction
    ) -> List[_SymbolicInstruction]:
        """Lower one single-qubit instruction, a rule's pieces included."""
        if inst.is_const():
            return _wrap_concrete(
                _decompose_single_qubit(inst.gate, inst.qubits[0], inst.const_params())
            )
        if inst.gate == "rz":
            return [] if self.is_zero(inst.params[0]) else [inst]
        if inst.gate == "u3":
            return decompose_u3(
                inst.qubits[0], *inst.params,
                make=_SymbolicInstruction, is_zero=self.is_zero, norm=_unwrapped,
            )
        # RX/RY/U1/U2/...: the concrete pipeline extracts U3 angles from the
        # gate matrix, which is not affine in the angle.  At optimization >= 2
        # the gate is deferred whole (run re-synthesis will absorb it into a
        # product over sources); below that, its decomposition is replayed at
        # bind time.
        if self.defer_single:
            return self.defer(inst)
        return self.replay_single(inst)

    def flush(
        self, qubit: int, run: Sequence[_SymbolicInstruction]
    ) -> List[_SymbolicInstruction]:
        """Re-emit a single-qubit run; a constant one takes the concrete flush."""
        if all(inst.is_const() for inst in run):
            return _wrap_concrete(_flush_run(qubit, run))
        # parametric run: replay the product over the run's *sources* (the
        # original pre-decomposition gates, deduplicated in stream order).
        # The product equals the concrete piece product up to a global
        # phase, and its branch structure is stable under sign flips of
        # individual rotation angles — unlike the pieces themselves.
        sources: List[_SymbolicInstruction] = []
        seen: set = set()
        for inst in run:
            for source in inst.sources:
                if id(source) not in seen:
                    seen.add(id(source))
                    sources.append(source)
        return self.replay_run(qubit, sources)

    def defer(self, inst: "_SymbolicInstruction") -> List["_SymbolicInstruction"]:
        emitted = _decompose_single_qubit(
            inst.gate,
            inst.qubits[0],
            tuple(expr.evaluate(self.ctx) for expr in inst.params),
            _emit_tuple,
        )
        if not emitted or id(inst.params[0]) not in self.outer:
            self.guards.append(
                _EmissionGuard(inst.gate, inst.qubits, inst.params, not emitted)
            )
        return [] if not emitted else [inst]

    def _register(self, node: _ReplayNode) -> List[_SymbolicInstruction]:
        verdicts: List[bool] = []

        def is_zero(angle: float) -> bool:
            verdicts.append(_is_zero_angle(angle))
            return verdicts[-1]

        emitted = node.emit(self.ctx, is_zero)
        node.verdicts = tuple(verdicts)
        node.signature = tuple((gate, qubits) for gate, qubits, _params in emitted)
        self.ctx.node_outputs[id(node)] = tuple(
            param for _gate, _qubits, params in emitted for param in params
        )
        self.nodes.append(node)
        out: List[_SymbolicInstruction] = []
        flat = 0
        for gate, qubits, params in emitted:
            exprs = tuple(
                _NodeAngle(node, flat + position)
                for position in range(len(params))
            )
            flat += len(params)
            out.append(_SymbolicInstruction(gate, qubits, exprs))
        return out

    def replay_single(self, inst: _SymbolicInstruction) -> List[_SymbolicInstruction]:
        node = _ReplayNode(
            "single", inst.qubits[0], [(inst.gate, inst.qubits, inst.params)]
        )
        return self._register(node)

    def replay_run(
        self, qubit: int, run: Sequence[_SymbolicInstruction]
    ) -> List[_SymbolicInstruction]:
        node = _ReplayNode(
            "run", qubit, [(i.gate, i.qubits, i.params) for i in run]
        )
        return self._register(node)


# ---------------------------------------------------------------------------
# The compiled template
# ---------------------------------------------------------------------------


class _LayoutCandidate:
    """One fully traced compilation for one initial layout."""

    __slots__ = ("circuit", "trace", "routed")

    def __init__(self, circuit: QuantumCircuit, trace, routed) -> None:
        self.circuit = circuit
        self.trace = trace
        self.routed = routed

    def sort_key(self) -> Tuple[int, int]:
        """The key :func:`transpile` picks its level-3 layout by."""
        return (self.circuit.num_two_qubit_gates(), self.circuit.depth())


class ParametricCompiledCircuit:
    """A compiled circuit structure awaiting parameter values.

    Produced by :func:`parametric_transpile`; :meth:`bind` yields a
    :class:`CompiledCircuit` identical (up to ``2*pi`` angle wraps) to a fresh
    concrete transpile of the bound circuit, or raises
    :class:`ParametricBindMismatch` when the binding crosses a branch point
    recorded at compile time.
    """

    def __init__(
        self,
        device: Device,
        initial_layout: Dict[int, int],
        final_layout: Dict[int, int],
        used_qubits: Tuple[int, ...],
        num_swaps: int,
        optimization_level: int,
        n_weights: int,
        n_features: int,
        chosen: _LayoutCandidate,
        auxiliary: Optional[_LayoutCandidate] = None,
    ) -> None:
        self.device = device
        self.initial_layout = dict(initial_layout)
        self.final_layout = dict(final_layout)
        self.used_qubits = tuple(used_qubits)
        self.num_swaps = int(num_swaps)
        self.optimization_level = int(optimization_level)
        self.n_weights = int(n_weights)
        self.n_features = int(n_features)
        self._nodes = tuple(chosen.trace.nodes)
        # at optimization level 3 the losing layout's branches must stay
        # stable too, or a different binding could flip the layout choice
        self._aux_nodes = tuple(auxiliary.trace.nodes) if auxiliary else ()

        # -- vectorized affine evaluation plan -------------------------------
        # Every affine expression referenced by a slot, guard or replay-node
        # input becomes one row of a dense (rows x params) matrix; a bind is
        # then one matvec plus scalar work for the few non-affine expressions.
        affine_exprs: List[_Affine] = []
        affine_index: Dict[int, int] = {}

        def row_of(expr: _Affine) -> int:
            position = affine_index.get(id(expr))
            if position is None:
                position = len(affine_exprs)
                affine_index[id(expr)] = position
                affine_exprs.append(expr)
            return position

        def plan_param(expr):
            if isinstance(expr, _Affine):
                return row_of(expr)
            return expr  # _NodeAngle / _Sum, evaluated per binding

        guard_rows: List[int] = []
        guard_expected: List[bool] = []
        self._other_guards: List = []
        for guard in tuple(chosen.trace.guards) + (
            tuple(auxiliary.trace.guards) if auxiliary else ()
        ):
            if isinstance(guard, _Guard) and isinstance(guard.expr, _Affine):
                guard_rows.append(row_of(guard.expr))
                guard_expected.append(guard.zero)
            else:
                self._other_guards.append(guard)

        def wrap_node_expr(expr):
            if isinstance(expr, _Affine) and not expr.is_const:
                return _RowExpr(row_of(expr), expr)
            return expr

        for node in self._nodes + self._aux_nodes:
            node.inputs = tuple(
                (gate, qubits, tuple(wrap_node_expr(expr) for expr in exprs))
                for gate, qubits, exprs in node.inputs
            )
            node.prepare()

        self._slots: List = []
        self._reduced_slots: List = []
        index = {phys: i for i, phys in enumerate(self.used_qubits)}
        for inst in chosen.circuit.instructions:
            reduced_qubits = tuple(index[q] for q in inst.qubits)
            if inst.is_const():
                params = inst.const_params()
                self._slots.append(trusted_instruction(inst.gate, inst.qubits, params))
                self._reduced_slots.append(
                    trusted_instruction(inst.gate, reduced_qubits, params)
                )
            else:
                plan = tuple(plan_param(expr) for expr in inst.params)
                self._slots.append((inst.gate, inst.qubits, plan))
                self._reduced_slots.append((inst.gate, reduced_qubits, plan))

        width = self.n_weights + self.n_features
        self._width = width
        if affine_exprs:
            matrix = np.zeros((len(affine_exprs), width))
            const = np.empty(len(affine_exprs))
            for position, expr in enumerate(affine_exprs):
                const[position] = expr.const
                for param_index, coeff in expr.terms:
                    matrix[position, param_index] += coeff
            self._affine_matrix: Optional[np.ndarray] = matrix
            self._affine_const: Optional[np.ndarray] = const
        else:
            self._affine_matrix = None
            self._affine_const = None
        self._guard_rows = np.asarray(guard_rows, dtype=np.intp)
        self._guard_expected = np.asarray(guard_expected, dtype=bool)

    # -- inspection ----------------------------------------------------------

    @property
    def num_instructions(self) -> int:
        return len(self._slots)

    @property
    def num_parametric_slots(self) -> int:
        return sum(1 for slot in self._slots if not isinstance(slot, Instruction))

    @property
    def num_guards(self) -> int:
        return int(self._guard_rows.size) + len(self._other_guards)

    @property
    def num_replay_nodes(self) -> int:
        return len(self._nodes) + len(self._aux_nodes)

    def expected_params(self) -> int:
        """Minimum length of the ``values`` vector accepted by :meth:`bind`."""
        return self.n_weights + self.n_features

    # -- binding -------------------------------------------------------------

    def bind(self, values: np.ndarray) -> CompiledCircuit:
        """Fill the template with parameter values (weights then features)."""
        values = np.asarray(values, dtype=float).ravel()
        if values.shape[0] < self._width:
            raise ValueError(
                f"expected at least {self._width} parameter values "
                f"(got {values.shape[0]})"
            )
        if self._affine_matrix is not None:
            affine = self._affine_matrix @ values[: self._width]
            affine += self._affine_const
        else:
            affine = None
        ctx = _BindContext(values, affine)
        for node in self._nodes:
            node.replay(ctx)
        for node in self._aux_nodes:
            node.replay(ctx)
        if self._guard_rows.size:
            verdicts = _is_zero_angles(affine[self._guard_rows])
            if not np.array_equal(verdicts, self._guard_expected):
                raise ParametricBindMismatch(
                    "angle crossed a zero-branch point recorded at compile time"
                )
        for guard in self._other_guards:
            guard.check(ctx)

        instructions: List[Instruction] = []
        reduced_instructions: List[Instruction] = []
        append = instructions.append
        reduced_append = reduced_instructions.append
        for slot, reduced_slot in zip(self._slots, self._reduced_slots):
            if type(slot) is Instruction:
                append(slot)
                reduced_append(reduced_slot)
            else:
                gate, qubits, plan = slot
                params = tuple(
                    affine[item] if type(item) is int else item.evaluate(ctx)
                    for item in plan
                )
                append(trusted_instruction(gate, qubits, params))
                reduced_append(trusted_instruction(gate, reduced_slot[1], params))

        compiled = CompiledCircuit(
            circuit=trusted_circuit(self.device.n_qubits, instructions),
            device=self.device,
            initial_layout=dict(self.initial_layout),
            final_layout=dict(self.final_layout),
            used_qubits=self.used_qubits,
            num_swaps=self.num_swaps,
        )
        compiled._reduced = (
            trusted_circuit(max(len(self.used_qubits), 1), reduced_instructions),
            self.used_qubits,
        )
        return compiled

    def try_bind(self, values: np.ndarray) -> Optional[CompiledCircuit]:
        """Like :meth:`bind`, but returns ``None`` on a branch mismatch."""
        try:
            return self.bind(values)
        except ParametricBindMismatch:
            return None

    # -- vectorized binding ---------------------------------------------------

    def bind_batch(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, Optional["TemplateBatchBinding"]]:
        """Bind many parameter rows at once, without per-row circuit objects.

        ``values`` is a ``(n_rows, >= expected_params())`` matrix.  Every
        affine angle of every row comes from *one* matmul against the
        template's affine plan (where :meth:`bind` runs one matvec per row);
        the replay nodes (:func:`_replay_rows`), the guards and the slot
        angles are then evaluated once, over arrays of all rows.

        Returns ``(ok, binding)``: ``ok[i]`` is whether row ``i`` takes the
        template's compile-time branches, and ``binding`` covers exactly the
        ``ok`` rows (``None`` when no row binds).  Rows with ``ok[i] False``
        must be served by a full concrete transpile — the same fallback
        contract as :meth:`bind`, which refuses the same rows.

        A row's angles agree with :meth:`bind`'s to rounding: BLAS may round
        a matmul and a matvec differently in the last ulp, and numpy's
        complex products and ``arctan2`` may round differently from python's
        scalars, so an angle on the ``pi`` wrap point may also come out
        ``2*pi`` apart (a global phase).
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("bind_batch expects a 2-D (rows, params) matrix")
        if values.shape[1] < self._width:
            raise ValueError(
                f"expected at least {self._width} parameter values per row "
                f"(got {values.shape[1]})"
            )
        n_rows = values.shape[0]
        if self._affine_matrix is not None:
            affine = values[:, : self._width] @ self._affine_matrix.T
            affine += self._affine_const
        else:
            affine = np.empty((n_rows, 0))
        ok = np.ones(n_rows, dtype=bool)
        if self._guard_rows.size:
            verdicts = _is_zero_angles(affine[:, self._guard_rows])
            ok &= (verdicts == self._guard_expected).all(axis=1)

        # every value this context holds is an array over the rows, and so
        # is every expression, node output and guard angle evaluated on it
        ctx = _BindContext(values.T, affine.T)
        #: (angle over rows, the verdict every kept row must give it)
        checked: List[Tuple] = []
        nodes = self._nodes + self._aux_nodes
        if nodes:
            _replay_rows(nodes, ctx, checked)
        for guard in self._other_guards:
            if isinstance(guard, _EmissionGuard):
                ok &= guard.holds(ctx)
            else:
                checked.append((guard.expr.evaluate(ctx), guard.zero))
        if checked:
            angles = np.empty((len(checked), n_rows))
            for position, (angle, _verdict) in enumerate(checked):
                angles[position] = angle
            expected = np.array([verdict for _angle, verdict in checked])
            ok &= (_is_zero_angles(angles) == expected[:, None]).all(axis=0)

        kept = np.flatnonzero(ok)
        if kept.size == 0:
            return ok, None
        # every slot angle is one row of ``angles``; the slots get views
        items = [
            item
            for slot in self._reduced_slots
            if type(slot) is not Instruction
            for item in slot[2]
        ]
        angles = np.empty((len(items), n_rows))
        for position, item in enumerate(items):
            angles[position] = (
                affine[:, item] if type(item) is int else item.evaluate(ctx)
            )
        angles = angles.T[kept]
        slots: List = []
        start = 0
        for slot in self._reduced_slots:
            if type(slot) is Instruction:
                slots.append(slot)
                continue
            gate, qubits, plan = slot
            slots.append((gate, qubits, angles[:, start : start + len(plan)]))
            start += len(plan)
        return ok, TemplateBatchBinding(self, kept, slots)


class TemplateBatchBinding:
    """One template vectorized over many parameter rows.

    Produced by :meth:`ParametricCompiledCircuit.bind_batch`.  Instead of one
    :class:`CompiledCircuit` (and its per-sample ``Instruction`` stream) per
    row, the binding holds the shared reduced-register instruction skeleton
    once, with each parametric slot's angles as a dense ``(n_rows, k)`` array
    — the form the batched density-matrix backend consumes directly, so the
    ``noise_sim`` hot loop never constructs per-sample instructions at all.

    ``slots`` aligns with the template's reduced instruction stream: a slot is
    either a shared :class:`Instruction` (constant across rows) or a
    ``(gate, reduced_qubits, angles)`` triple.  ``rows`` maps batch positions
    back to row indices of the matrix handed to ``bind_batch``.
    """

    __slots__ = ("template", "rows", "slots")

    def __init__(
        self,
        template: ParametricCompiledCircuit,
        rows: np.ndarray,
        slots: List,
    ) -> None:
        self.template = template
        self.rows = rows
        self.slots = slots

    @property
    def n_rows(self) -> int:
        return int(len(self.rows))

    @property
    def n_reduced(self) -> int:
        return max(len(self.template.used_qubits), 1)

    @property
    def used_qubits(self) -> Tuple[int, ...]:
        return self.template.used_qubits

    @property
    def final_layout(self) -> Dict[int, int]:
        return self.template.final_layout


# ---------------------------------------------------------------------------
# Fingerprints and entry points
# ---------------------------------------------------------------------------


def parametric_fingerprint(circuit: ParameterizedCircuit) -> Tuple:
    """Hashable fingerprint of a circuit *structure* (values left unbound)."""
    return (
        circuit.n_qubits,
        circuit.num_weights,
        tuple(
            (
                op.gate,
                op.qubits,
                tuple((slot.kind, slot.value) for slot in op.slots),
            )
            for op in circuit.ops
        ),
    )


def num_feature_params(circuit: ParameterizedCircuit) -> int:
    """Size of the feature block of the parameter vector (0 if no encoder)."""
    highest = -1
    for op in circuit.ops:
        for slot in op.slots:
            if slot.kind == "input":
                highest = max(highest, int(slot.value))
    return highest + 1


def _symbolic_logical_circuit(circuit: ParameterizedCircuit) -> QuantumCircuit:
    """The logical circuit with parameter slots lifted to affine expressions.

    The parameter vector is the concatenation of the trainable weight vector
    and the per-sample feature vector, in that order.  Symbolic circuits are
    :class:`QuantumCircuit` objects over :class:`_SymbolicInstruction`, so the
    layout passes, which read only gate names and qubits, take them as they
    are.
    """
    n_weights = circuit.num_weights
    instructions: List[_SymbolicInstruction] = []
    for op in circuit.ops:
        exprs: List[_Affine] = []
        for slot in op.slots:
            if slot.kind == "const":
                exprs.append(_Affine(slot.value))
            elif slot.kind == "weight":
                exprs.append(_Affine.parameter(int(slot.value)))
            else:  # input feature
                exprs.append(_Affine.parameter(n_weights + int(slot.value)))
        instructions.append(_SymbolicInstruction(op.gate, op.qubits, tuple(exprs)))
    return trusted_circuit(circuit.n_qubits, instructions)


def _default_witness(n_params: int, seed: Optional[int]) -> np.ndarray:
    """Generic (nowhere-zero, irrational-looking) witness angles."""
    rng = np.random.default_rng(0x5EED if seed is None else seed)
    return rng.uniform(0.3, 2.8, size=max(n_params, 1))


def parametric_transpile(
    circuit: ParameterizedCircuit,
    device: Device,
    initial_layout: LayoutSpec = None,
    optimization_level: int = 2,
    seed: Optional[int] = None,
    witness_values: Optional[np.ndarray] = None,
) -> ParametricCompiledCircuit:
    """Compile a circuit structure once; re-bind angles in O(params).

    Runs the stages of :func:`repro.transpile.compiler.transpile` — the same
    layout resolution, routing, decomposition rules and pass sequence, and,
    given the same ``seed``, the same SABRE draws at level 3 — over symbolic
    angles.  ``witness_values`` selects the compile-time
    branches; bindings that take the same branches (the overwhelmingly common
    case for generic angles) bind exactly, the rest raise
    :class:`ParametricBindMismatch` from :meth:`ParametricCompiledCircuit.bind`.
    Without a ``seed`` the SABRE draws are seeded by :func:`compile_seed` of
    the structure, as :func:`transpile` seeds those of each bound row.
    """
    if not 0 <= optimization_level <= 3:
        raise ValueError("optimization_level must be between 0 and 3")
    n_weights = circuit.num_weights
    n_features = num_feature_params(circuit)
    if witness_values is None:
        witness = _default_witness(n_weights + n_features, seed)
    else:
        witness = np.asarray(witness_values, dtype=float).ravel()
        if witness.shape[0] < n_weights + n_features:
            raise ValueError(
                f"witness needs at least {n_weights + n_features} values"
            )
    if seed is None:
        seed = compile_seed(
            device, initial_layout, optimization_level,
            circuit.n_qubits, circuit.ops,
        )
    rng = ensure_rng(seed)
    symbolic = _symbolic_logical_circuit(circuit)

    def compile_with_layout(layout) -> _LayoutCandidate:
        routed = _traced(
            "route", route_circuit, symbolic, device, layout,
            make=_SymbolicInstruction,
        )
        resynthesize = optimization_level >= 2
        trace = _TraceState(
            witness,
            defer_single=resynthesize,
            outer=_outer_exprs(routed.circuit.instructions)
            if resynthesize else frozenset(),
        )
        lowered = _traced("decompose", trace.decompose_circuit, routed.circuit)
        optimized = _optimize(
            lowered, optimization_level,
            is_zero=trace.is_zero, fuse=_fuse_sources, flush=trace.flush,
        )
        return _LayoutCandidate(
            trusted_circuit(device.n_qubits, optimized), trace, routed
        )

    base_layout = _resolve_layout(symbolic, device, initial_layout, rng)
    chosen = compile_with_layout(base_layout)
    auxiliary: Optional[_LayoutCandidate] = None

    if optimization_level >= 3:
        alternative_layout = sabre_layout(symbolic, device, n_trials=4, rng=rng)
        alternative = compile_with_layout(alternative_layout)
        # ``min`` keeps the first candidate on ties, exactly like transpile()
        if alternative.sort_key() < chosen.sort_key():
            chosen, auxiliary = alternative, chosen
        else:
            auxiliary = alternative

    return ParametricCompiledCircuit(
        device=device,
        initial_layout=dict(chosen.routed.initial_layout),
        final_layout=dict(chosen.routed.final_layout),
        used_qubits=chosen.routed.used_qubits,
        num_swaps=chosen.routed.num_swaps,
        optimization_level=optimization_level,
        n_weights=n_weights,
        n_features=n_features,
        chosen=chosen,
        auxiliary=auxiliary,
    )
