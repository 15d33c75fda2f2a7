"""Transpiler: layout, routing, basis decomposition and optimization passes.

Two compilation pipelines share one set of passes:

**Concrete pipeline** (:func:`transpile`).  A bound :class:`~repro.quantum.
circuit.QuantumCircuit` (float angles) flows through layout resolution
(:mod:`.layout`: trivial / noise-adaptive / SABRE / explicit mappings), SWAP
routing onto the device coupling map (:mod:`.routing`), lowering to the
CX/SX/RZ/X basis (:mod:`.decompose`) and the optimization passes
(:mod:`.passes`: CX-pair cancellation, RZ merging, identity-rotation dropping,
single-qubit-run re-synthesis), producing a :class:`CompiledCircuit`.  The
result is a pure function of (circuit, device, layout, level, seed); the
execution layer memoizes it by bound-circuit fingerprint.

**Parametric pipeline** (:func:`parametric_transpile`, :mod:`.parametric`).
The same code runs once over a :class:`~repro.quantum.circuit.
ParameterizedCircuit` whose rotation angles are symbolic expressions.  Layout
and routing read only gate names and qubits.  The decomposition rules and the
optimization passes exist once each; they take, as keyword-only hooks that
default to the concrete pipeline, how an emitted gate is built, how a
zero-angle branch is decided, how an emitted angle is wrapped and how a
single-qubit run is flushed.  The parametric transpiler passes symbolic
hooks: the rules' angle arithmetic is affine and runs on the expressions
unchanged, each branch decision is taken for a witness binding and recorded
as a guard, and the non-affine steps (matrix U3 extraction, run
re-synthesis) become replay nodes that re-run the concrete decomposition per
binding.  The compiled :class:`ParametricCompiledCircuit` then turns every
parameter binding into an O(params) template fill that reproduces the
concrete pipeline's output exactly (angles up to global-phase ``2*pi``
wraps), or refuses with :class:`ParametricBindMismatch` when a binding
crosses a traced branch so callers can fall back to a concrete compile.
This is what lets the population execution engine transpile once per
(genome, mapping) structure and re-bind per validation sample.
"""

from .compiler import CompiledCircuit, transpile
from .decompose import (
    BASIS_GATES,
    compiled_gate_count_u3,
    decompose_circuit,
    decompose_instruction,
    decompose_u3,
    u3_angles_from_matrix,
)
from .layout import (
    Layout,
    layout_fidelity_score,
    layout_from_sequence,
    noise_adaptive_layout,
    random_layout,
    sabre_layout,
    trivial_layout,
)
from .parametric import (
    ParametricBindMismatch,
    ParametricCompiledCircuit,
    num_feature_params,
    parametric_fingerprint,
    parametric_transpile,
)
from .passes import (
    cancel_adjacent_inverse_cx,
    cancel_adjacent_inverse_cx_run,
    drop_identity_rotations,
    merge_adjacent_rz,
    resynthesize_single_qubit_runs,
)
from .routing import RoutedCircuit, route_circuit

__all__ = [
    "CompiledCircuit",
    "transpile",
    "BASIS_GATES",
    "compiled_gate_count_u3",
    "decompose_circuit",
    "decompose_instruction",
    "decompose_u3",
    "u3_angles_from_matrix",
    "Layout",
    "layout_fidelity_score",
    "layout_from_sequence",
    "noise_adaptive_layout",
    "random_layout",
    "sabre_layout",
    "trivial_layout",
    "ParametricBindMismatch",
    "ParametricCompiledCircuit",
    "num_feature_params",
    "parametric_fingerprint",
    "parametric_transpile",
    "cancel_adjacent_inverse_cx",
    "cancel_adjacent_inverse_cx_run",
    "drop_identity_rotations",
    "merge_adjacent_rz",
    "resynthesize_single_qubit_runs",
    "RoutedCircuit",
    "route_circuit",
]
