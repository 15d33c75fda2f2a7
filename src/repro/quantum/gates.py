"""Gate library: unitary matrices and analytic parameter derivatives.

Every gate used by the six QuantumNAS design spaces (Section IV of the paper)
is defined here, along with the derivative of its matrix with respect to each
of its parameters.  The derivatives feed the adjoint-mode differentiation in
:mod:`repro.quantum.autodiff` (the "backprop" training mode of TorchQuantum).

Each gate has two constructor pairs, kept side by side:

* **Scalar** — :func:`gate_matrix` / :func:`gate_gradients` build one
  matrix from one parameter tuple.  Their callers apply one instruction at
  a time: ``Instruction.matrix()`` in the transpiler, static-mode gate
  fusion (:mod:`repro.quantum.fusion`) and the concrete density simulator,
  thousands of calls per pipeline.
* **Batched** — :func:`batched_gate_matrix` / :func:`batched_gate_gradients`
  build ``(batch, d, d)`` stacks from a ``(batch, n_params)`` array with
  numpy elementwise arithmetic, for every caller that holds per-sample
  parameters: encoder gates in the batched statevector and adjoint sweeps,
  and per-row angles in the density backend.  Fixed gates broadcast their
  frozen matrix.

Each batched formula repeats its scalar sibling's arithmetic operation for
operation, so a batched row equals the scalar matrix bit for bit wherever
numpy's ``cos``/``sin``/``exp`` agree with ``math``/``cmath`` (they do on
x86-64 with numpy 2.4; the tests allow 1e-15).  The scalar pair stays
because a batch-of-one view of the table costs 3-5x more per call (scalar
-> batch of one, best of 9 x 20k calls on a shared 2-core x86-64 host with
numpy 2.4: ry 4.1 -> 12.8 us, u3 4.0 -> 18.8 us, cu3 6.8 -> 26.1 us).
Callers pick a side by the rank of the parameter array they already hold;
nothing configures the choice.

Conventions
-----------
* Qubit 0 is the most-significant wire of a multi-qubit gate matrix, matching
  the ordering used by :mod:`repro.quantum.statevector`.
* Rotation gates follow the standard convention ``R_P(theta) =
  exp(-i * theta / 2 * P)``.
* Controlled gates place the control on the first qubit of the instruction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GateSpec",
    "GATES",
    "gate_matrix",
    "gate_gradients",
    "batched_gate_matrix",
    "batched_gate_gradients",
    "gate_num_params",
    "gate_num_qubits",
    "is_parameterized",
    "controlled",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

# ---------------------------------------------------------------------------
# Elementary matrices
# ---------------------------------------------------------------------------

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = np.diag([1, -1j]).astype(complex)
_T = np.diag([1, cmath.exp(1j * math.pi / 4)]).astype(complex)
_TDG = np.diag([1, cmath.exp(-1j * math.pi / 4)]).astype(complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = _SX.conj().T


def _matrix_sqrt(unitary: np.ndarray) -> np.ndarray:
    """Principal square root of a unitary matrix via eigendecomposition."""
    eigvals, eigvecs = np.linalg.eig(unitary)
    return eigvecs @ np.diag(np.sqrt(eigvals.astype(complex))) @ np.linalg.inv(eigvecs)


_SH = _matrix_sqrt(_H)  # the sqrt(H) layer used by the RXYZ design space

_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CY = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_SQSWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0.5 + 0.5j, 0.5 - 0.5j, 0],
        [0, 0.5 - 0.5j, 0.5 + 0.5j, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def controlled(unitary: np.ndarray) -> np.ndarray:
    """Return the controlled version of a single/multi-qubit unitary.

    The control is prepended as the most-significant qubit.
    """
    dim = unitary.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = unitary
    return out


# ---------------------------------------------------------------------------
# Parameterized gate constructors
#
# Each gate has four: the scalar matrix and per-parameter derivatives over a
# parameter tuple, and their batched siblings over a ``(batch, n_params)``
# array, returning ``(batch, d, d)`` stacks.
# ---------------------------------------------------------------------------


def _rot_pair(pauli: np.ndarray) -> Tuple[Callable, ...]:
    """Scalar and batched constructors for ``exp(-i theta/2 * P)``."""
    eye = np.eye(pauli.shape[0], dtype=complex)

    def matrix(params: Sequence[float]) -> np.ndarray:
        theta = params[0]
        return math.cos(theta / 2) * eye - 1j * math.sin(theta / 2) * pauli

    def grads(params: Sequence[float]) -> Tuple[np.ndarray, ...]:
        theta = params[0]
        return (
            -0.5 * math.sin(theta / 2) * eye - 0.5j * math.cos(theta / 2) * pauli,
        )

    def batch_matrix(params: np.ndarray) -> np.ndarray:
        half = params[:, 0, None, None] / 2
        return np.cos(half) * eye - 1j * np.sin(half) * pauli

    def batch_grads(params: np.ndarray) -> Tuple[np.ndarray, ...]:
        half = params[:, 0, None, None] / 2
        return (-0.5 * np.sin(half) * eye - 0.5j * np.cos(half) * pauli,)

    return matrix, grads, batch_matrix, batch_grads


_RX = _rot_pair(PAULI_X)
_RY = _rot_pair(PAULI_Y)
_RZ = _rot_pair(PAULI_Z)
_RXX = _rot_pair(np.kron(PAULI_X, PAULI_X))
_RYY = _rot_pair(np.kron(PAULI_Y, PAULI_Y))
_RZZ = _rot_pair(np.kron(PAULI_Z, PAULI_Z))
_RZX = _rot_pair(np.kron(PAULI_Z, PAULI_X))


def _stack_2x2(batch: int, m00, m01, m10, m11) -> np.ndarray:
    """``(batch, 2, 2)`` complex stack from four entries (arrays or scalars)."""
    out = np.empty((batch, 2, 2), dtype=complex)
    out[:, 0, 0] = m00
    out[:, 0, 1] = m01
    out[:, 1, 0] = m10
    out[:, 1, 1] = m11
    return out


def _u1_matrix(params: Sequence[float]) -> np.ndarray:
    lam = params[0]
    return np.diag([1.0, cmath.exp(1j * lam)]).astype(complex)


def _u1_grads(params: Sequence[float]) -> Tuple[np.ndarray, ...]:
    lam = params[0]
    return (np.diag([0.0, 1j * cmath.exp(1j * lam)]).astype(complex),)


def _u1_batch_matrix(params: np.ndarray) -> np.ndarray:
    return _stack_2x2(len(params), 1.0, 0.0, 0.0, np.exp(1j * params[:, 0]))


def _u1_batch_grads(params: np.ndarray) -> Tuple[np.ndarray, ...]:
    e_lam = np.exp(1j * params[:, 0])
    return (_stack_2x2(len(params), 0.0, 0.0, 0.0, 1j * e_lam),)


def _u2_matrix(params: Sequence[float]) -> np.ndarray:
    phi, lam = params
    inv_sqrt2 = 1.0 / math.sqrt(2)
    return inv_sqrt2 * np.array(
        [
            [1.0, -cmath.exp(1j * lam)],
            [cmath.exp(1j * phi), cmath.exp(1j * (phi + lam))],
        ],
        dtype=complex,
    )


def _u2_grads(params: Sequence[float]) -> Tuple[np.ndarray, ...]:
    phi, lam = params
    inv_sqrt2 = 1.0 / math.sqrt(2)
    d_phi = inv_sqrt2 * np.array(
        [
            [0.0, 0.0],
            [1j * cmath.exp(1j * phi), 1j * cmath.exp(1j * (phi + lam))],
        ],
        dtype=complex,
    )
    d_lam = inv_sqrt2 * np.array(
        [
            [0.0, -1j * cmath.exp(1j * lam)],
            [0.0, 1j * cmath.exp(1j * (phi + lam))],
        ],
        dtype=complex,
    )
    return (d_phi, d_lam)


def _u2_batch_matrix(params: np.ndarray) -> np.ndarray:
    phi, lam = params[:, 0], params[:, 1]
    inv_sqrt2 = 1.0 / math.sqrt(2)
    return inv_sqrt2 * _stack_2x2(
        len(params),
        1.0,
        -np.exp(1j * lam),
        np.exp(1j * phi),
        np.exp(1j * (phi + lam)),
    )


def _u2_batch_grads(params: np.ndarray) -> Tuple[np.ndarray, ...]:
    phi, lam = params[:, 0], params[:, 1]
    batch = len(params)
    inv_sqrt2 = 1.0 / math.sqrt(2)
    e_pl = np.exp(1j * (phi + lam))
    d_phi = inv_sqrt2 * _stack_2x2(
        batch, 0.0, 0.0, 1j * np.exp(1j * phi), 1j * e_pl
    )
    d_lam = inv_sqrt2 * _stack_2x2(
        batch, 0.0, -1j * np.exp(1j * lam), 0.0, 1j * e_pl
    )
    return (d_phi, d_lam)


def _u3_matrix(params: Sequence[float]) -> np.ndarray:
    theta, phi, lam = params
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def _u3_grads(params: Sequence[float]) -> Tuple[np.ndarray, ...]:
    theta, phi, lam = params
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    e_lam = cmath.exp(1j * lam)
    e_phi = cmath.exp(1j * phi)
    e_pl = cmath.exp(1j * (phi + lam))
    d_theta = 0.5 * np.array(
        [[-sin, -e_lam * cos], [e_phi * cos, -e_pl * sin]], dtype=complex
    )
    d_phi = np.array(
        [[0.0, 0.0], [1j * e_phi * sin, 1j * e_pl * cos]], dtype=complex
    )
    d_lam = np.array(
        [[0.0, -1j * e_lam * sin], [0.0, 1j * e_pl * cos]], dtype=complex
    )
    return (d_theta, d_phi, d_lam)


def _u3_batch_matrix(params: np.ndarray) -> np.ndarray:
    theta, phi, lam = params[:, 0], params[:, 1], params[:, 2]
    cos = np.cos(theta / 2)
    sin = np.sin(theta / 2)
    return _stack_2x2(
        len(params),
        cos,
        -np.exp(1j * lam) * sin,
        np.exp(1j * phi) * sin,
        np.exp(1j * (phi + lam)) * cos,
    )


def _u3_batch_grads(params: np.ndarray) -> Tuple[np.ndarray, ...]:
    theta, phi, lam = params[:, 0], params[:, 1], params[:, 2]
    batch = len(params)
    cos = np.cos(theta / 2)
    sin = np.sin(theta / 2)
    e_lam = np.exp(1j * lam)
    e_phi = np.exp(1j * phi)
    e_pl = np.exp(1j * (phi + lam))
    d_theta = 0.5 * _stack_2x2(
        batch, -sin, -e_lam * cos, e_phi * cos, -e_pl * sin
    )
    d_phi = _stack_2x2(batch, 0.0, 0.0, 1j * e_phi * sin, 1j * e_pl * cos)
    d_lam = _stack_2x2(batch, 0.0, -1j * e_lam * sin, 0.0, 1j * e_pl * cos)
    return (d_theta, d_phi, d_lam)


_U1 = (_u1_matrix, _u1_grads, _u1_batch_matrix, _u1_batch_grads)
_U2 = (_u2_matrix, _u2_grads, _u2_batch_matrix, _u2_batch_grads)
_U3 = (_u3_matrix, _u3_grads, _u3_batch_matrix, _u3_batch_grads)


def _controlled_param(base: Tuple[Callable, ...]) -> Tuple[Callable, ...]:
    """Lift a parameterized single-qubit gate's constructors to its
    controlled version."""
    matrix_fn, grads_fn, batch_matrix_fn, batch_grads_fn = base

    def matrix(params: Sequence[float]) -> np.ndarray:
        return controlled(matrix_fn(params))

    def grads(params: Sequence[float]) -> Tuple[np.ndarray, ...]:
        outs = []
        for grad in grads_fn(params):
            block = np.zeros((2 * grad.shape[0], 2 * grad.shape[0]), dtype=complex)
            block[grad.shape[0]:, grad.shape[0]:] = grad
            outs.append(block)
        return tuple(outs)

    def lift(blocks: np.ndarray, identity: bool) -> np.ndarray:
        """Each block in the controlled corner, the identity (matrices) or
        zeros (derivatives) in the uncontrolled one."""
        batch, dim = blocks.shape[0], blocks.shape[-1]
        out = np.zeros((batch, 2 * dim, 2 * dim), dtype=complex)
        if identity:
            out[:, :dim, :dim] = np.eye(dim)
        out[:, dim:, dim:] = blocks
        return out

    def batch_matrix(params: np.ndarray) -> np.ndarray:
        return lift(batch_matrix_fn(params), identity=True)

    def batch_grads(params: np.ndarray) -> Tuple[np.ndarray, ...]:
        return tuple(lift(grad, identity=False) for grad in batch_grads_fn(params))

    return matrix, grads, batch_matrix, batch_grads


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    ``matrix_fn``/``grads_fn`` take one parameter tuple; ``batch_matrix_fn``
    and ``batch_grads_fn`` take a ``(batch, num_params)`` array and return
    ``(batch, d, d)`` stacks (fixed gates have no derivative constructors).
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[[Sequence[float]], np.ndarray]
    batch_matrix_fn: Callable[[np.ndarray], np.ndarray]
    grads_fn: Optional[Callable[[Sequence[float]], Tuple[np.ndarray, ...]]] = None
    batch_grads_fn: Optional[Callable[[np.ndarray], Tuple[np.ndarray, ...]]] = None

    @property
    def is_parameterized(self) -> bool:
        return self.num_params > 0


def _fixed(name: str, num_qubits: int, matrix: np.ndarray) -> GateSpec:
    frozen = matrix.copy()
    frozen.setflags(write=False)
    return GateSpec(
        name,
        num_qubits,
        0,
        lambda _params, _m=frozen: _m,
        lambda params, _m=frozen: np.broadcast_to(_m, (len(params),) + _m.shape),
    )


GATES: Dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    GATES[spec.name] = spec


for _name, _nq, _mat in [
    ("i", 1, PAULI_I),
    ("x", 1, PAULI_X),
    ("y", 1, PAULI_Y),
    ("z", 1, PAULI_Z),
    ("h", 1, _H),
    ("sh", 1, _SH),
    ("s", 1, _S),
    ("sdg", 1, _SDG),
    ("t", 1, _T),
    ("tdg", 1, _TDG),
    ("sx", 1, _SX),
    ("sxdg", 1, _SXDG),
    ("cx", 2, _CX),
    ("cz", 2, _CZ),
    ("cy", 2, _CY),
    ("swap", 2, _SWAP),
    ("sqswap", 2, _SQSWAP),
    ("iswap", 2, _ISWAP),
]:
    _register(_fixed(_name, _nq, _mat))

for _name, _nq, _np_, (_mfn, _gfn, _bmfn, _bgfn) in [
    ("rx", 1, 1, _RX),
    ("ry", 1, 1, _RY),
    ("rz", 1, 1, _RZ),
    ("u1", 1, 1, _U1),
    ("u2", 1, 2, _U2),
    ("u3", 1, 3, _U3),
    ("rxx", 2, 1, _RXX),
    ("ryy", 2, 1, _RYY),
    ("rzz", 2, 1, _RZZ),
    ("rzx", 2, 1, _RZX),
    ("cu1", 2, 1, _controlled_param(_U1)),
    ("cu3", 2, 3, _controlled_param(_U3)),
    ("crx", 2, 1, _controlled_param(_RX)),
    ("cry", 2, 1, _controlled_param(_RY)),
    ("crz", 2, 1, _controlled_param(_RZ)),
]:
    _register(GateSpec(_name, _nq, _np_, _mfn, _bmfn, _gfn, _bgfn))

# Aliases used by the paper's design-space descriptions.
_ALIASES = {
    "cnot": "cx",
    "zz": "rzz",
    "zx": "rzx",
    "xx": "rxx",
    "p": "u1",
    "phase": "u1",
    "cp": "cu1",
}


def canonical_name(name: str) -> str:
    """Resolve gate aliases (e.g. ``cnot`` -> ``cx``) to the registry name."""
    lowered = name.lower()
    return _ALIASES.get(lowered, lowered)


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for ``name`` (aliases allowed).

    Registry names (what ``Instruction``/``ParamOp`` store) hit directly;
    only a miss pays for alias resolution.
    """
    spec = GATES.get(name)
    if spec is None:
        spec = GATES.get(canonical_name(name))
        if spec is None:
            raise KeyError(f"unknown gate '{name}'")
    return spec


def _checked_spec(name: str, n_params: int) -> GateSpec:
    """The spec of ``name``, after checking it takes ``n_params`` parameters."""
    spec = gate_spec(name)
    if n_params != spec.num_params:
        raise ValueError(
            f"gate '{name}' expects {spec.num_params} parameters, got {n_params}"
        )
    return spec


def _batch_params(params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.ndim != 2:
        raise ValueError(
            "batched gate parameters must be a 2-D (batch, n_params) array, "
            f"got shape {params.shape}"
        )
    return params


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix of gate ``name`` with ``params``."""
    spec = _checked_spec(name, len(params))
    return np.asarray(spec.matrix_fn(tuple(params)), dtype=complex)


def gate_gradients(name: str, params: Sequence[float]) -> Tuple[np.ndarray, ...]:
    """Return ``dU/dp`` for each parameter ``p`` of gate ``name``."""
    spec = _checked_spec(name, len(params))
    if spec.grads_fn is None:
        return ()
    return spec.grads_fn(tuple(params))


def batched_gate_matrix(name: str, params: np.ndarray) -> np.ndarray:
    """``(batch, d, d)`` matrices of gate ``name``, one per parameter row.

    ``params`` has shape ``(batch, num_params)``; row ``b`` of the result
    equals ``gate_matrix(name, params[b])`` exactly.  Fixed gates return a
    read-only broadcast of their matrix.
    """
    params = _batch_params(params)
    spec = _checked_spec(name, params.shape[1])
    return spec.batch_matrix_fn(params)


def batched_gate_gradients(name: str, params: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``dU/dp`` stacks of gate ``name``: one ``(batch, d, d)`` array per
    parameter, row ``b`` equal to ``gate_gradients(name, params[b])``."""
    params = _batch_params(params)
    spec = _checked_spec(name, params.shape[1])
    if spec.batch_grads_fn is None:
        return ()
    return spec.batch_grads_fn(params)


def gate_num_params(name: str) -> int:
    """Number of free parameters of gate ``name``."""
    return gate_spec(name).num_params


def gate_num_qubits(name: str) -> int:
    """Number of qubits gate ``name`` acts on."""
    return gate_spec(name).num_qubits


def is_parameterized(name: str) -> bool:
    """Whether gate ``name`` carries trainable parameters."""
    return gate_spec(name).is_parameterized
