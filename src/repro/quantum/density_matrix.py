"""Density-matrix simulation with noise channels: the one fused kernel.

:func:`apply_fused_positions` evolves a batch of density matrices through
noisy gate positions, each position's unitary and the noise channels after
it composed into one superoperator and folded into blocks of at most two
qubits.  It runs inside :class:`~repro.backends.density.BatchedDensityRunner`,
which serves every noisy simulation: the population and gradient engines,
the shot-based device backend, and the estimator's per-candidate seed path.
The dense oracle (``tests/quantum/test_dense_oracle.py``) pins it against
gate-by-gate ``sum K rho K^dagger`` evolution and shares no code with it.
A density matrix is stored as a tensor of shape ``(2,) * 2n``, and a batch
as ``(batch,) + (2,) * 2n``, so that gates and channels are applied locally
without building full ``2**n x 2**n`` unitaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .operators import PauliSum

__all__ = [
    "zero_density_matrices",
    "channel_superoperator",
    "apply_fused_positions",
    "density_probabilities",
    "expectation_pauli_sum_dm",
]


def kraus_to_superoperator(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator ``S[(a,b),(a',b')] = sum_i K_i[a,a'] conj(K_i)[b,b']``."""
    dim = kraus_operators[0].shape[0]
    superop = np.zeros((dim, dim, dim, dim), dtype=complex)
    for kraus in kraus_operators:
        superop += np.einsum("ac,bd->abcd", kraus, kraus.conj())
    return superop


#: superoperators memoized by Kraus-tuple identity.  The channel constructors
#: in repro.noise.channels are themselves memoized, so the identical tuple
#: object arrives once per gate position of every circuit — rebuilding the
#: superoperator each time dominated the batched noise_sim hot loop.  Entries
#: keep a strong reference to the operators so CPython cannot recycle the id.
_SUPEROP_CACHE: dict = {}


def _cached_superoperator(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    key = id(kraus_operators)
    entry = _SUPEROP_CACHE.get(key)
    if entry is None or entry[0] is not kraus_operators:
        if len(_SUPEROP_CACHE) >= 1024:
            _SUPEROP_CACHE.clear()
        superop = kraus_to_superoperator(kraus_operators)
        superop.flags.writeable = False
        _SUPEROP_CACHE[key] = (kraus_operators, superop)
        return superop
    return entry[1]


# ---------------------------------------------------------------------------
# Batched density matrices
#
# A stack of noisy circuits that share their gate *structure* (same gate
# names and qubits at every position, possibly with per-sample parameters)
# evolves through one sequence of contractions.  Each position's unitary
# conjugation ``U (.) U^dagger`` and the noise channels after it compose
# into one superoperator, and runs of positions on at most two qubits fold
# into one block before touching the state, so the batch sees one
# contraction per block instead of two per gate plus at least one per
# channel.  The result applies the same channels as gate-by-gate Kraus
# evolution, composed, and agrees with it to rounding.
# ---------------------------------------------------------------------------


def zero_density_matrices(n_qubits: int, batch: int = 1) -> np.ndarray:
    """``|0..0><0..0|`` replicated ``batch`` times, shape ``(batch,) + (2,)*2n``."""
    rhos = np.zeros((batch,) + (2,) * (2 * n_qubits), dtype=complex)
    rhos[(slice(None),) + (0,) * (2 * n_qubits)] = 1.0
    return rhos


@lru_cache(maxsize=4096)
def _front_permutation(
    ndim: int, axes: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Permutation bringing ``axes`` to the front, and its inverse.

    Cached per ``(ndim, axes)``: the batched hot loop applies the same
    handful of gate/channel positions thousands of times, and recomputing
    the axis bookkeeping (as ``tensordot``/``moveaxis`` do per call)
    dominated the contraction cost on small registers.
    """
    perm = tuple(axes) + tuple(a for a in range(ndim) if a not in axes)
    inverse = tuple(int(i) for i in np.argsort(perm))
    return perm, inverse


def _apply_front_matrix(
    tensor: np.ndarray, operator: np.ndarray, axes: Tuple[int, ...]
) -> np.ndarray:
    """Contract an operator against ``axes`` of a tensor via BLAS.

    The one batched gate-application kernel, shared by the statevector and
    density-matrix layouts.  ``operator`` is ``(D, D)``, shared by the whole
    tensor, or ``(batch, D, D)``, one per entry of the tensor's leading
    batch axis.  The cached permutation brings ``axes`` (after the batch
    axis, for a per-row operator) to the front, so the contraction is one
    ``matmul`` over a ``(D, -1)`` or ``(batch, D, -1)`` view.
    """
    if operator.ndim == 2:
        perm, inverse = _front_permutation(tensor.ndim, axes)
        moved = tensor.transpose(perm)
        out = operator @ moved.reshape(operator.shape[0], -1)
    elif operator.ndim == 3:
        batch = tensor.shape[0]
        if operator.shape[0] != batch:
            raise ValueError(
                "batched matrix leading dimension must equal the batch size"
            )
        perm, inverse = _front_permutation(tensor.ndim, (0,) + axes)
        moved = tensor.transpose(perm)
        out = operator @ moved.reshape(batch, operator.shape[1], -1)
    else:
        raise ValueError("matrix must have 2 or 3 dimensions")
    return out.reshape(moved.shape).transpose(inverse)


def _ket_bra_axes(
    qubits: Sequence[int], n_qubits: int, offset: int
) -> Tuple[int, ...]:
    """The ket axes then the bra axes of ``qubits`` in a ``(2,) * 2n`` layout
    whose first axis sits at ``offset``."""
    return tuple(offset + q for q in qubits) + tuple(
        offset + n_qubits + q for q in qubits
    )


def _contract_state(
    rhos: np.ndarray, superop: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``(ket, bra)``-layout superoperator on ``qubits`` of a batch."""
    n = (rhos.ndim - 1) // 2
    return _apply_front_matrix(rhos, superop, _ket_bra_axes(qubits, n, 1))


def channel_superoperator(
    channels: Sequence[Tuple[Sequence[np.ndarray], Tuple[int, ...]]],
    qubits: Tuple[int, ...],
) -> Optional[np.ndarray]:
    """Kraus channels composed in order into one superoperator on ``qubits``.

    ``channels`` holds ``(kraus_operators, targets)`` pairs whose targets lie
    within ``qubits``, as :meth:`~repro.noise.models.NoiseModel.channels_for`
    returns them.  The result is ``(4**k, 4**k)`` in the ``(ket, bra) x
    (ket', bra')`` layout of :func:`kraus_to_superoperator`, with ``qubits``
    in the given order; ``None`` when there is no channel.
    """
    if not channels:
        return None
    k = len(qubits)
    dim = 4**k
    composed = np.eye(dim, dtype=complex).reshape((2,) * (2 * k) + (dim,))
    for kraus_operators, targets in channels:
        local = tuple(qubits.index(q) for q in targets)
        width = 4 ** len(targets)
        superop = _cached_superoperator(kraus_operators).reshape(width, width)
        composed = _apply_front_matrix(
            composed, superop, _ket_bra_axes(local, k, 0)
        )
    return composed.reshape(dim, dim)


def _unitary_superoperator(matrix: np.ndarray) -> np.ndarray:
    """``U (x) conj(U)`` in the ``(ket, bra)`` layout, for a shared ``(d, d)``
    or per-row ``(batch, d, d)`` unitary, as one broadcast product."""
    dim = matrix.shape[-1]
    product = matrix[..., :, None, :, None] * matrix.conj()[..., None, :, None, :]
    return product.reshape(matrix.shape[:-2] + (dim * dim, dim * dim))


#: the identity on a two-qubit block, the start of a block whose qubits had
#: pending single-qubit maps
_BLOCK_IDENTITY = np.eye(16, dtype=complex)
_BLOCK_IDENTITY.flags.writeable = False


def _then(
    block: np.ndarray, superop: np.ndarray, local: Tuple[int, ...]
) -> np.ndarray:
    """A two-qubit block followed by ``superop`` on its local qubits ``local``.

    Either operand may be shared or per-row; the result is per-row when
    either is.  The block's rows are contracted like a state, so ``local``
    may name its qubits in either order.
    """
    axes = _ket_bra_axes(local, 2, 0)
    if block.ndim == 2 and superop.ndim == 2:
        rows = block.reshape((2,) * 4 + (16,))
        return _apply_front_matrix(rows, superop, axes).reshape(16, 16)
    batch = (block if block.ndim == 3 else superop).shape[0]
    rows = np.broadcast_to(block, (batch, 16, 16))
    out = _apply_front_matrix(
        rows.reshape((batch,) + (2,) * 4 + (16,)), superop,
        tuple(1 + a for a in axes),
    )
    return out.reshape(batch, 16, 16)


def apply_fused_positions(
    rhos: np.ndarray,
    positions: Iterable[Tuple[np.ndarray, Tuple[int, ...], Optional[np.ndarray]]],
) -> np.ndarray:
    """Evolve a density batch through noisy positions fused into blocks.

    ``rhos`` has shape ``(batch,) + (2,) * 2n``.  Each position is
    ``(matrix, qubits, channel)``: its unitary, shared ``(d, d)`` or per-row
    ``(batch, d, d)``; the one or two qubits it acts on; and the composed
    superoperator of the noise after it on those qubits
    (:func:`channel_superoperator`), or ``None``.  The position's map is
    ``channel @ (U (x) conj(U))``.

    Maps fold into blocks before they touch the state.  Each qubit holds at
    most one pending single-qubit map or one open two-qubit block:

    * a 1q position multiplies into its qubit's open block, else into its
      pending map;
    * a 2q position on the pair of one open block multiplies into it, in
      either qubit order;
    * any other 2q position first applies the open blocks on its qubits,
      then opens a block: its qubits' pending maps, then its own map;
    * at the end the open blocks apply, then the pending maps.

    Every application is one :func:`_apply_front_matrix` contraction of the
    state, per-row when any map folded into it is.  Only maps on disjoint
    qubits move past each other, so the result equals the unfused sequence
    up to rounding.  Registry gates act on at most two qubits, which bounds
    a block at two.
    """
    pending: Dict[int, np.ndarray] = {}
    blocks: Dict[Tuple[int, int], np.ndarray] = {}
    owner: Dict[int, Tuple[int, int]] = {}
    for matrix, qubits, channel in positions:
        superop = _unitary_superoperator(matrix)
        if channel is not None:
            superop = channel @ superop
        if len(qubits) == 1:
            (qubit,) = qubits
            pair = owner.get(qubit)
            if pair is not None:
                blocks[pair] = _then(blocks[pair], superop, (pair.index(qubit),))
            elif qubit in pending:
                pending[qubit] = superop @ pending[qubit]
            else:
                pending[qubit] = superop
            continue
        pair = owner.get(qubits[0])
        if pair is not None and pair == owner.get(qubits[1]):
            local = tuple(pair.index(q) for q in qubits)
            blocks[pair] = _then(blocks[pair], superop, local)
            continue
        for qubit in qubits:
            pair = owner.get(qubit)
            if pair is not None:
                rhos = _contract_state(rhos, blocks.pop(pair), pair)
                del owner[pair[0]], owner[pair[1]]
        block = None
        for local, qubit in enumerate(qubits):
            if qubit in pending:
                start = _BLOCK_IDENTITY if block is None else block
                block = _then(start, pending.pop(qubit), (local,))
        pair = tuple(qubits)
        blocks[pair] = superop if block is None else superop @ block
        owner[pair[0]] = owner[pair[1]] = pair
    for pair, block in blocks.items():
        rhos = _contract_state(rhos, block, pair)
    for qubit, superop in pending.items():
        rhos = _contract_state(rhos, superop, (qubit,))
    return rhos


def density_probabilities(rho: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities (the diagonal of rho)."""
    n = rho.ndim // 2
    dim = 2**n
    matrix = rho.reshape(dim, dim)
    probs = np.real(np.diag(matrix)).copy()
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 0:
        probs /= total
    return probs


def expectation_pauli_sum_dm(rho: np.ndarray, observable: PauliSum) -> float:
    """``Tr(H rho)`` for a Pauli-sum observable: one gather over the sum's
    compiled table (:mod:`repro.quantum.operators`)."""
    n = rho.ndim // 2
    dim = 2**n
    return observable._table(n).trace(rho.reshape(dim, dim))
