"""Runtime cache-mutation sanitizer (``REPRO_SANITIZE=1``).

The transpile caches promise that entries crossing the sharded scheduler's
process boundary are immutable shared state: a worker exports what it
compiled, the parent adopts it, and from then on *nobody* may mutate the
shared objects — the equivalence suite pins the numbers, but a mutation
that happens to keep scores stable on today's workloads would still be a
latent bug for tomorrow's.  This module is the dynamic half of the
enforcement (the static half is :mod:`repro.analysis`): with
``REPRO_SANITIZE=1`` in the environment, every
:class:`~repro.execution.cache.TranspileCache` /
:class:`~repro.execution.cache.ParametricTranspileCache` fingerprints each
entry at the moment it becomes shared (``export_entries`` /
``adopt_entries``) and re-verifies all recorded fingerprints at every
subsequent share point (and at ``clear``), raising
:class:`CacheMutationError` on the first divergence.

Fingerprints are ``blake2b(pickle.dumps(entry))``.  Because
``CompiledCircuit.__getstate__`` / ``Device.__getstate__`` drop their
derived memos, *benign* lazy memoization (``success_rate()`` populating
``_success_rate`` after adoption) never trips the sanitizer — only changes
to the pickled contract state do.  A parametric structure's entry is its
one compiled template, fingerprinted like any other entry.

The same switch arms the density-matrix physics checks, all to ``1e-10``:

* every batch the :class:`~repro.backends.density.BatchedDensityRunner`
  evolves (its one ``_simulate``, which serves every noisy simulation:
  the engines, every circuit :class:`~repro.devices.backend.QuantumBackend`
  runs and the estimator's seed path) is checked matrix by matrix: unit
  trace, Hermitian, smallest eigenvalue at least ``-1e-10``;
* every row of every batch's readout (the probabilities all its row
  handles read, scores included) sums to 1;
* every composed channel superoperator the runner memoizes preserves the
  trace;
* every Kraus set :meth:`~repro.noise.models.NoiseModel.channels_for` hands
  out satisfies ``sum K^dagger K = I``, once per set object (the
  constructors are memoized).

A violation raises :class:`DensityInvariantError`.

The hooks are installed by :func:`install_sanitizer` — called automatically
from :mod:`repro.execution` when ``REPRO_SANITIZE`` is set — and are
process-global but idempotent; :func:`uninstall_sanitizer` restores the
original methods (tests toggle them around assertions).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..noise.channels import completeness_error

__all__ = [
    "CacheMutationError",
    "DensityInvariantError",
    "DENSITY_TOL",
    "check_density_batch",
    "check_trace_preserving",
    "sanitize_requested",
    "entry_fingerprint",
    "install_sanitizer",
    "uninstall_sanitizer",
    "sanitizer_installed",
    "verify_cache",
]


class CacheMutationError(RuntimeError):
    """A cache entry shared across the process boundary was mutated."""


class DensityInvariantError(RuntimeError):
    """A simulated density matrix or a composed noise channel is unphysical."""


#: tolerance of every density-matrix and channel invariant
DENSITY_TOL = 1e-10


def sanitize_requested(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether the environment asks for the sanitizer (``REPRO_SANITIZE``)."""
    env = os.environ if environ is None else environ
    return env.get("REPRO_SANITIZE", "").strip() not in ("", "0", "false", "no")


def entry_fingerprint(entry) -> bytes:
    """Content fingerprint of one cache entry.

    ``__getstate__`` implementations apply, so state a class explicitly
    excludes from its pickled form (derived memos) is — by design — free to
    change without tripping verification.
    """
    payload = pickle.dumps(entry, protocol=4)
    return hashlib.blake2b(payload, digest_size=16).digest()


# ---------------------------------------------------------------------------
# Per-cache fingerprint ledgers
# ---------------------------------------------------------------------------

_LEDGER_ATTR = "_sanitizer_ledger"


def _ledger(cache) -> Dict[Tuple, bytes]:
    """The cache's ``shared-entry key -> fingerprint`` ledger.

    Keys are ``("bound", key)`` for plain compiled entries and
    ``("structure", key)`` for parametric structure templates.
    """
    ledger = getattr(cache, _LEDGER_ATTR, None)
    if ledger is None:
        ledger = {}
        setattr(cache, _LEDGER_ATTR, ledger)
    return ledger


def _record(cache, kind: str, key, entry) -> None:
    _ledger(cache)[(kind, key)] = entry_fingerprint(entry)


def verify_cache(cache) -> None:
    """Re-fingerprint every recorded shared entry still present; raise on
    the first divergence.  Evicted entries are dropped from the ledger."""
    ledger = getattr(cache, _LEDGER_ATTR, None)
    if not ledger:
        return
    entries_by_kind = {
        "bound": getattr(cache, "_entries", {}),
        "structure": getattr(cache, "_structures", {}),
    }
    stale: List[Tuple] = []
    for ledger_key, recorded in ledger.items():
        kind, key = ledger_key
        entry = entries_by_kind[kind].get(key)
        if entry is None:
            stale.append(ledger_key)
            continue
        if entry_fingerprint(entry) != recorded:
            raise CacheMutationError(
                f"{type(cache).__name__} {kind} entry {key!r} was mutated "
                "after it was shared across the process boundary "
                "(export_entries/adopt_entries); shared compilations and "
                "templates must be treated as immutable"
            )
    for ledger_key in stale:
        del ledger[ledger_key]


# ---------------------------------------------------------------------------
# Method hooks
# ---------------------------------------------------------------------------

_ORIGINALS: Dict[Tuple[type, str], object] = {}


def _wrap_cache(cls, kind: str, store: str) -> None:
    """Hook one cache class's share points; ``store`` names its entry LRU
    and ``kind`` the ledger kind its entries record under."""
    original_export = cls.export_entries
    original_adopt = cls.adopt_entries
    original_clear = cls.clear
    _ORIGINALS[(cls, "export_entries")] = original_export
    _ORIGINALS[(cls, "adopt_entries")] = original_adopt
    _ORIGINALS[(cls, "clear")] = original_clear

    def export_entries(self, exclude=()):
        verify_cache(self)
        entries = original_export(self, exclude)
        for key, entry in entries:
            _record(self, kind, key, entry)
        return entries

    def adopt_entries(self, entries):
        verify_cache(self)
        entries = list(entries)
        present = getattr(self, store)
        present_before = set(present)
        adopted = original_adopt(self, entries)
        for key, entry in entries:
            if key not in present_before and key in present:
                _record(self, kind, key, entry)
        return adopted

    def clear(self):
        verify_cache(self)
        getattr(self, _LEDGER_ATTR, {}).clear()
        return original_clear(self)

    cls.export_entries = export_entries
    cls.adopt_entries = adopt_entries
    cls.clear = clear


# ---------------------------------------------------------------------------
# Density-matrix physics
# ---------------------------------------------------------------------------


def check_density_batch(rhos: np.ndarray) -> None:
    """Raise :class:`DensityInvariantError` unless every matrix of a
    ``(batch,) + (2,) * 2n`` stack has unit trace, is Hermitian and has no
    eigenvalue below ``-DENSITY_TOL``."""
    batch = rhos.shape[0]
    dim = 2 ** ((rhos.ndim - 1) // 2)
    matrices = rhos.reshape(batch, dim, dim)
    trace_error = np.abs(np.trace(matrices, axis1=1, axis2=2) - 1.0).max()
    if trace_error > DENSITY_TOL:
        raise DensityInvariantError(
            f"density matrix trace is off by {trace_error:.3g}"
        )
    hermitian_error = np.abs(matrices - matrices.conj().swapaxes(1, 2)).max()
    if hermitian_error > DENSITY_TOL:
        raise DensityInvariantError(
            f"density matrix is not Hermitian (off by {hermitian_error:.3g})"
        )
    lowest = np.linalg.eigvalsh(matrices).min()
    if lowest < -DENSITY_TOL:
        raise DensityInvariantError(
            f"density matrix has a negative eigenvalue ({lowest:.3g})"
        )


def check_trace_preserving(superop: np.ndarray, qubits) -> None:
    """Raise :class:`DensityInvariantError` unless a ``(ket, bra)``-layout
    superoperator preserves the trace: ``vec(I)^T S = vec(I)^T``."""
    dim = int(round(np.sqrt(superop.shape[0])))
    identity = np.eye(dim).reshape(-1)
    error = np.abs(identity @ superop - identity).max()
    if error > DENSITY_TOL:
        raise DensityInvariantError(
            f"noise channel on qubits {tuple(qubits)} does not preserve the "
            f"trace (off by {error:.3g})"
        )


def _wrap_density_runner(cls, batch_cls) -> None:
    original_simulate = cls._simulate
    original_compose = cls._compose_channels
    original_probabilities = batch_cls.probabilities
    _ORIGINALS[(cls, "_simulate")] = original_simulate
    _ORIGINALS[(cls, "_compose_channels")] = original_compose
    _ORIGINALS[(batch_cls, "probabilities")] = original_probabilities

    def _simulate(self, batch):
        original_simulate(self, batch)
        # an oversized register takes the success-rate approximation and
        # produces probabilities, not density matrices
        if batch.rhos is not None:
            check_density_batch(batch.rhos)

    def _compose_channels(self, noise_model, qubits):
        superop = original_compose(self, noise_model, qubits)
        if superop is not None:
            check_trace_preserving(superop, qubits)
        return superop

    def probabilities(self):
        # every row handle reads its batch's readout through here, so every
        # scored row is checked
        probs = original_probabilities(self)
        error = float(np.abs(probs.sum(axis=1) - 1.0).max(initial=0.0))
        if error > DENSITY_TOL:
            raise DensityInvariantError(
                f"row probabilities do not sum to 1 (off by {error:.3g})"
            )
        return probs

    cls._simulate = _simulate
    cls._compose_channels = _compose_channels
    batch_cls.probabilities = probabilities


#: id -> Kraus set already checked; holding the set keeps its id unique
_CHECKED_KRAUS: Dict[int, object] = {}


def _wrap_noise_model(cls) -> None:
    original_channels_for = cls.channels_for
    _ORIGINALS[(cls, "channels_for")] = original_channels_for

    def channels_for(self, instruction):
        channels = original_channels_for(self, instruction)
        for operators, qubits in channels:
            if _CHECKED_KRAUS.get(id(operators)) is operators:
                continue
            error = completeness_error(operators)
            if error > DENSITY_TOL:
                raise DensityInvariantError(
                    f"Kraus set on qubits {tuple(qubits)} is not complete "
                    f"(sum K^dagger K is off the identity by {error:.3g})"
                )
            _CHECKED_KRAUS[id(operators)] = operators
        return channels

    cls.channels_for = channels_for


def sanitizer_installed() -> bool:
    return bool(_ORIGINALS)


def install_sanitizer() -> None:
    """Install the share-point and density-physics hooks (idempotent)."""
    if _ORIGINALS:
        return
    from ..backends import density as density_module
    from ..execution import cache as cache_module
    from ..noise import models as noise_models

    _wrap_cache(cache_module.TranspileCache, "bound", "_entries")
    _wrap_cache(cache_module.ParametricTranspileCache, "structure", "_structures")
    _wrap_density_runner(density_module.BatchedDensityRunner, density_module._Batch)
    _wrap_noise_model(noise_models.NoiseModel)


def uninstall_sanitizer() -> None:
    """Restore the original methods (idempotent)."""
    for (cls, method_name), original in _ORIGINALS.items():
        setattr(cls, method_name, original)
    _ORIGINALS.clear()
    _CHECKED_KRAUS.clear()
