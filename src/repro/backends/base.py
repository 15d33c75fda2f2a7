"""The simulation-backend protocol behind population evaluation.

The execution engine (:mod:`repro.execution`) organizes *what* to evaluate —
genome groups, inherited weights, transpilations, score formulas.  *How* a
compiled binding is actually simulated is a backend concern: density matrices
with the device noise model, batched noise-free statevector trajectories, or
finite-shot sampling on the shot-based device backend.  This module defines
the contract the engines program against; the three backends live next to
it, and each engine constructs the one its resolved estimator mode needs.

Protocol
--------
A backend implements ``run_group(entry, jobs)``:

* ``entry`` is the structure group's :class:`GroupEntry`: ``circuit`` (the
  standalone :class:`~repro.quantum.circuit.ParameterizedCircuit`) and
  ``weights`` (the inherited weight vector), the defaults of every job
  that carries no circuit or weights of its own.
* ``jobs`` is a list of :class:`SimulationJob` — each one binding (or one
  vectorized batch of bindings) awaiting execution.
* the return value is one :class:`JobResult` handle per scheduled binding.

The rows of one parametric template bind —
:meth:`~repro.execution.cache.ParametricTranspileCache.bind_rows` returns
them as a ``(binding, fallback)`` pair — are scheduled by
:func:`run_bound_rows`, which returns one handle per row, in row order.

``run_group`` may *defer* the actual simulation: callers must invoke
:meth:`SimulationBackend.synchronize` before reading any handle, which lets
the density backend stack structurally aligned circuits from many submissions
into single batched evolutions.  One backend instance serves one population
evaluation; its counters are harvested by the engine afterwards
(:meth:`SimulationBackend.stats_delta`).

Determinism contract: given the same group (entry, jobs, seeds), a backend
must produce bit-for-bit identical results regardless of what other groups
run before, after or concurrently — this is what lets the sharded scheduler
move groups between worker processes without changing a single score.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BackendCapabilityError",
    "GroupEntry",
    "SimulationJob",
    "JobResult",
    "SimulationBackend",
    "run_bound_rows",
]


class BackendCapabilityError(RuntimeError):
    """A backend was asked for a result kind it cannot produce."""


@dataclass
class GroupEntry:
    """One structure group: a standalone circuit and its inherited weights."""

    circuit: object
    weights: np.ndarray


@dataclass
class SimulationJob:
    """One binding (or one vectorized batch of bindings) awaiting simulation.

    Exactly one of the three payload shapes is populated:

    * ``compiled`` — an already-transpiled
      :class:`~repro.transpile.compiler.CompiledCircuit` (density backend;
      identical objects are deduplicated, so duplicated candidates simulate
      once);
    * ``template_batch`` — a
      :class:`~repro.transpile.parametric.TemplateBatchBinding`, i.e. one
      compiled structure with per-slot angle arrays covering many rows
      (density backend fast path; yields one result handle per row);
    * ``circuit`` + ``weights`` [+ ``features``] + ``initial_layout`` — a
      logical binding the backend compiles/executes itself (shot backend via
      ``QuantumBackend.run_parameterized``; statevector backend, where
      ``features`` may be a whole ``(batch, k)`` matrix).

    ``seed_key`` is a hashable tuple pinning any randomness the job consumes
    (shot sampling).  It must be a pure function of the job's *content* —
    never of scheduling order — so results stay independent of sharding.
    """

    compiled: Optional[object] = None
    template_batch: Optional[object] = None
    circuit: Optional[object] = None
    weights: Optional[np.ndarray] = None
    features: Optional[np.ndarray] = None
    initial_layout: object = None
    seed_key: Optional[Tuple] = None


class JobResult(abc.ABC):
    """Handle to one scheduled binding's results.

    Valid only after the owning backend's :meth:`~SimulationBackend.
    synchronize` ran.  Each backend implements the result kinds it
    produces; the others raise :class:`BackendCapabilityError`.
    """

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        """Per-logical-qubit Z expectations (QML readout)."""
        raise BackendCapabilityError(
            f"{type(self).__name__} does not produce Z expectations"
        )

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities over the backend's native register."""
        raise BackendCapabilityError(
            f"{type(self).__name__} does not produce probabilities"
        )

    def logical_probabilities(self, n_logical: int) -> np.ndarray:
        """Measurement probabilities over the ``n_logical`` logical qubits
        (the native register marginalized through the final layout)."""
        raise BackendCapabilityError(
            f"{type(self).__name__} does not produce logical probabilities"
        )

    def pauli_expectation(self, observable) -> float:
        """Expectation of a Pauli-sum observable (VQE energies).

        The observable must already live on the backend's native register
        (the engine remaps logical Hamiltonians onto the compiled layout
        before asking).
        """
        raise BackendCapabilityError(
            f"{type(self).__name__} does not measure observables"
        )

    def pauli_expectations(self, observable) -> np.ndarray:
        """Batched observable expectations, one per covered binding.

        Backends whose handles cover a whole batch (the statevector forward
        pass) override this; the default wraps the scalar
        :meth:`pauli_expectation`, so a backend that measures observables
        only has to implement one of the two.
        """
        return np.asarray([self.pauli_expectation(observable)])


class SimulationBackend(abc.ABC):
    """Abstract base of every simulation backend.

    Subclasses define ``name`` and :meth:`run_group`; they are constructed
    per population evaluation with the owning
    :class:`~repro.core.estimator.PerformanceEstimator` (or the gradient
    engine, which exposes the same attributes) as sole argument: everything
    a backend needs — device, config, shared transpile caches — hangs off
    it.
    """

    #: the ``backend`` label of the engine's ``backend.synchronize`` span
    name: str = ""

    def __init__(self, estimator) -> None:
        self.estimator = estimator

    @abc.abstractmethod
    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        """Schedule one structure group's jobs; one handle per binding.

        Implementations may defer the simulation until :meth:`synchronize`.
        A ``template_batch`` job expands into one handle per covered row.
        """

    def synchronize(self) -> None:
        """Execute everything scheduled since the last synchronize (no-op
        for backends that run eagerly)."""

    def stats_delta(self) -> Dict[str, int]:
        """Counter increments to fold into the engine's ``ExecutionStats``;
        every key names an ``ExecutionStats`` field."""
        return {}


def run_bound_rows(backend, entry, binding, fallback) -> List[JobResult]:
    """Schedule the rows of one template bind; one handle per row, in row
    order.

    ``binding`` (a :class:`~repro.transpile.parametric.TemplateBatchBinding`
    or ``None``) covers the rows the structure's template binds and runs as
    one ``template_batch`` job; ``fallback`` maps every other row to its
    exact :class:`~repro.transpile.compiler.CompiledCircuit`, each run as a
    ``compiled`` job.  Both go to ``backend.run_group`` in one call.
    """
    rows = [] if binding is None else [int(row) for row in binding.rows]
    jobs = [] if binding is None else [SimulationJob(template_batch=binding)]
    for row, compiled in sorted(fallback.items()):
        rows.append(row)
        jobs.append(SimulationJob(compiled=compiled))
    handles: List[JobResult] = [None] * len(rows)
    for row, handle in zip(rows, backend.run_group(entry, jobs)):
        handles[row] = handle
    return handles
