"""Batched noise-free statevector backend.

Serves every loss term that never needed a density matrix: the
``noise_free`` estimator mode, the noise-free numerator of
``success_rate``-weighted scores, and the per-group noise-free energy probes
of the VQE paths.  There is one forward pass, the one training and the
per-candidate seed path run: :func:`~repro.quantum.statevector.
run_parameterized` over the whole validation batch at once in the
``(batch,) + (2,) * n`` state layout, or
:func:`~repro.quantum.statevector.run_parameterized_rows` when a job
carries a weight matrix.  No gate fusion (static mode) runs here, so
noise-free scores equal the seed path bit for bit.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..quantum.statevector import (
    expectation_pauli_sum,
    expectation_z_all,
    run_parameterized,
    run_parameterized_rows,
)
from .base import JobResult, SimulationBackend, SimulationJob

__all__ = ["StatevectorBackend"]


class _StatevectorResult(JobResult):
    """Forward-pass states of one structure group (whole batch at once)."""

    __slots__ = ("states",)

    def __init__(self, states: np.ndarray) -> None:
        self.states = states

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        """``(batch, n_qubits)`` Z expectations of the forward states."""
        return expectation_z_all(self.states)

    def pauli_expectations(self, observable) -> np.ndarray:
        """``(batch,)`` expectations of a logical Pauli-sum observable."""
        return expectation_pauli_sum(self.states, observable)

    def pauli_expectation(self, observable) -> float:
        return float(self.pauli_expectations(observable)[0])


class StatevectorBackend(SimulationBackend):
    """Noise-free trajectories for loss terms that never needed a density
    matrix."""

    name = "statevector"

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        self.batches_run = 0

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        """One forward pass per job; ``features`` may be a whole matrix.

        A job's own ``circuit`` and ``weights`` (the gradient engine's
        shifted evaluations) override the entry's; a 2-D ``(rows,
        num_weights)`` weight matrix runs every row over the whole feature
        batch in one pass (row-major).
        """
        handles: List[JobResult] = []
        for job in jobs:
            circuit = job.circuit if job.circuit is not None else entry.circuit
            weights = job.weights if job.weights is not None else entry.weights
            if np.ndim(weights) == 2:
                states = run_parameterized_rows(circuit, weights, job.features)
            else:
                states = run_parameterized(circuit, weights, job.features)
            self.batches_run += 1
            handles.append(_StatevectorResult(states))
        return handles

    def stats_delta(self) -> Dict[str, int]:
        return {"statevector_batches": self.batches_run}
