"""Batched noise-free statevector backend.

Serves every loss term that never needed a density matrix: the
``noise_free`` estimator mode, the noise-free numerator of
``success_rate``-weighted scores, and the per-group noise-free energy probes
of the VQE paths.  Forward passes run over the whole validation batch at
once in the ``(batch,) + (2,) * n`` state layout, with consecutive concrete
(weight-bound) gate segments fused into dense ``<= MAX_FUSED_QUBITS``
unitaries (TorchQuantum's static mode) so the hot loop applies fewer, larger
contractions.  Per-sample encoder gates stay dynamic and are applied with
batched matrices.

The fusion plan is memoized on the structure-group entry (the engine's
per-genome cache), so successive populations — and successive backend
instances — reuse it until the SuperCircuit parameters change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.fusion import fuse_circuit
from ..quantum.statevector import (
    apply_matrix,
    expectation_pauli_sum,
    expectation_z_all,
    op_matrix,
    run_parameterized,
    run_parameterized_rows,
    zero_state,
)
from .base import (
    BackendCapabilities,
    JobResult,
    SimulationBackend,
    SimulationJob,
)
from .registry import register_backend

__all__ = ["StatevectorBackend"]

#: widest dense unitary a fused concrete segment is grouped into
MAX_FUSED_QUBITS = 3


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


@register_backend
class StatevectorBackend(SimulationBackend):
    """Noise-free trajectories for loss terms that never needed a density
    matrix."""

    name = "statevector"
    capabilities = BackendCapabilities(
        noisy=False,
        noise_free=True,
        shot_based=False,
        observables=True,
        batched=True,
        max_qubits=None,
    )

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        self.segments_fused = 0
        self.batches_run = 0

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        """One forward pass per job; ``features`` may be a whole matrix.

        A job carrying its own ``weights`` (the gradient engine's shifted
        evaluations) overrides the entry's inherited weight vector; a 2-D
        ``(rows, num_weights)`` weight matrix runs every row over the whole
        feature batch in one pass (row-major).  Weight-carrying jobs bypass
        the fusion plan — its fused matrices bake the *entry's* weights in.
        """
        self.groups_run += 1
        handles: List[JobResult] = []
        for job in jobs:
            if job.weights is not None:
                states = self._weighted_states(entry, job)
            else:
                states = self._forward_states(entry, job.features)
            self.batches_run += 1
            self.jobs_run += states.shape[0]
            handles.append(_StatevectorResult(states))
        return handles

    def _weighted_states(self, entry, job: SimulationJob) -> np.ndarray:
        circuit = job.circuit if job.circuit is not None else entry.circuit
        weights = np.asarray(job.weights, dtype=float)
        if weights.ndim == 2:
            return run_parameterized_rows(circuit, weights, job.features)
        return run_parameterized(circuit, weights, job.features)

    def stats_delta(self) -> Dict[str, int]:
        return {
            "statevector_batches": self.batches_run,
            "fused_segments": self.segments_fused,
        }

    # -- fused forward pass ---------------------------------------------------

    def _fusion_plan(self, entry) -> List[Tuple[str, object]]:
        """Fuse concrete (weight/const) segments; keep encoder ops dynamic."""
        if entry.fusion_plan is not None:
            return entry.fusion_plan
        circuit, weights = entry.circuit, entry.weights
        plan: List[Tuple[str, object]] = []
        segment: List[Instruction] = []

        def flush() -> None:
            if not segment:
                return
            concrete = QuantumCircuit(circuit.n_qubits, list(segment))
            for block in fuse_circuit(concrete, MAX_FUSED_QUBITS):
                plan.append(("fused", block))
            self.segments_fused += 1
            segment.clear()

        for op in circuit.ops:
            if op.uses_input:
                flush()
                plan.append(("dynamic", op))
            else:
                params = circuit.resolve_params(op, weights)
                segment.append(Instruction(op.gate, op.qubits, tuple(params)))
        flush()
        entry.fusion_plan = plan
        return plan

    def _forward_states(
        self, entry, features: Optional[np.ndarray], batch: int = 1
    ) -> np.ndarray:
        """Statevector forward pass with static-mode fusion."""
        circuit, weights = entry.circuit, entry.weights
        if features is not None:
            features = np.asarray(features, dtype=float)
            if features.ndim == 1:
                features = features[None, :]
            batch = features.shape[0]
        states = zero_state(circuit.n_qubits, batch)
        for kind, payload in self._fusion_plan(entry):
            if kind == "fused":
                states = apply_matrix(states, payload.matrix, payload.qubits)
            else:
                params = circuit.resolve_params(payload, weights, features)
                states = apply_matrix(
                    states, op_matrix(payload.gate, params), payload.qubits
                )
        return states
