"""Shot-sampling backend: real-QC-style execution through the population
protocol.

Wraps :meth:`repro.devices.backend.QuantumBackend.run_parameterized` — the
same compile-and-run path the paper's "search with real QC in the loop"
configuration uses — behind the :class:`~repro.backends.base.
SimulationBackend` protocol, so shot-based searches run through the
*identical* batched population machinery (genome grouping, shared transpile
caches, sharded scheduling) as the simulator-backed modes.

Determinism: the historical real-QC path consumes one shared rng stream in
population order, which is why the engine evaluates it candidate-by-candidate
in the parent process.  This backend instead pins an independent seed per
*job* — derived with :func:`repro.utils.rng.stable_seed` from the job's
``seed_key`` (genome gene, mapping, sample index), never from scheduling
order — so scores are bit-for-bit reproducible across repeated evaluations,
group orderings and worker counts.  Select it with
``EstimatorConfig(backend="shots")`` or ``REPRO_BACKEND=shots``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..devices.backend import QuantumBackend
from ..utils.rng import stable_seed
from .base import (
    BackendCapabilities,
    JobResult,
    SimulationBackend,
    SimulationJob,
)
from .registry import register_backend

__all__ = ["ShotSamplerBackend"]


class _ShotResult(JobResult):
    """Wraps one :class:`~repro.devices.backend.BackendResult`."""

    __slots__ = ("result",)

    def __init__(self, result) -> None:
        self.result = result

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        return self.result.expectation_z_all()

    def probabilities(self) -> np.ndarray:
        return self.result.probabilities

    def logical_probabilities(self, n_logical: int) -> np.ndarray:
        # the device backend already measured the logical register
        return self.result.probabilities


@register_backend
class ShotSamplerBackend(SimulationBackend):
    """Finite-shot execution with per-job pinned seeds."""

    name = "shots"
    capabilities = BackendCapabilities(
        noisy=True,
        noise_free=False,
        shot_based=True,
        observables=False,   # Z-basis readout only; VQE stays on density
        batched=False,
        max_qubits=None,
    )

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        config = estimator.config
        self.shots = int(config.shots)
        self.seed = int(getattr(config, "seed", 0))
        self.optimization_level = int(config.optimization_level)
        # A private QuantumBackend sharing the estimator's warm transpile
        # caches: compilations flow into the same caches every other stage
        # reuses, while the per-job reseeding below never disturbs the
        # estimator's own backend rng stream (which the sequential real_qc
        # path consumes in population order).
        self._backend = QuantumBackend(
            estimator.device,
            shots=self.shots,
            seed=self.seed,
            max_density_qubits=config.max_density_qubits,
            transpile_cache=getattr(estimator, "transpile_cache", None),
            parametric_cache=getattr(
                estimator, "parametric_transpile_cache", None
            ),
        )

    def job_seed(self, seed_key) -> int:
        """The pinned sampling seed for one job (pure function of content)."""
        return stable_seed((self.seed, "shot-backend") + tuple(seed_key or ()))

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        self.groups_run += 1
        handles: List[JobResult] = []
        for job in jobs:
            self._backend.reseed(self.job_seed(job.seed_key))
            circuit = job.circuit if job.circuit is not None else entry.circuit
            weights = job.weights if job.weights is not None else entry.weights
            result = self._backend.run_parameterized(
                circuit,
                weights,
                job.features,
                initial_layout=job.initial_layout,
                optimization_level=self.optimization_level,
                shots=self.shots,
            )
            handles.append(_ShotResult(result))
            self.jobs_run += 1
        return handles

    def stats_delta(self) -> Dict[str, int]:
        return {"shot_circuits": self.jobs_run}
