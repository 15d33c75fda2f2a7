"""Shot-sampling backend: real-QC-style execution with pinned seeds.

Wraps :meth:`repro.devices.backend.QuantumBackend.run_parameterized` — the
same compile-and-run path the paper's "search with real QC in the loop"
configuration uses — behind the :class:`~repro.backends.base.
SimulationBackend` protocol.  The gradient engine runs its ``real_qc`` QML
readout rows on it (:class:`~repro.gradients.engine.BatchedGradientEngine`).

Determinism: the population engine's real-QC path consumes one shared rng
stream in population order, which is why it evaluates candidates one by one
in the parent process.  This backend instead pins an independent seed per
*job* — derived with :func:`repro.utils.rng.stable_seed` from the job's
``seed_key`` (shift-rule row label and sample index), never from scheduling
order — so results are bit-for-bit reproducible across repeated
evaluations and worker counts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..devices.backend import QuantumBackend
from ..utils.rng import stable_seed
from .base import JobResult, SimulationBackend, SimulationJob

__all__ = ["ShotSamplerBackend"]


class _ShotResult(JobResult):
    """Wraps one :class:`~repro.devices.backend.BackendResult`."""

    __slots__ = ("result",)

    def __init__(self, result) -> None:
        self.result = result

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        return self.result.expectation_z_all()


class ShotSamplerBackend(SimulationBackend):
    """Finite-shot execution with per-job pinned seeds (Z-basis readout
    only)."""

    name = "shots"

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        config = estimator.config
        self.shots = int(config.shots)
        self.seed = int(config.seed)
        self.optimization_level = int(config.optimization_level)
        # A private QuantumBackend sharing the owner's warm transpile caches:
        # compilations flow into the same caches every other stage reuses,
        # while the per-job reseeding below disturbs no other rng stream.
        self._backend = QuantumBackend(
            estimator.device,
            shots=self.shots,
            seed=self.seed,
            max_density_qubits=config.max_density_qubits,
            transpile_cache=estimator.transpile_cache,
            parametric_cache=estimator.parametric_transpile_cache,
        )

    def job_seed(self, seed_key) -> int:
        """The pinned sampling seed for one job (pure function of content)."""
        return stable_seed((self.seed, "shot-backend") + tuple(seed_key or ()))

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
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
        return handles
