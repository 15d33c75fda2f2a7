"""The simulation backends behind population and gradient evaluation.

The population execution engine (:mod:`repro.execution`) and the gradient
engine (:mod:`repro.gradients`) decide *what* to evaluate; this package
decides *how* a structure group's bindings are simulated.  Each engine
constructs the backend its resolved estimator mode needs:

* ``noise_sim`` — :class:`DensityMatrixBackend`, the batched noisy
  simulator (the engine the paper's estimator uses for small circuits);
* every noise-free term — :class:`StatevectorBackend`, batched noise-free
  trajectories (``noise_free`` scores, the numerators of ``success_rate``
  scores and the VQE energy probes);
* ``real_qc`` gradient rows — :class:`ShotSamplerBackend`, finite-shot
  execution through ``QuantumBackend.run_parameterized`` with per-job
  pinned seeds.

See ``README.md`` in this directory for the protocol.
"""

from .base import (
    BackendCapabilityError,
    GroupEntry,
    JobResult,
    SimulationBackend,
    SimulationJob,
    run_bound_rows,
)
from .density import BatchedDensityRunner, DensityMatrixBackend
from .shots import ShotSamplerBackend
from .statevector import StatevectorBackend

__all__ = [
    "BackendCapabilityError",
    "GroupEntry",
    "JobResult",
    "SimulationBackend",
    "SimulationJob",
    "run_bound_rows",
    "BatchedDensityRunner",
    "DensityMatrixBackend",
    "ShotSamplerBackend",
    "StatevectorBackend",
]
