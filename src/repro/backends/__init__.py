"""Pluggable simulation backends with per-group dispatch.

The population execution engine (:mod:`repro.execution`) decides *what* to
evaluate; this package decides *how* each structure group's bindings are
simulated.  Three engines ship in-tree:

* ``density`` — :class:`DensityMatrixBackend`, the batched noisy simulator
  behind ``noise_sim`` scores (the engine the paper's estimator uses for
  small circuits);
* ``statevector`` — :class:`StatevectorBackend`, batched noise-free
  trajectories for every term that never needed a density matrix
  (``noise_free`` scores and the numerators of ``success_rate`` scores);
* ``shots`` — :class:`ShotSamplerBackend`, finite-shot execution through
  ``QuantumBackend.run_parameterized`` with per-job pinned seeds, the
  real-QC-in-the-loop configuration run through the identical population
  protocol.

Per-group selection is a deterministic policy
(:class:`BackendDispatcher`): resolved estimator mode, qubit count and
capability flags, with an ``EstimatorConfig(backend=...)`` /
``REPRO_BACKEND`` override that applies wherever the named backend is
capable.  Third-party engines register through
:func:`register_backend` — see ``README.md`` in this directory.
"""

from .base import (
    BackendCapabilities,
    BackendCapabilityError,
    GroupEntry,
    JobResult,
    SimulationBackend,
    SimulationJob,
    run_bound_rows,
)
from .dispatch import BackendDispatcher, DispatchRequest
from .registry import (
    available_backends,
    backend_class,
    create_backend,
    register_backend,
    unregister_backend,
)

# Importing the concrete modules registers the in-tree backends.
from .density import BatchedDensityRunner, DensityMatrixBackend
from .shots import ShotSamplerBackend
from .statevector import StatevectorBackend

__all__ = [
    "BackendCapabilities",
    "BackendCapabilityError",
    "GroupEntry",
    "JobResult",
    "SimulationBackend",
    "SimulationJob",
    "run_bound_rows",
    "BackendDispatcher",
    "DispatchRequest",
    "available_backends",
    "backend_class",
    "create_backend",
    "register_backend",
    "unregister_backend",
    "BatchedDensityRunner",
    "DensityMatrixBackend",
    "ShotSamplerBackend",
    "StatevectorBackend",
]
