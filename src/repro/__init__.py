"""QuantumNAS reproduction: noise-adaptive search for robust quantum circuits.

The package is organised as:

* :mod:`repro.quantum`   — trainable-circuit simulator (TorchQuantum-like engine)
* :mod:`repro.noise`     — noise channels and device noise models
* :mod:`repro.devices`   — synthetic IBMQ-like devices and the shot-based backend
* :mod:`repro.transpile` — layout, routing, basis decomposition, optimization
* :mod:`repro.qml`       — quantum-machine-learning layer (encoders, QNNs, training)
* :mod:`repro.vqe`       — variational-quantum-eigensolver layer (molecules, UCCSD)
* :mod:`repro.core`      — QuantumNAS itself (SuperCircuit, co-search, pruning)
* :mod:`repro.execution` — batched population-evaluation engine for the co-search
* :mod:`repro.backends`  — density-matrix, statevector and shot simulation backends
* :mod:`repro.service`   — multi-tenant co-search service (shared worker pools)
* :mod:`repro.baselines` — human / random / noise-unaware baselines
"""

__version__ = "0.1.0"

from . import (
    backends,
    baselines,
    core,
    devices,
    execution,
    noise,
    qml,
    quantum,
    service,
    transpile,
    utils,
    vqe,
)

__all__ = [
    "backends",
    "baselines",
    "core",
    "devices",
    "execution",
    "noise",
    "qml",
    "quantum",
    "service",
    "transpile",
    "utils",
    "vqe",
    "__version__",
]
