"""A shot-based quantum backend wrapping the noisy simulator.

This plays the role of "running on the real quantum computer" everywhere the
paper does so: finite shots, the device's live noise model, and the compiled
(routed + decomposed) physical circuit.  It differs from the performance
estimator in exactly the ways the real machine differs in the paper — the
estimator uses inherited parameters and a (possibly stale) calibration
snapshot, the backend runs the concrete compiled circuit with sampling noise.

Every compiled circuit is simulated on the fused density kernel the
population engines use, :class:`~repro.backends.density.BatchedDensityRunner`,
as a batch of one; the runner applies readout confusion and falls back to the
success-rate approximation (:func:`approximate_probabilities`) for registers
above ``max_density_qubits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..noise.models import NoiseModel
from ..quantum.circuit import QuantumCircuit
from ..quantum.measurement import (
    expectation_z_all_from_probabilities,
    expectation_z_from_probabilities,
    sample_counts,
)
from ..quantum.statevector import probabilities as sv_probabilities
from ..quantum.statevector import run_circuit, zero_state
from ..transpile.compiler import CompiledCircuit, transpile
from ..utils.rng import ensure_rng
from .library import Device

__all__ = [
    "BackendResult",
    "QuantumBackend",
    "approximate_probabilities",
    "logical_probabilities",
]


def approximate_probabilities(
    reduced: QuantumCircuit, noise_model: NoiseModel
) -> np.ndarray:
    """Success-rate (global depolarizing) approximation for large circuits.

    The density runner's fallback beyond the density-matrix regime, so every
    noisy path (the engines, this module's backend and the estimator's seed
    path, which all simulate on the runner) falls back identically.
    """
    states = run_circuit(reduced, states=zero_state(reduced.n_qubits, 1))
    ideal = sv_probabilities(states)[0]
    rate = noise_model.circuit_success_rate(reduced)
    uniform = np.full_like(ideal, 1.0 / ideal.size)
    return rate * ideal + (1.0 - rate) * uniform


def logical_probabilities(
    reduced_probs: np.ndarray,
    final_layout,
    used_physical: Sequence[int],
    n_logical: int,
) -> np.ndarray:
    """Marginalize/reorder reduced-register probabilities onto logical qubits.

    ``final_layout`` maps logical qubits to physical ones — either the dict
    itself or any object exposing one as ``.final_layout`` (a
    :class:`~repro.transpile.compiler.CompiledCircuit`, a parametric
    template).  Every density row maps its outcomes through it, so the
    engines, this module's backend and the estimator's seed path map
    physical measurement outcomes identically.
    """
    if not isinstance(final_layout, dict):
        final_layout = final_layout.final_layout
    k = len(used_physical)
    probs = np.asarray(reduced_probs, dtype=float).reshape((2,) * k)
    physical_to_reduced = {phys: i for i, phys in enumerate(used_physical)}
    logical_axes = []
    for logical in range(n_logical):
        physical = final_layout[logical]
        logical_axes.append(physical_to_reduced[physical])
    # Sum out every reduced axis that does not carry a logical qubit, then
    # order the remaining axes logically.
    keep = logical_axes
    drop = tuple(a for a in range(k) if a not in keep)
    marginal = probs.sum(axis=drop) if drop else probs
    # After dropping, remaining axes appear in increasing reduced order.
    remaining = [a for a in range(k) if a not in drop]
    order = [remaining.index(a) for a in keep]
    marginal = np.transpose(marginal, axes=order)
    flat = marginal.reshape(-1)
    total = flat.sum()
    return flat / total if total > 0 else flat


@dataclass
class BackendResult:
    """Measurement results of one backend execution."""

    probabilities: np.ndarray          # over the logical register, length 2**n_logical
    n_logical: int
    shots: int
    compiled: CompiledCircuit
    estimated_runtime_seconds: float

    def expectation_z(self, qubit: int) -> float:
        return expectation_z_from_probabilities(
            self.probabilities, qubit, self.n_logical
        )

    def expectation_z_all(self) -> np.ndarray:
        return expectation_z_all_from_probabilities(
            self.probabilities, self.n_logical
        )


class QuantumBackend:
    """Compile-and-run interface to a (synthetic) quantum computer."""

    def __init__(
        self,
        device: Device,
        shots: int = 8192,
        seed: Optional[int] = None,
        max_density_qubits: int = 10,
        queue_delay_seconds: float = 0.0,
        transpile_cache=None,
        parametric_cache=None,
    ) -> None:
        self.device = device
        self.shots = int(shots)
        self.rng = ensure_rng(seed)
        #: circuit sizes above this threshold switch from full density-matrix
        #: simulation to the global-depolarizing success-rate approximation,
        #: mirroring the paper's small-circuit / large-circuit estimator split.
        self.max_density_qubits = int(max_density_qubits)
        self.queue_delay_seconds = float(queue_delay_seconds)
        #: optional warm-start caches (repro.execution.cache), typically the
        #: search estimator's instances handed down by the pipeline so the
        #: deploy/evaluate stage reuses co-search compilations.  ``None``
        #: preserves the historical compile-per-run behavior exactly.
        self.transpile_cache = transpile_cache
        self.parametric_cache = parametric_cache
        self._executions = 0

    @property
    def executions(self) -> int:
        """Number of circuits executed so far (the paper's #QC runs budget)."""
        return self._executions

    def reseed(self, seed) -> None:
        """Pin the shot-sampling rng stream to ``seed``.

        Used wherever determinism must not depend on execution order: the
        sharded scheduler pins each worker's stream per shard task, and the
        shot-sampler simulation backend pins a stream per job so shot-based
        gradient rows are bit-for-bit independent of sharding and worker
        count.
        """
        self.rng = ensure_rng(seed)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        initial_layout=None,
        optimization_level: int = 2,
        shots: Optional[int] = None,
    ) -> BackendResult:
        """Transpile and execute a logical circuit, measuring all qubits."""
        if self.transpile_cache is not None:
            compiled = self.transpile_cache.get(
                circuit,
                self.device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
            )
        else:
            compiled = transpile(
                circuit,
                self.device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
            )
        return self.run_compiled(compiled, n_logical=circuit.n_qubits, shots=shots)

    def run_parameterized(
        self,
        circuit,
        weights,
        features_row=None,
        initial_layout=None,
        optimization_level: int = 2,
        shots: Optional[int] = None,
    ) -> BackendResult:
        """Bind and execute a :class:`ParameterizedCircuit` for one sample.

        With a :class:`~repro.execution.ParametricTranspileCache` attached,
        the circuit structure is compiled once and each sample is an
        O(params) template bind — this is what makes the deploy/evaluate
        stage (hundreds of samples, one structure) transpile-cheap.  Without
        caches it is exactly ``run(circuit.bind(weights, features_row))``.
        """
        if self.parametric_cache is not None:
            compiled = self.parametric_cache.get_bound(
                circuit,
                weights,
                features_row,
                self.device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
            )
            return self.run_compiled(
                compiled, n_logical=circuit.n_qubits, shots=shots
            )
        bound = (
            circuit.bind(weights, features_row)
            if features_row is not None
            else circuit.bind(weights)
        )
        return self.run(
            bound,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            shots=shots,
        )

    def run_compiled(
        self,
        compiled: CompiledCircuit,
        n_logical: int,
        shots: Optional[int] = None,
    ) -> BackendResult:
        """Execute an already-compiled circuit.

        The circuit runs as a batch of one on a fresh
        :class:`~repro.backends.density.BatchedDensityRunner` that lives only
        for this call, since a runner keeps every row it simulated.
        """
        # imported here: repro.backends imports this module
        from ..backends.density import BatchedDensityRunner

        shots = self.shots if shots is None else int(shots)
        runner = BatchedDensityRunner(self.device, self.max_density_qubits)
        row = runner.submit(compiled)
        runner.run()
        logical_probs = row.logical_probabilities(n_logical)
        if shots > 0:
            counts = sample_counts(logical_probs, shots, self.rng)
            logical_probs = counts / counts.sum()
        self._executions += 1
        runtime = self.queue_delay_seconds + shots * 5e-4
        return BackendResult(
            probabilities=logical_probs,
            n_logical=n_logical,
            shots=shots,
            compiled=compiled,
            estimated_runtime_seconds=runtime,
        )

    def record_executions(self, n: int = 1) -> None:
        """Count circuits executed on the backend's behalf by external engines.

        The batched population engine simulates compiled circuits itself but
        still charges them to the backend, so the paper's #QC-runs budget
        (:attr:`executions`) stays comparable with the seed path, which runs
        each circuit through :meth:`run`.
        """
        self._executions += int(n)
