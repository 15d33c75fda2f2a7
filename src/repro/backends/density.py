"""Batched density-matrix simulation backend (the ``noise_sim`` engine).

This is the in-repo noisy simulator behind the
:class:`~repro.backends.base.SimulationBackend` protocol.  Every job's
result applies the same unitaries and noise channels that
:class:`~repro.quantum.density_matrix.DensityMatrixSimulator` would apply
sample by sample, composed: each position's unitary conjugation and its
channels become one superoperator, and runs of positions on at most two
qubits fold into one block contraction of the batch
(:func:`~repro.quantum.density_matrix.apply_fused_positions`).  Results
agree with the sample-by-sample simulator to rounding, not bit for bit;
the simulator stays the reference.

Two job shapes are supported:

* ``compiled`` jobs — one :class:`CompiledCircuit` each, deduplicated by
  object identity and grouped by reduced-circuit structure (same gates and
  qubits at every position) so a whole group evolves as one
  ``(batch,) + (2,) * 2n`` stack.  Noise channels depend only on gate arity
  and qubits, never on parameters, so the runner composes each position's
  channels once per ``(used physical qubits, gate qubits)`` for its
  lifetime.

* ``template_batch`` jobs — one
  :class:`~repro.transpile.parametric.TemplateBatchBinding` covering many
  parameter rows of one compiled structure.  The rows are already
  structurally aligned by construction, each parametric slot's angles arrive
  as a dense ``(rows, k)`` array out of the template's single affine matmul,
  and the gate registry's batched table
  (:func:`~repro.quantum.gates.batched_gate_matrix`) turns those angle
  columns into the per-position ``(rows, d, d)`` matrices — the
  ``noise_sim`` hot loop never constructs per-sample ``Instruction`` objects
  at all.

On both paths a position whose parameters agree on every row applies one
shared matrix; the others stack their parameters into one
``(rows, n_params)`` array for the batched table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.backend import approximate_probabilities, logical_probabilities
from ..quantum.circuit import Instruction
from ..quantum.density_matrix import (
    apply_fused_positions,
    channel_superoperator,
    density_probabilities,
    expectation_pauli_sum_dm,
    zero_density_matrices,
)
from ..quantum.gates import batched_gate_matrix, gate_matrix
from ..quantum.measurement import expectation_z_all_from_probabilities
from .base import (
    BackendCapabilities,
    JobResult,
    SimulationBackend,
    SimulationJob,
)
from .registry import register_backend

__all__ = [
    "DensityJob",
    "TemplateBatchJob",
    "BatchedDensityRunner",
    "DensityMatrixBackend",
]


class DensityJob(JobResult):
    """One unique compiled circuit awaiting noisy simulation."""

    __slots__ = (
        "compiled", "reduced", "used_physical", "noise_model", "rho",
        "reduced_probs", "_probs_with_readout", "_logical_expectations",
    )

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self.reduced, self.used_physical = compiled.reduced_circuit()
        self.noise_model = None
        self.rho: Optional[np.ndarray] = None
        self.reduced_probs: Optional[np.ndarray] = None
        self._probs_with_readout: Optional[np.ndarray] = None
        self._logical_expectations: Dict[int, np.ndarray] = {}

    @property
    def n_reduced(self) -> int:
        return self.reduced.n_qubits

    def probabilities(self) -> np.ndarray:
        """Reduced-register probabilities, matching the shot-based backend."""
        if self._probs_with_readout is None:
            if self.reduced_probs is not None:
                # large-circuit approximation — no readout confusion, exactly
                # like QuantumBackend.run_compiled
                self._probs_with_readout = self.reduced_probs
            else:
                probs = density_probabilities(self.rho)
                if self.noise_model is not None:
                    probs = self.noise_model.apply_readout_error(
                        probs, self.n_reduced
                    )
                self._probs_with_readout = probs
        return self._probs_with_readout

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        """Per-logical-qubit Z expectations, matching ``BackendResult``."""
        n_logical = int(n_logical)
        if n_logical not in self._logical_expectations:
            probs = logical_probabilities(
                self.probabilities(), self.compiled, self.used_physical, n_logical
            )
            self._logical_expectations[n_logical] = (
                expectation_z_all_from_probabilities(probs, n_logical)
            )
        return self._logical_expectations[n_logical]

    def pauli_expectation(self, observable) -> float:
        """Expectation of an observable already remapped onto the reduced
        register (see ``PerformanceEstimator.remap_hamiltonian``)."""
        return expectation_pauli_sum_dm(self.rho, observable)


class _TemplateRowResult(JobResult):
    """One row of a simulated template batch."""

    __slots__ = ("batch", "position")

    def __init__(self, batch: "TemplateBatchJob", position: int) -> None:
        self.batch = batch
        self.position = position

    def probabilities(self) -> np.ndarray:
        return self.batch.row_probabilities(self.position)

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        return self.batch.row_logical_z_expectations(self.position, n_logical)

    def pauli_expectation(self, observable) -> float:
        return expectation_pauli_sum_dm(
            self.batch.rhos[self.position], observable
        )


class TemplateBatchJob:
    """One vectorized template binding awaiting batched noisy simulation."""

    def __init__(self, binding) -> None:
        self.binding = binding
        self.noise_model = None
        self.rhos: Optional[np.ndarray] = None
        self._probs: Dict[int, np.ndarray] = {}
        self._expectations: Dict[Tuple[int, int], np.ndarray] = {}

    @property
    def n_reduced(self) -> int:
        return self.binding.n_reduced

    def handles(self) -> List[_TemplateRowResult]:
        return [_TemplateRowResult(self, i) for i in range(self.binding.n_rows)]

    def row_probabilities(self, position: int) -> np.ndarray:
        if position not in self._probs:
            probs = density_probabilities(self.rhos[position])
            if self.noise_model is not None:
                probs = self.noise_model.apply_readout_error(
                    probs, self.n_reduced
                )
            self._probs[position] = probs
        return self._probs[position]

    def row_logical_z_expectations(
        self, position: int, n_logical: int
    ) -> np.ndarray:
        key = (position, int(n_logical))
        if key not in self._expectations:
            probs = logical_probabilities(
                self.row_probabilities(position),
                self.binding.final_layout,
                self.binding.used_qubits,
                n_logical,
            )
            self._expectations[key] = expectation_z_all_from_probabilities(
                probs, int(n_logical)
            )
        return self._expectations[key]


class BatchedDensityRunner:
    """Groups compiled circuits by structure and simulates each group batched.

    Equivalence contract: every job's result applies the same unitaries and
    noise channels that :class:`DensityMatrixSimulator` would apply
    sample by sample, composed into fused blocks
    (:func:`apply_fused_positions`), so the two agree to rounding.  Noise
    channels depend on gate arity and qubits (never parameters), so their
    composed superoperator is memoized per ``(used_physical, qubits)`` for
    the runner's lifetime: one population under one device noise model.
    """

    #: soft cap on (batch * 4**n) elements of one density-matrix stack
    MAX_STACK_ELEMENTS = 1 << 21

    def __init__(self, device, max_density_qubits: int) -> None:
        self.device = device
        self.max_density_qubits = int(max_density_qubits)
        self._noise_model = None
        self._jobs: Dict[int, DensityJob] = {}       # id(compiled) -> job
        self._pending: "OrderedDict[int, DensityJob]" = OrderedDict()
        self._pending_templates: List[TemplateBatchJob] = []
        # (used_physical, qubits) -> composed channel superoperator or None
        self._channel_superops: Dict[Tuple, Optional[np.ndarray]] = {}
        self.batches_run = 0
        self.template_batches_run = 0

    def job_for(self, compiled) -> DensityJob:
        """The (deduplicated) job for a compiled circuit."""
        job = self._jobs.get(id(compiled))
        if job is None:
            job = DensityJob(compiled)
            self._jobs[id(compiled)] = job
        return job

    def enqueue(self, job: DensityJob) -> DensityJob:
        self._pending.setdefault(id(job.compiled), job)
        return job

    def submit(self, compiled) -> DensityJob:
        return self.enqueue(self.job_for(compiled))

    def submit_template(self, binding) -> TemplateBatchJob:
        """Schedule a vectorized template binding (rows already aligned)."""
        if binding.n_reduced > self.max_density_qubits:
            # callers route oversized structures through per-row compiled
            # jobs, whose large-circuit approximation needs the concrete
            # reduced circuits a template batch deliberately never builds
            raise ValueError(
                "template batch exceeds max_density_qubits "
                f"({binding.n_reduced} > {self.max_density_qubits})"
            )
        job = TemplateBatchJob(binding)
        self._pending_templates.append(job)
        return job

    # -- execution -----------------------------------------------------------

    def _device_noise_model(self):
        if self._noise_model is None:
            self._noise_model = self.device.noise_model()
        return self._noise_model

    def run(self) -> None:
        """Simulate all pending jobs, batched by reduced-circuit structure."""
        groups: "OrderedDict[Tuple, List[DensityJob]]" = OrderedDict()
        for job in self._pending.values():
            if job.rho is not None or job.reduced_probs is not None:
                continue
            key = (
                tuple(job.used_physical),
                tuple(
                    (inst.gate, inst.qubits) for inst in job.reduced.instructions
                ),
            )
            groups.setdefault(key, []).append(job)
        self._pending.clear()

        for (used_physical, _structure), jobs in groups.items():
            noise_model = self._device_noise_model().reduced(used_physical)
            n_reduced = jobs[0].n_reduced
            if n_reduced > self.max_density_qubits:
                # success-rate (global depolarizing) approximation, exactly as
                # QuantumBackend falls back for large circuits
                for job in jobs:
                    job.noise_model = noise_model
                    job.reduced_probs = approximate_probabilities(
                        job.reduced, noise_model
                    )
                continue
            max_batch = max(1, self.MAX_STACK_ELEMENTS // 4**n_reduced)
            for start in range(0, len(jobs), max_batch):
                self._run_group(jobs[start: start + max_batch], noise_model)

        templates, self._pending_templates = self._pending_templates, []
        for job in templates:
            if job.rhos is None:
                self._run_template(job)

    def _channels(self, used_physical, noise_model, qubits) -> Optional[np.ndarray]:
        """The memoized composed channel superoperator after a gate on
        ``qubits`` of the register ``used_physical`` reduces to."""
        key = (used_physical, qubits)
        if key not in self._channel_superops:
            self._channel_superops[key] = self._compose_channels(
                noise_model, qubits
            )
        return self._channel_superops[key]

    def _compose_channels(self, noise_model, qubits) -> Optional[np.ndarray]:
        # channels_for reads only the arity and qubits of an instruction, so
        # any gate of that arity stands for every gate on these qubits
        probe = Instruction("x" if len(qubits) == 1 else "cx", qubits)
        return channel_superoperator(noise_model.channels_for(probe), qubits)

    def _run_group(self, jobs: Sequence[DensityJob], noise_model) -> None:
        self.batches_run += 1
        used_physical = tuple(jobs[0].used_physical)

        def positions():
            for position, first in enumerate(jobs[0].reduced.instructions):
                instructions = [job.reduced.instructions[position] for job in jobs]
                if all(inst.params == first.params for inst in instructions):
                    matrix = first.matrix()
                else:
                    matrix = batched_gate_matrix(
                        first.gate, np.array([inst.params for inst in instructions])
                    )
                channel = self._channels(used_physical, noise_model, first.qubits)
                yield matrix, first.qubits, channel

        rhos = apply_fused_positions(
            zero_density_matrices(jobs[0].n_reduced, len(jobs)), positions()
        )
        for index, job in enumerate(jobs):
            job.noise_model = noise_model
            job.rho = rhos[index]

    def _run_template(self, job: TemplateBatchJob) -> None:
        """Evolve one template batch: shared skeleton, per-slot angle arrays."""
        binding = job.binding
        used_physical = tuple(binding.used_qubits)
        noise_model = self._device_noise_model().reduced(used_physical)
        job.noise_model = noise_model
        n = job.n_reduced
        n_rows = binding.n_rows
        max_batch = max(1, self.MAX_STACK_ELEMENTS // 4**n)

        def positions(start, stop):
            for slot in binding.slots:
                if type(slot) is Instruction:
                    qubits, matrix = slot.qubits, slot.matrix()
                else:
                    gate, qubits, rows = slot
                    chunk = rows[start:stop]
                    if (chunk == chunk[0]).all():
                        matrix = gate_matrix(gate, chunk[0])
                    else:
                        matrix = batched_gate_matrix(gate, chunk)
                channel = self._channels(used_physical, noise_model, qubits)
                yield matrix, qubits, channel

        chunks: List[np.ndarray] = []
        for start in range(0, n_rows, max_batch):
            stop = min(start + max_batch, n_rows)
            self.batches_run += 1
            self.template_batches_run += 1
            chunks.append(apply_fused_positions(
                zero_density_matrices(n, stop - start), positions(start, stop)
            ))
        job.rhos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


@register_backend
class DensityMatrixBackend(SimulationBackend):
    """The default ``noise_sim`` backend: batched density matrices."""

    name = "density"
    capabilities = BackendCapabilities(
        noisy=True,
        noise_free=False,
        shot_based=False,
        observables=True,
        batched=True,
        max_qubits=None,  # oversized registers use the success-rate fallback
    )

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        self.runner = BatchedDensityRunner(
            estimator.device, estimator.config.max_density_qubits
        )

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        self.groups_run += 1
        handles: List[JobResult] = []
        for job in jobs:
            if job.template_batch is not None:
                batch = self.runner.submit_template(job.template_batch)
                handles.extend(batch.handles())
                self.jobs_run += batch.binding.n_rows
            else:
                handles.append(self.runner.submit(job.compiled))
                self.jobs_run += 1
        return handles

    def synchronize(self) -> None:
        self.runner.run()

    def stats_delta(self) -> Dict[str, int]:
        return {
            "density_batches": self.runner.batches_run,
            "template_batches": self.runner.template_batches_run,
        }
