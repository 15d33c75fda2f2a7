"""Batched density-matrix simulation backend (the ``noise_sim`` engine).

This is the in-repo noisy simulator behind the
:class:`~repro.backends.base.SimulationBackend` protocol, and the kernel of
:class:`~repro.devices.backend.QuantumBackend` and of the estimator's
``noise_sim`` seed path, which run each compiled circuit on a fresh runner
as a batch of one.  Every row's result is gate-by-gate Kraus evolution:
after each gate's unitary, the noise model's channels for that gate, as
``sum K rho K^dagger``.  The runner composes them: each position's unitary
conjugation and its channels become one superoperator, and runs of
positions on at most two qubits fold into one block contraction of the
batch (:func:`~repro.quantum.density_matrix.apply_fused_positions`), so
results agree with the gate-by-gate sequence to rounding, not bit for bit.
The dense oracle (``tests/quantum/test_dense_oracle.py``) pins that
agreement.

The runner simulates one batch type: the rows of one reduced structure
(the same gates on the same qubits at every position) over one register of
used physical qubits, held as reduced slots in the
:class:`~repro.transpile.parametric.TemplateBatchBinding` format — a shared
:class:`Instruction` where every row has the same parameters, a
``(gate, reduced_qubits, (rows, k) angles)`` triple otherwise — plus one
final layout per row.

* A template binding is one batch as it stands: its angle columns come out
  of the template's array bind, so the ``noise_sim`` hot loop never
  constructs per-sample ``Instruction`` objects at all.
* Compiled circuits are deduplicated by object identity and grouped by
  reduced structure when the runner runs; each group becomes one batch.

A batch evolves as ``(batch,) + (2,) * 2n`` stacks.  In each stack a slot
whose angles agree on every row applies one shared matrix; the others
apply one ``(rows, d, d)`` stack from the gate registry's batched table
(:func:`~repro.quantum.gates.batched_gate_matrix`).  Noise channels depend
only on gate arity and qubits, never on parameters, so the runner composes
each position's channels once per ``(used physical qubits, gate qubits)``
for its lifetime.  A register above ``max_density_qubits`` is not evolved:
each row takes the success-rate approximation of its reduced circuit,
rebuilt from the slots, without readout confusion.

Readout is one pass per batch, computed lazily and per quantity: the
diagonals, readout confusion per qubit across the batch axis, one
marginalization onto the logical qubits per distinct final layout, and
every qubit's Z expectation from its marginal.  One row handle type serves
every row of either source; its ``probabilities``, ``logical_probabilities``
and ``logical_z_expectations`` are views of its batch's arrays, so the
engines' scores, the gradient engine's rows and the device backend's batch
of one read the same readout.  Every row equals the per-row composition of
``density_probabilities``, ``NoiseModel.apply_readout_error``,
``logical_probabilities`` and ``expectation_z_all_from_probabilities`` bit
for bit, except a one-qubit register's, which agrees to 1e-15 (its per-row
confusion is a BLAS matrix-vector product).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..devices.backend import approximate_probabilities
from ..quantum.circuit import Instruction, QuantumCircuit
from ..quantum.density_matrix import (
    apply_fused_positions,
    channel_superoperator,
    expectation_pauli_sum_dm,
    zero_density_matrices,
)
from ..quantum.gates import batched_gate_matrix, gate_matrix
from .base import (
    BackendCapabilityError,
    JobResult,
    SimulationBackend,
    SimulationJob,
)

__all__ = [
    "BatchedDensityRunner",
    "DensityMatrixBackend",
]


class _Batch:
    """Rows of one reduced structure: the runner's one unit of simulation.

    Its readout is computed once per batch, lazily and per quantity: the
    reduced-register probabilities (:meth:`probabilities`), their marginals
    onto the logical qubits (:meth:`logical_probabilities`) and the logical
    Z expectations (:meth:`z_expectations`), each a ``(rows, ...)`` array
    that every row handle reads its row of.  Each step repeats the per-row
    functions' arithmetic with a leading batch axis: ``density_probabilities``,
    ``NoiseModel.apply_readout_error``, ``logical_probabilities`` and
    ``expectation_z_all_from_probabilities`` stay the reference.
    """

    __slots__ = (
        "used_qubits", "slots", "final_layouts", "from_template",
        "noise_model", "rhos", "approximate", "_probabilities", "_logical",
        "_z",
    )

    def __init__(self, used_qubits, slots, final_layouts, from_template) -> None:
        self.used_qubits = tuple(used_qubits)
        self.slots = slots
        self.final_layouts = final_layouts
        self.from_template = from_template
        self.noise_model = None
        #: ``(rows,) + (2,) * 2n`` density matrices once evolved
        self.rhos: Optional[np.ndarray] = None
        #: per-row success-rate probabilities of an oversized register
        self.approximate: Optional[List[np.ndarray]] = None
        self._probabilities: Optional[np.ndarray] = None
        self._logical: Dict[int, np.ndarray] = {}
        self._z: Dict[int, np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        return len(self.final_layouts)

    @property
    def n_reduced(self) -> int:
        return max(len(self.used_qubits), 1)

    def reduced_circuit(self, row: int) -> QuantumCircuit:
        """Row ``row``'s reduced circuit, rebuilt from the slots."""
        return QuantumCircuit(self.n_reduced, [
            slot if type(slot) is Instruction
            else Instruction(slot[0], slot[1], slot[2][row])
            for slot in self.slots
        ])

    # -- readout -------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Every row's reduced-register probabilities, readout confusion
        applied across the batch axis: a ``(rows, 2**n)`` array."""
        if self._probabilities is None:
            if self.rhos is None:
                # large-circuit approximation: no readout confusion
                self._probabilities = np.stack(self.approximate)
            else:
                self._probabilities = self.noise_model.apply_readout_error(
                    _diagonals(self.rhos), self.n_reduced
                )
        return self._probabilities

    def logical_probabilities(self, n_logical: int) -> np.ndarray:
        """Every row's probabilities over ``n_logical`` logical qubits: one
        marginalization per distinct final layout."""
        n_logical = int(n_logical)
        if n_logical not in self._logical:
            probs = self.probabilities()
            groups: Dict[Tuple[int, ...], List[int]] = {}
            for row, layout in enumerate(self.final_layouts):
                physical = tuple(layout[q] for q in range(n_logical))
                groups.setdefault(physical, []).append(row)
            if len(groups) == 1:  # every template batch, every batch of one
                (physical,) = groups
                out = _marginals(probs, physical, self.used_qubits)
            else:
                out = np.empty((self.n_rows, 2**n_logical))
                for physical, rows in groups.items():
                    out[rows] = _marginals(probs[rows], physical, self.used_qubits)
            self._logical[n_logical] = out
        return self._logical[n_logical]

    def z_expectations(self, n_logical: int) -> np.ndarray:
        """Every row's per-logical-qubit Z expectations, ``(rows, n)``: each
        qubit's marginal difference ``p(0) - p(1)``, over the whole batch."""
        n_logical = int(n_logical)
        if n_logical not in self._z:
            probs = self.logical_probabilities(n_logical).reshape(
                (self.n_rows,) + (2,) * n_logical
            )
            z = np.empty((self.n_rows, n_logical))
            for qubit in range(n_logical):
                marginal = probs.sum(axis=tuple(
                    axis + 1 for axis in range(n_logical) if axis != qubit
                ))
                z[:, qubit] = marginal[:, 0] - marginal[:, 1]
            self._z[n_logical] = z
        return self._z[n_logical]


def _diagonals(rhos: np.ndarray) -> np.ndarray:
    """:func:`density_probabilities` of every matrix of a ``(rows,) +
    (2,) * 2n`` stack: a ``(rows, 2**n)`` array."""
    rows = rhos.shape[0]
    dim = 2 ** ((rhos.ndim - 1) // 2)
    probs = np.real(np.diagonal(rhos.reshape(rows, dim, dim), axis1=1, axis2=2))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=1, keepdims=True)
    np.divide(probs, total, out=probs, where=total > 0)
    return probs


def _marginals(probs: np.ndarray, physical, used_physical) -> np.ndarray:
    """:func:`logical_probabilities` of every row of a ``(rows, 2**k)`` stack
    whose rows map logical qubit ``i`` to physical qubit ``physical[i]``."""
    rows, k = probs.shape[0], len(used_physical)
    probs = probs.reshape((rows,) + (2,) * k)
    reduced = {phys: i for i, phys in enumerate(used_physical)}
    keep = [reduced[phys] for phys in physical]
    drop = tuple(axis for axis in range(k) if axis not in keep)
    marginal = probs.sum(axis=tuple(axis + 1 for axis in drop)) if drop else probs
    remaining = [axis for axis in range(k) if axis not in drop]
    order = [remaining.index(axis) + 1 for axis in keep]
    flat = np.transpose(marginal, [0] + order).reshape(rows, -1)
    total = flat.sum(axis=1, keepdims=True)
    return np.divide(flat, total, out=flat.copy(), where=total > 0)


def _compiled_batch(used_qubits, members) -> _Batch:
    """One batch of compiled circuits sharing a reduced structure.

    A position whose parameters agree on every row keeps the first row's
    instruction; the others stack their parameters.  ``members`` are
    ``(compiled, row handle)`` pairs; each handle is pointed at its row.
    """
    columns = zip(*(
        compiled.reduced_circuit()[0].instructions for compiled, _ in members
    ))
    slots = []
    for column in columns:
        first = column[0]
        if all(inst.params == first.params for inst in column):
            slots.append(first)
        else:
            params = np.array([inst.params for inst in column])
            slots.append((first.gate, first.qubits, params))
    batch = _Batch(
        used_qubits, slots, [compiled.final_layout for compiled, _ in members],
        from_template=False,
    )
    for position, (_compiled, row) in enumerate(members):
        row.batch, row.position = batch, position
    return batch


class _Row(JobResult):
    """One row of a density batch: the runner's one result handle, a view
    of its batch's readout."""

    __slots__ = ("batch", "position")

    def __init__(self, batch: Optional[_Batch] = None, position: int = 0) -> None:
        self.batch = batch
        self.position = position

    def probabilities(self) -> np.ndarray:
        """Reduced-register probabilities, readout confusion applied."""
        return self.batch.probabilities()[self.position]

    def logical_probabilities(self, n_logical: int) -> np.ndarray:
        return self.batch.logical_probabilities(n_logical)[self.position]

    def logical_z_expectations(self, n_logical: int) -> np.ndarray:
        """Per-logical-qubit Z expectations, matching ``BackendResult``."""
        return self.batch.z_expectations(n_logical)[self.position]

    def pauli_expectation(self, observable) -> float:
        """Expectation of an observable already remapped onto the reduced
        register (see ``PerformanceEstimator.remap_hamiltonian``)."""
        if self.batch.rhos is None:
            raise BackendCapabilityError(
                "the register exceeds max_density_qubits: the row carries "
                "approximate probabilities only, not a density matrix"
            )
        return expectation_pauli_sum_dm(self.batch.rhos[self.position], observable)


class BatchedDensityRunner:
    """Simulates rows batched by reduced structure.

    Equivalence contract: every row's result applies each gate's unitary
    and then the noise model's Kraus channels for that gate, composed into
    fused blocks (:func:`apply_fused_positions`), so it agrees with
    gate-by-gate ``sum K rho K^dagger`` evolution to rounding; the dense
    oracle pins that at 1e-10.  Noise channels depend on gate arity and
    qubits (never parameters), so their composed superoperator is memoized
    per ``(used_physical, qubits)`` for the runner's lifetime: one
    population under one device noise model, or one circuit of the device
    backend or of the estimator's seed path.  The runner keeps every row it
    simulated, so it lives no longer than the rows it serves.
    """

    #: soft cap on (batch * 4**n) elements of one density-matrix stack
    MAX_STACK_ELEMENTS = 1 << 21

    def __init__(self, device, max_density_qubits: int) -> None:
        self.device = device
        self.max_density_qubits = int(max_density_qubits)
        self._noise_model = None
        #: id(compiled) -> (compiled, row); the reference keeps the id unique
        self._compiled: Dict[int, Tuple[object, _Row]] = {}
        self._pending_compiled: List[Tuple[object, _Row]] = []
        self._pending: List[_Batch] = []
        # (used_physical, qubits) -> composed channel superoperator or None
        self._channel_superops: Dict[Tuple, Optional[np.ndarray]] = {}
        self.batches_run = 0
        self.template_batches_run = 0

    def submit(self, compiled) -> _Row:
        """The row of one compiled circuit (deduplicated by identity); its
        batch forms at :meth:`run` with the circuits of its structure."""
        entry = self._compiled.get(id(compiled))
        if entry is None:
            entry = (compiled, _Row())
            self._compiled[id(compiled)] = entry
            self._pending_compiled.append(entry)
        return entry[1]

    def submit_template(self, binding) -> List[_Row]:
        """One batch for a template binding; one row handle per row."""
        batch = _Batch(
            binding.used_qubits, binding.slots,
            [binding.final_layout] * binding.n_rows, from_template=True,
        )
        self._pending.append(batch)
        return [_Row(batch, position) for position in range(binding.n_rows)]

    # -- execution -----------------------------------------------------------

    def _device_noise_model(self):
        if self._noise_model is None:
            self._noise_model = self.device.noise_model()
        return self._noise_model

    def run(self) -> None:
        """Simulate every row submitted since the last run."""
        groups: "OrderedDict[Tuple, List[Tuple[object, _Row]]]" = OrderedDict()
        for compiled, row in self._pending_compiled:
            reduced, used_physical = compiled.reduced_circuit()
            key = (
                tuple(used_physical),
                tuple((inst.gate, inst.qubits) for inst in reduced.instructions),
            )
            groups.setdefault(key, []).append((compiled, row))
        batches = [
            _compiled_batch(used_physical, members)
            for (used_physical, _structure), members in groups.items()
        ] + self._pending
        self._pending_compiled, self._pending = [], []
        for batch in batches:
            self._simulate(batch)

    def _simulate(self, batch: _Batch) -> None:
        """Evolve one batch, in stacks of at most ``MAX_STACK_ELEMENTS``, or
        approximate it when its register exceeds ``max_density_qubits``."""
        noise_model = self._device_noise_model().reduced(batch.used_qubits)
        batch.noise_model = noise_model
        n = batch.n_reduced
        if n > self.max_density_qubits:
            # success-rate (global depolarizing) approximation
            batch.approximate = [
                approximate_probabilities(batch.reduced_circuit(row), noise_model)
                for row in range(batch.n_rows)
            ]
            return
        max_batch = max(1, self.MAX_STACK_ELEMENTS // 4**n)
        chunks: List[np.ndarray] = []
        for start in range(0, batch.n_rows, max_batch):
            stop = min(start + max_batch, batch.n_rows)
            self.batches_run += 1
            if batch.from_template:
                self.template_batches_run += 1
            chunks.append(apply_fused_positions(
                zero_density_matrices(n, stop - start),
                self._positions(batch, noise_model, start, stop),
            ))
        batch.rhos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _positions(self, batch: _Batch, noise_model, start: int, stop: int):
        """``(matrix, qubits, channel)`` per slot for rows ``start:stop``."""
        for slot in batch.slots:
            if type(slot) is Instruction:
                qubits, matrix = slot.qubits, slot.matrix()
            else:
                gate, qubits, rows = slot
                chunk = rows[start:stop]
                if (chunk == chunk[0]).all():
                    matrix = gate_matrix(gate, chunk[0])
                else:
                    matrix = batched_gate_matrix(gate, chunk)
            yield matrix, qubits, self._channels(
                batch.used_qubits, noise_model, qubits
            )

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


class DensityMatrixBackend(SimulationBackend):
    """The ``noise_sim`` backend: batched density matrices."""

    name = "density"

    def __init__(self, estimator) -> None:
        super().__init__(estimator)
        self.runner = BatchedDensityRunner(
            estimator.device, estimator.config.max_density_qubits
        )

    def run_group(self, entry, jobs: List[SimulationJob]) -> List[JobResult]:
        handles: List[JobResult] = []
        for job in jobs:
            if job.template_batch is not None:
                handles.extend(self.runner.submit_template(job.template_batch))
            else:
                handles.append(self.runner.submit(job.compiled))
        return handles

    def synchronize(self) -> None:
        self.runner.run()

    def stats_delta(self) -> Dict[str, int]:
        return {
            "density_batches": self.runner.batches_run,
            "template_batches": self.runner.template_batches_run,
        }
