"""Regression guards: the density backend contracts the state once per block.

Each position's unitary and noise channels compose into one superoperator,
and positions fold into blocks of at most two qubits before they touch the
batch (``apply_fused_positions``).  A new block opens only at a two-qubit
position, and what is left at the end is at most one single-qubit map per
qubit, so a circuit costs at most (its two-qubit positions + its reduced
width) full-state contractions however many single-qubit gates and noise
channels it has, and a template batch costs the same at any row count.
The counts are deterministic: no timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.density import BatchedDensityRunner
from repro.core import (
    EvolutionConfig,
    EvolutionEngine,
    SuperCircuit,
    get_design_space,
)
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.execution.cache import ParametricTranspileCache
from repro.quantum import density_matrix
from repro.quantum.circuit import Instruction
from repro.vqe.molecules import load_molecule


@pytest.fixture()
def contractions(monkeypatch):
    """Count contractions of a full ``(batch,) + (2,) * 2n`` density stack."""
    calls = {"full": 0}
    contract = density_matrix._apply_front_matrix

    def counting(tensor, operator, axes):
        if all(size == 2 for size in tensor.shape[1:]):
            calls["full"] += 1
        return contract(tensor, operator, axes)

    monkeypatch.setattr(density_matrix, "_apply_front_matrix", counting)
    return calls


def two_qubit_positions(slots):
    return sum(
        len(slot.qubits if type(slot) is Instruction else slot[1]) == 2
        for slot in slots
    )


def test_vqe_population_contracts_once_per_block(contractions, monkeypatch):
    """LiH on jakarta, the population of the backend equivalence suite."""
    molecule = load_molecule("lih")
    device = get_device("jakarta")
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    evolution = EvolutionEngine(space, molecule.n_qubits, device,
                                EvolutionConfig(seed=7))
    candidates = [evolution.random_candidate() for _ in range(3)]

    groups = []
    simulate = BatchedDensityRunner._simulate

    def counted_simulate(self, batch):
        before = contractions["full"]
        simulate(self, batch)
        groups.append((len(batch.slots), two_qubit_positions(batch.slots),
                       batch.n_reduced, contractions["full"] - before))

    monkeypatch.setattr(BatchedDensityRunner, "_simulate", counted_simulate)
    estimator = PerformanceEstimator(device, EstimatorConfig(mode="noise_sim"))
    with ExecutionEngine(estimator, supercircuit) as engine:
        engine.evaluate_vqe_population(candidates, molecule)

    assert len(groups) == 3
    assert sum(group[0] for group in groups) == 1530
    assert sum(group[1] for group in groups) == 459
    for _, n_two_qubit, n_reduced, count in groups:
        assert count <= n_two_qubit + n_reduced
    assert contractions["full"] == sum(group[3] for group in groups)


def test_template_batch_contractions_do_not_scale_with_rows(
    contractions, u3cu3_supercircuit, yorktown
):
    evolution = EvolutionEngine(get_design_space("u3cu3"), 4, yorktown,
                                EvolutionConfig(seed=21))
    candidate = evolution.random_candidate()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    features = np.random.default_rng(5).uniform(0.2, 2.9, size=(6, 16))
    cache = ParametricTranspileCache(fallback=None)

    counts = {}
    for n_rows in (1, 6):
        values = np.concatenate(
            [np.broadcast_to(weights, (n_rows, weights.size)), features[:n_rows]],
            axis=1,
        )
        binding, fallback = cache.bind_rows(
            circuit, values, weights, yorktown, initial_layout=candidate.mapping,
        )
        assert binding.n_rows == n_rows and not fallback
        runner = BatchedDensityRunner(yorktown, max_density_qubits=8)
        rows = runner.submit_template(binding)
        before = contractions["full"]
        runner.run()
        assert rows[0].batch.rhos.shape[0] == n_rows
        counts[n_rows] = contractions["full"] - before
        assert counts[n_rows] <= (two_qubit_positions(binding.slots)
                                  + binding.n_reduced)
    assert counts[1] == counts[6]
