"""One readout pass per density batch, against the per-row composition.

A batch's row handles read the rows of arrays the batch computes once:
the reduced-register probabilities (diagonal, then readout confusion
across the batch axis), their marginals onto the logical qubits (one
marginalization per distinct final layout) and the logical Z
expectations.  Each step repeats a per-row function's arithmetic with a
leading batch axis, so every row equals the per-row composition
``density_probabilities`` -> ``NoiseModel.apply_readout_error`` ->
``logical_probabilities`` -> ``expectation_z_all_from_probabilities``
bit for bit.  The one exception is a one-qubit register, whose per-row
confusion is a BLAS matrix-vector product: there the rows agree to 1e-15.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.density import BatchedDensityRunner
from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.devices import QuantumBackend
from repro.devices.backend import logical_probabilities
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import density_probabilities
from repro.quantum.measurement import expectation_z_all_from_probabilities
from repro.transpile.compiler import transpile
from repro.transpile.parametric import (
    _default_witness,
    num_feature_params,
    parametric_transpile,
)


def per_row_readout(row, n_logical):
    """The per-row composition the batch readout repeats."""
    batch, position = row.batch, row.position
    if batch.rhos is None:
        probs = batch.approximate[position]
    else:
        probs = batch.noise_model.apply_readout_error(
            density_probabilities(batch.rhos[position]), batch.n_reduced
        )
    logical = logical_probabilities(
        probs, batch.final_layouts[position], batch.used_qubits, n_logical
    )
    return probs, logical, expectation_z_all_from_probabilities(logical, n_logical)


def assert_rows_equal_per_row(rows, n_logical, atol=0.0):
    for row in rows:
        expected = per_row_readout(row, n_logical)
        got = (
            row.probabilities(),
            row.logical_probabilities(n_logical),
            row.logical_z_expectations(n_logical),
        )
        for got_values, expected_values in zip(got, expected):
            assert got_values.shape == expected_values.shape
            if atol:
                np.testing.assert_allclose(got_values, expected_values,
                                           rtol=0, atol=atol)
            else:
                assert np.array_equal(got_values, expected_values)


def mnist_template_rows(supercircuit, device, n_rows, rng):
    evolution = EvolutionEngine(
        get_design_space("u3cu3"), 4, device, EvolutionConfig(seed=5)
    )
    candidate = evolution.random_candidate()
    circuit, _ = supercircuit.build_standalone_circuit(candidate.config)
    weights = supercircuit.inherited_weights(candidate.config)
    n_features = num_feature_params(circuit)
    template = parametric_transpile(
        circuit, device, initial_layout=candidate.mapping, seed=3,
        witness_values=np.concatenate([weights, _default_witness(n_features, None)]),
    )
    values = np.concatenate([
        np.broadcast_to(weights, (n_rows, weights.size)),
        rng.uniform(0.2, 2.9, size=(n_rows, n_features)),
    ], axis=1)
    ok, binding = template.bind_batch(values)
    assert ok.all()
    return circuit, weights, values, candidate, binding


def test_template_batch_readout_equals_per_row(u3cu3_supercircuit, yorktown, rng):
    _, _, _, _, binding = mnist_template_rows(u3cu3_supercircuit, yorktown, 6, rng)
    runner = BatchedDensityRunner(yorktown, max_density_qubits=8)
    rows = runner.submit_template(binding)
    runner.run()
    assert len({id(row.batch) for row in rows}) == 1
    assert_rows_equal_per_row(rows, 4)


def fake_compiled(circuit, used, final_layout):
    """What the runner reads of a compiled circuit."""
    return SimpleNamespace(
        reduced_circuit=lambda: (circuit, used), final_layout=final_layout
    )


def three_qubit_circuit(angle):
    circuit = QuantumCircuit(3)
    circuit.add("ry", (0,), (angle,))
    circuit.add("cx", (0, 1))
    circuit.add("rx", (2,), (2.0 * angle,))
    circuit.add("cx", (1, 2))
    return circuit


@pytest.mark.parametrize("n_logical", [2, 3])
def test_compiled_rows_with_different_final_layouts(yorktown, n_logical):
    """One reduced structure, five rows over three final layouts: each row
    marginalizes (and, for two logical qubits, drops a different axis) its
    own way, two of them sharing a layout with a later row."""
    layouts = [{0: 0, 1: 1, 2: 2}, {0: 2, 1: 0, 2: 1}, {0: 1, 1: 2, 2: 0}]
    runner = BatchedDensityRunner(yorktown, max_density_qubits=8)
    rows = [
        runner.submit(fake_compiled(three_qubit_circuit(angle), (0, 1, 2), layout))
        for angle, layout in zip((0.3, 1.1, 2.4, 0.7, 1.9), layouts + layouts[:2])
    ]
    runner.run()
    assert len({id(row.batch) for row in rows}) == 1
    assert_rows_equal_per_row(rows, n_logical)
    # the three layouts really read the register differently
    marginals = [row.logical_probabilities(n_logical) for row in rows]
    assert not np.array_equal(marginals[0], marginals[1])


def test_batch_of_one_and_run_compiled(u3cu3_supercircuit, yorktown, rng):
    """The device backend's batch of one reads the same readout path."""
    circuit, weights, values, candidate, _ = mnist_template_rows(
        u3cu3_supercircuit, yorktown, 1, rng
    )
    compiled = transpile(
        circuit.bind(weights, values[0, weights.size:]), yorktown,
        initial_layout=candidate.mapping,
    )
    runner = BatchedDensityRunner(yorktown, max_density_qubits=8)
    row = runner.submit(compiled)
    runner.run()
    assert row.batch.n_rows == 1
    assert_rows_equal_per_row([row], 4)
    result = QuantumBackend(yorktown, shots=0).run_compiled(compiled, 4)
    assert np.array_equal(result.probabilities, per_row_readout(row, 4)[1])


def test_oversized_register_readout_equals_per_row(yorktown):
    """Above max_density_qubits every row carries the success-rate
    approximation; the batch stacks it without readout confusion."""
    layout = {0: 0, 1: 1, 2: 2}
    runner = BatchedDensityRunner(yorktown, max_density_qubits=2)
    rows = [
        runner.submit(fake_compiled(three_qubit_circuit(angle), (0, 1, 2), layout))
        for angle in (0.4, 1.7)
    ]
    runner.run()
    assert rows[0].batch.rhos is None
    assert_rows_equal_per_row(rows, 3)


def test_one_qubit_register_agrees_to_1e15(yorktown):
    runner = BatchedDensityRunner(yorktown, max_density_qubits=8)
    rows = []
    for angle in (0.2, 0.9, 2.1):
        circuit = QuantumCircuit(1)
        circuit.add("ry", (0,), (angle,))
        rows.append(runner.submit(fake_compiled(circuit, (3,), {0: 3})))
    runner.run()
    assert_rows_equal_per_row(rows, 1, atol=1e-15)
