"""Tests for shot sampling, basis changes and measurement planning."""

import numpy as np
import pytest

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import (
    MeasurementPlan,
    basis_change_circuit,
    counts_to_probabilities,
    expectation_z_all_from_probabilities,
    expectation_z_from_probabilities,
    sample_counts,
)
from repro.quantum.operators import PauliSum
from repro.quantum.statevector import (
    expectation_pauli_sum,
    probabilities,
    run_circuit,
)


def test_sample_counts_distribution():
    probs = np.array([0.7, 0.3])
    counts = sample_counts(probs, shots=20000, rng=np.random.default_rng(0))
    assert counts.sum() == 20000
    assert counts[0] / 20000 == pytest.approx(0.7, abs=0.02)


def test_sample_counts_rejects_zero_vector():
    with pytest.raises(ValueError):
        sample_counts(np.zeros(4), shots=10)


def test_counts_to_probabilities():
    probs = counts_to_probabilities(np.array([30.0, 70.0]))
    assert np.allclose(probs, [0.3, 0.7])
    with pytest.raises(ValueError):
        counts_to_probabilities(np.zeros(2))


def test_expectation_z_from_probabilities():
    # |10> with qubit-0 = 1 and qubit-1 = 0
    probs = np.zeros(4)
    probs[2] = 1.0  # binary 10 -> qubit0=1, qubit1=0
    assert expectation_z_from_probabilities(probs, 0, 2) == pytest.approx(-1.0)
    assert expectation_z_from_probabilities(probs, 1, 2) == pytest.approx(1.0)
    both = expectation_z_all_from_probabilities(probs, 2)
    assert np.allclose(both, [-1.0, 1.0])


def test_basis_change_circuit_gates():
    circuit = basis_change_circuit(3, {0: "X", 1: "Y", 2: "Z"})
    names = [inst.gate for inst in circuit.instructions]
    assert names == ["h", "sdg", "h"]
    with pytest.raises(ValueError):
        basis_change_circuit(1, {0: "Q"})


def test_pauli_expectation_via_basis_change_matches_statevector():
    state_prep = QuantumCircuit(2)
    state_prep.add("ry", (0,), (0.9,))
    state_prep.add("cx", (0, 1))
    state_prep.add("rz", (1,), (0.4,))
    observable = PauliSum.from_terms(
        [(0.7, {0: "X", 1: "X"}), (0.2, {0: "Z"}), (0.1, {})]
    )
    expected = expectation_pauli_sum(run_circuit(state_prep), observable)[0]

    plan = MeasurementPlan(observable, 2)
    group_probs = []
    for basis_change, _terms in plan.settings():
        circuit = state_prep.compose(basis_change)
        group_probs.append(probabilities(run_circuit(circuit))[0])
    measured = plan.expectation_from_group_probabilities(group_probs)
    assert measured == pytest.approx(expected, abs=1e-9)


def test_measurement_plan_group_count_and_validation():
    observable = PauliSum.from_terms(
        [(1.0, {0: "Z"}), (1.0, {1: "Z"}), (1.0, {0: "X", 1: "X"})]
    )
    plan = MeasurementPlan(observable, 2)
    assert len(plan) == 2
    with pytest.raises(ValueError):
        plan.expectation_from_group_probabilities([np.ones(4) / 4])


def test_measurement_plan_reads_parity_over_support():
    """A measured term is the parity of the outcome over the term's support
    (qubit 0 is the most significant bit of an outcome)."""
    plan = MeasurementPlan(PauliSum.from_terms([(1.0, {0: "Z", 1: "Z"})]), 2)
    probs = np.zeros(4)
    probs[3] = 1.0  # |11> -> even parity -> +1
    assert plan.expectation_from_group_probabilities([probs]) == pytest.approx(1.0)
    probs = np.zeros(4)
    probs[1] = 1.0  # |01> -> odd parity -> -1
    assert plan.expectation_from_group_probabilities([probs]) == pytest.approx(-1.0)
    plan = MeasurementPlan(PauliSum.from_terms([(0.5, {0: "X"}), (0.25, {})]), 3)
    probs = np.zeros(8)
    probs[3] = 1.0  # |011>: qubit 0 reads 0 -> +0.5, qubits 1-2 unmeasured
    assert plan.expectation_from_group_probabilities([probs]) == pytest.approx(0.75)
    probs = np.zeros(8)
    probs[4] = 1.0  # |100>: qubit 0 reads 1 -> -0.5
    assert plan.expectation_from_group_probabilities([probs]) == pytest.approx(-0.25)


@pytest.mark.parametrize("qubit", [2, 4, 7])
def test_measurement_plan_rejects_qubit_outside_register(qubit):
    observable = PauliSum.from_terms([(1.0, {0: "Z"}), (0.5, {qubit: "X"})])
    plan = MeasurementPlan(observable, 2)
    probabilities = [np.full(4, 0.25)] * len(plan)
    with pytest.raises(ValueError, match=f"qubit {qubit}, outside the 2-qubit"):
        plan.expectation_from_group_probabilities(probabilities)
