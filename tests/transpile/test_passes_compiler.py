"""Tests for optimization passes and the end-to-end transpiler."""

import numpy as np
import pytest

from repro.devices.library import get_device
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import circuit_unitary
from repro.transpile.compiler import compile_key, transpile
from repro.transpile.decompose import BASIS_GATES
from repro.transpile.passes import (
    cancel_adjacent_inverse_cx,
    drop_identity_rotations,
    merge_adjacent_rz,
    resynthesize_single_qubit_runs,
)


def _equal_up_to_phase(a, b, atol=1e-7):
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    phase = a[index] / b[index]
    return np.allclose(a, phase * b, atol=atol)


class TestPasses:
    def test_cancel_adjacent_cx_pairs(self):
        circuit = QuantumCircuit(2)
        circuit.add("cx", (0, 1))
        circuit.add("cx", (0, 1))
        circuit.add("h", (0,))
        out = cancel_adjacent_inverse_cx(circuit)
        assert out.count_ops() == {"h": 1}

    def test_cx_pairs_with_interference_not_cancelled(self):
        circuit = QuantumCircuit(2)
        circuit.add("cx", (0, 1))
        circuit.add("x", (1,))
        circuit.add("cx", (0, 1))
        out = cancel_adjacent_inverse_cx(circuit)
        assert out.count_ops()["cx"] == 2

    def test_merge_adjacent_rz(self):
        circuit = QuantumCircuit(1)
        circuit.add("rz", (0,), (0.3,))
        circuit.add("rz", (0,), (0.4,))
        out = merge_adjacent_rz(circuit)
        assert len(out) == 1
        assert out.instructions[0].params[0] == pytest.approx(0.7)

    def test_merge_adjacent_rz_cancels_to_identity(self):
        circuit = QuantumCircuit(1)
        circuit.add("rz", (0,), (0.5,))
        circuit.add("rz", (0,), (-0.5,))
        assert len(merge_adjacent_rz(circuit)) == 0

    def test_drop_identity_rotations(self):
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), (0.0,))
        circuit.add("u3", (0,), (0.0, 0.0, 0.0))
        circuit.add("cry", (0, 1), (0.0,))
        circuit.add("ry", (1,), (0.4,))
        out = drop_identity_rotations(circuit)
        assert out.count_ops() == {"ry": 1}

    def test_resynthesize_single_qubit_runs_preserves_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("t", (0,))
        circuit.add("rx", (0,), (0.3,))
        circuit.add("cx", (0, 1))
        circuit.add("s", (1,))
        circuit.add("rz", (1,), (0.2,))
        out = resynthesize_single_qubit_runs(circuit)
        assert _equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(out))
        # the run of three 1q gates collapses into at most 5 basis gates
        assert len(out) <= len(circuit) + 2


class TestTranspile:
    def _logical_circuit(self):
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.add("u3", (qubit,), (0.5, 0.2, -0.3))
        for qubit in range(4):
            circuit.add("cu3", (qubit, (qubit + 1) % 4), (0.8, 0.1, 0.4))
        return circuit

    def test_compiled_gates_in_basis(self):
        compiled = transpile(self._logical_circuit(), get_device("yorktown"),
                             initial_layout="noise_adaptive")
        for instruction in compiled.circuit.instructions:
            assert instruction.gate in BASIS_GATES

    def test_unitary_preserved_on_line_without_swaps(self):
        device = get_device("santiago")
        circuit = QuantumCircuit(3)
        circuit.add("u3", (0,), (0.4, 0.1, 0.9))
        circuit.add("cu3", (0, 1), (0.7, -0.2, 0.3))
        circuit.add("rzz", (1, 2), (1.1,))
        compiled = transpile(circuit, device, initial_layout="trivial",
                             optimization_level=2)
        assert compiled.num_swaps == 0
        reduced, used = compiled.reduced_circuit()
        assert used == (0, 1, 2)
        assert _equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(reduced))

    def test_higher_optimization_levels_do_not_increase_gate_count(self):
        device = get_device("yorktown")
        circuit = self._logical_circuit()
        counts = [
            transpile(circuit, device, optimization_level=level).num_gates
            for level in (0, 1, 2)
        ]
        assert counts[1] <= counts[0]
        assert counts[2] <= counts[1]

    def test_optimization_level_3_not_worse_in_two_qubit_gates(self):
        device = get_device("belem")
        circuit = self._logical_circuit()
        level2 = transpile(circuit, device, optimization_level=2, seed=0)
        level3 = transpile(circuit, device, optimization_level=3, seed=0)
        assert level3.num_two_qubit_gates <= level2.num_two_qubit_gates

    @pytest.mark.parametrize("layout,level", [("sabre", 2), (None, 3)])
    def test_unseeded_sabre_draws_are_pinned_to_the_inputs(self, layout, level):
        # a 5-qubit ring on 7-qubit jakarta: unpinned SABRE draws pick
        # different layouts from one compile to the next
        device = get_device("jakarta")
        circuit = QuantumCircuit(5)
        for qubit in range(5):
            circuit.add("u3", (qubit,), (0.5, 0.2, -0.3))
        for qubit in range(5):
            circuit.add("cu3", (qubit, (qubit + 1) % 5), (0.8, 0.1, 0.4))
        for qubit in range(3):
            circuit.add("cx", (qubit, qubit + 2))
        seed = compile_key(circuit, device, layout, level)[-1]
        seeded = transpile(circuit, device, initial_layout=layout,
                           optimization_level=level, seed=seed)
        for _ in range(10):
            compiled = transpile(circuit, device, initial_layout=layout,
                                 optimization_level=level)
            assert compiled.initial_layout == seeded.initial_layout
            assert compiled.circuit.instructions == seeded.circuit.instructions

    def test_invalid_optimization_level(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(2), get_device("belem"), optimization_level=7)

    def test_summary_and_success_rate(self):
        compiled = transpile(self._logical_circuit(), get_device("quito"),
                             initial_layout="sabre", seed=1)
        summary = compiled.summary()
        assert 0 < summary["success_rate"] <= 1
        assert summary["depth"] > 0
        assert summary["n_gates"] == summary["n_1q"] + summary["n_2q"]

    def test_layout_sequence_spec(self):
        compiled = transpile(self._logical_circuit(), get_device("quito"),
                             initial_layout=(4, 1, 0, 3))
        assert compiled.initial_layout == {0: 4, 1: 1, 2: 0, 3: 3}

    def test_unknown_layout_strategy(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(2), get_device("quito"),
                      initial_layout="magic")


class TestCompiledCircuitPickling:
    """Compiled circuits cross the sharded-scheduler process boundary."""

    def _compiled(self):
        circuit = QuantumCircuit(3)
        circuit.add("h", (0,))
        circuit.add("rz", (1,), (0.7,))
        circuit.add("cx", (0, 2))
        return transpile(circuit, get_device("yorktown"), optimization_level=2)

    def test_pickle_drops_memos_and_rederives_identically(self):
        import pickle

        compiled = self._compiled()
        rate = compiled.success_rate()          # populate both memos
        reduced, used = compiled.reduced_circuit()
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored._success_rate is None and restored._reduced is None
        assert restored.success_rate() == rate
        restored_reduced, restored_used = restored.reduced_circuit()
        assert restored_used == used
        assert [
            (inst.gate, inst.qubits, inst.params)
            for inst in restored_reduced.instructions
        ] == [
            (inst.gate, inst.qubits, inst.params)
            for inst in reduced.instructions
        ]
        assert restored.final_layout == compiled.final_layout
