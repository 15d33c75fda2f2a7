"""Tests for the circuit IR: instructions, circuits, parameterized circuits."""

import numpy as np
import pytest

from repro.quantum.circuit import (
    Instruction,
    ParamOp,
    ParameterizedCircuit,
    QuantumCircuit,
    const,
    feature,
    weight,
)
from repro.quantum.statevector import circuit_unitary


class TestInstruction:
    def test_normalizes_gate_aliases(self):
        inst = Instruction("CNOT", (0, 1))
        assert inst.gate == "cx"

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            Instruction("cx", (0,))

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(ValueError):
            Instruction("cx", (1, 1))

    def test_rejects_wrong_param_count(self):
        with pytest.raises(ValueError):
            Instruction("u3", (0,), (0.1,))

    def test_matrix_shape(self):
        assert Instruction("cu3", (0, 1), (0.1, 0.2, 0.3)).matrix().shape == (4, 4)


class TestQuantumCircuit:
    def test_append_checks_register_size(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.add("x", (2,))

    @pytest.mark.parametrize("qubits", [(-1,), (0, -1), (-2, 1)])
    def test_append_rejects_negative_qubits(self, qubits):
        """A negative index would address a wire from the end of the state
        and simulate a wrong circuit without an error."""
        circuit = QuantumCircuit(2)
        gate = "x" if len(qubits) == 1 else "cx"
        with pytest.raises(ValueError, match="outside register"):
            circuit.add(gate, qubits)
        with pytest.raises(ValueError, match="outside register"):
            QuantumCircuit(2, [Instruction(gate, qubits)])
        assert len(circuit) == 0

    def test_depth_and_counts(self):
        circuit = QuantumCircuit(3)
        circuit.add("h", (0,))
        circuit.add("cx", (0, 1))
        circuit.add("cx", (1, 2))
        circuit.add("x", (0,))
        assert circuit.depth() == 3
        assert circuit.count_ops() == {"h": 1, "cx": 2, "x": 1}
        assert circuit.num_two_qubit_gates() == 2
        assert circuit.num_single_qubit_gates() == 2

    def test_inverse_undoes_circuit(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("u3", (1,), (0.4, -0.3, 0.9))
        circuit.add("cu3", (0, 1), (0.7, 0.1, -0.2))
        circuit.add("rzz", (0, 1), (0.5,))
        circuit.add("s", (0,))
        combined = circuit.compose(circuit.inverse())
        unitary = circuit_unitary(combined)
        phase = unitary[0, 0]
        assert np.allclose(unitary, phase * np.eye(4), atol=1e-9)

    def test_compose_size_check(self):
        small = QuantumCircuit(2)
        big = QuantumCircuit(3)
        with pytest.raises(ValueError):
            small.compose(big)

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(1)
        circuit.add("x", (0,))
        clone = circuit.copy()
        clone.add("x", (0,))
        assert len(circuit) == 1
        assert len(clone) == 2


class TestParameterizedCircuit:
    def test_add_trainable_allocates_weights(self):
        pcirc = ParameterizedCircuit(2)
        first = pcirc.add_trainable("u3", (0,))
        second = pcirc.add_trainable("cu3", (0, 1))
        assert first == (0, 1, 2)
        assert second == (3, 4, 5)
        assert pcirc.num_weights == 6

    def test_fixed_mask_creates_constant_slots(self):
        pcirc = ParameterizedCircuit(1)
        created = pcirc.add_trainable("u3", (0,), fixed_mask=[False, True, False])
        assert created == (0, 1)
        assert pcirc.num_weights == 2
        op = pcirc.ops[0]
        assert op.slots[1].kind == "const"

    def test_encoder_requires_matching_features(self):
        pcirc = ParameterizedCircuit(1)
        with pytest.raises(ValueError):
            pcirc.add_encoder("u3", (0,), (0,))

    def test_bind_produces_concrete_circuit(self):
        pcirc = ParameterizedCircuit(2)
        pcirc.add_encoder("ry", (0,), (0,))
        pcirc.add_trainable("rx", (1,))
        pcirc.add_fixed("cx", (0, 1))
        weights = np.array([0.5])
        bound = pcirc.bind(weights, features_row=np.array([1.25]))
        assert bound.instructions[0].params == (1.25,)
        assert bound.instructions[1].params == (0.5,)
        assert bound.instructions[2].gate == "cx"

    def test_bind_without_features_raises_when_needed(self):
        pcirc = ParameterizedCircuit(1)
        pcirc.add_encoder("ry", (0,), (0,))
        with pytest.raises(ValueError):
            pcirc.bind(np.zeros(0))

    def test_bind_checks_weight_shape(self):
        pcirc = ParameterizedCircuit(1)
        pcirc.add_trainable("rx", (0,))
        with pytest.raises(ValueError):
            pcirc.bind(np.zeros(3))

    def test_resolve_params_batched(self):
        pcirc = ParameterizedCircuit(1)
        pcirc.add_encoder("ry", (0,), (1,))
        features = np.array([[0.0, 1.0], [0.0, 2.0]])
        resolved = pcirc.resolve_params(pcirc.ops[0], np.zeros(0), features)
        assert resolved.shape == (2, 1)
        assert np.allclose(resolved[:, 0], [1.0, 2.0])

    def test_weight_to_ops_mapping(self):
        pcirc = ParameterizedCircuit(2)
        pcirc.add_trainable("rx", (0,))
        pcirc.add_trainable("ry", (1,))
        mapping = pcirc.weight_to_ops()
        assert mapping == {0: [0], 1: [1]}

    def test_ensure_num_weights_grows_only(self):
        pcirc = ParameterizedCircuit(1)
        pcirc.add_trainable("rx", (0,))
        pcirc.ensure_num_weights(5)
        assert pcirc.num_weights == 5
        pcirc.ensure_num_weights(2)
        assert pcirc.num_weights == 5

    def test_init_weights_range(self):
        pcirc = ParameterizedCircuit(1)
        for _ in range(4):
            pcirc.add_trainable("rx", (0,))
        weights = pcirc.init_weights(np.random.default_rng(0))
        assert weights.shape == (4,)
        assert np.all(weights >= -np.pi) and np.all(weights < np.pi)

    def test_param_slot_validation(self):
        with pytest.raises(ValueError):
            ParamOp("rx", (0,), (const(0.1), const(0.2)))
        assert weight(3).kind == "weight"
        assert feature(2).kind == "input"

    @pytest.mark.parametrize("gate,qubits,slots", [
        ("cx", (0,), ()),
        ("x", (0, 1), ()),
        ("cx", (1, 1), ()),
        ("cu3", (1, 1), (weight(0), weight(1), weight(2))),
    ])
    def test_param_op_checks_arity_and_distinct_qubits(self, gate, qubits, slots):
        with pytest.raises(ValueError):
            ParamOp(gate, qubits, slots)

    def test_trainable_gate_on_one_qubit_twice_is_rejected(self):
        """A cu3 on (1, 1) would compile to a cx on (1, 1); it is refused
        where it enters, and allocates no weights."""
        pcirc = ParameterizedCircuit(2)
        with pytest.raises(ValueError, match="duplicate qubits"):
            pcirc.add_trainable("cu3", (1, 1))
        assert pcirc.ops == [] and pcirc.num_weights == 0

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_every_add_path_checks_the_register(self, qubit):
        pcirc = ParameterizedCircuit(2)
        adds = [
            lambda: pcirc.add_fixed("rx", (qubit,), (0.3,)),
            lambda: pcirc.add_trainable("u3", (qubit,)),
            lambda: pcirc.add_trainable("cu3", (0, qubit)),
            lambda: pcirc.add_encoder("ry", (qubit,), (0,)),
            lambda: pcirc.add_op(ParamOp("cx", (qubit, 0))),
            lambda: pcirc.add_op(ParamOp("rz", (qubit,), (weight(4),))),
        ]
        for add in adds:
            with pytest.raises(ValueError, match="outside register"):
                add()
        assert pcirc.ops == [] and pcirc.num_weights == 0

    def test_rejects_an_empty_register(self):
        with pytest.raises(ValueError):
            ParameterizedCircuit(0)

    def test_bind_emits_validated_instructions(self):
        """bind skips re-validation; each instruction it emits still equals
        the validated Instruction it stands for, with int qubits and float
        angles, aliases and numpy indices included."""
        pcirc = ParameterizedCircuit(3)
        pcirc.add_fixed("CNOT", (np.int64(2), 0))
        pcirc.add_trainable("U3", [np.int32(1)])
        pcirc.add_encoder("ry", (0,), (1,))
        pcirc.add_fixed("rzz", (0, 2), (np.float32(0.25),))
        bound = pcirc.bind(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.5]))
        assert [inst.gate for inst in bound] == ["cx", "u3", "ry", "rzz"]
        for inst in bound:
            assert inst == Instruction(inst.gate, inst.qubits, inst.params)
            assert all(type(q) is int for q in inst.qubits)
            assert all(type(p) is float for p in inst.params)
            assert type(inst.qubits) is tuple and type(inst.params) is tuple
