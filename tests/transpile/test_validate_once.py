"""A circuit is validated where it enters the compiler, and only there.

``Instruction(...)``, :meth:`QuantumCircuit.append`, :class:`ParamOp` and
the ``add_*`` methods of :class:`ParameterizedCircuit` check their input;
the compiler checks the layout it is given.  Everything derived from
those inputs is built unchecked, so the checks at the boundary must reject
every input an unchecked stage would mis-compile, and a compile must build
no validated instruction of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SubCircuitConfig
from repro.quantum.circuit import Instruction, ParameterizedCircuit
from repro.transpile.compiler import transpile
from repro.transpile.parametric import parametric_transpile


def two_qubit_structure() -> ParameterizedCircuit:
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("u3", (0,))
    circuit.add_trainable("u3", (1,))
    circuit.add_fixed("cx", (0, 1))
    circuit.add_trainable("ry", (1,))
    return circuit


def compile_with(compiler, circuit, device, layout):
    if compiler == "transpile":
        weights = np.linspace(0.3, 1.9, circuit.num_weights)
        return transpile(circuit.bind(weights), device, initial_layout=layout)
    return parametric_transpile(circuit, device, initial_layout=layout)


@pytest.mark.parametrize("compiler", ["transpile", "parametric_transpile"])
@pytest.mark.parametrize("layout,message", [
    # both logical qubits on physical 1: their gates would merge into one run
    ({0: 1, 1: 1}, "same physical qubit twice"),
    # gates on qubit -1
    ({0: 0, 1: -1}, "outside device"),
    ({0: 0, 1: 9}, "outside device"),
])
def test_dict_layouts_are_checked(yorktown, compiler, layout, message):
    with pytest.raises(ValueError, match=message):
        compile_with(compiler, two_qubit_structure(), yorktown, layout)


@pytest.mark.parametrize("compiler", ["transpile", "parametric_transpile"])
def test_dict_layouts_are_normalized_to_ints(yorktown, compiler):
    circuit = two_qubit_structure()
    layout = {np.int64(1): np.int32(2), 0: np.int64(4)}
    compiled = compile_with(compiler, circuit, yorktown, layout)
    assert compiled.initial_layout == {1: 2, 0: 4}
    for mapping in (compiled.initial_layout, compiled.final_layout):
        assert all(type(q) is int for pair in mapping.items() for q in pair)
    as_sequence = compile_with(compiler, circuit, yorktown, [4, 2])
    assert compiled.final_layout == as_sequence.final_layout
    assert compiled.used_qubits == as_sequence.used_qubits


def validation_counter(monkeypatch):
    """Count ``Instruction.__post_init__`` calls from here on."""
    calls = [0]
    original = Instruction.__post_init__

    def counted(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Instruction, "__post_init__", counted)
    return calls


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_compile_builds_no_validated_instruction(u3cu3_supercircuit, yorktown,
                                                 monkeypatch, level):
    """A bound 4-block mnist-4 SubCircuit builds hundreds of instructions
    while it compiles; none of them is validated again."""
    config = SubCircuitConfig.full(u3cu3_supercircuit.space, 4, n_blocks=4)
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
    weights = u3cu3_supercircuit.inherited_weights(config)
    features = np.random.default_rng(2).uniform(-np.pi, np.pi, 16)
    bound = circuit.bind(weights, features)

    calls = validation_counter(monkeypatch)
    compiled = transpile(bound, yorktown, initial_layout=[2, 0, 4, 1],
                         optimization_level=level)
    assert len(compiled.circuit) > len(bound)
    assert calls[0] <= len(bound)
