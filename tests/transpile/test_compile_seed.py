"""The default SABRE seed of a compile comes from its structure only.

:func:`~repro.transpile.compiler.compile_seed` derives it from the device,
the optimization level, the normalized initial layout and the gate
structure ``(n_qubits, ((gate, qubits), ...))``, never from the angles.  A
parametric template, its exact fallbacks and the uncached compile of any
bound row therefore draw the same SABRE layouts.  Cache keys keep the full
fingerprint, angles included; only the seed is shared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.library import get_device
from repro.execution import ParametricTranspileCache
from repro.quantum.circuit import ParameterizedCircuit, QuantumCircuit
from repro.transpile.compiler import compile_key, compile_seed, transpile
from repro.transpile.parametric import _default_witness, parametric_transpile


def ring(n_qubits: int = 5) -> ParameterizedCircuit:
    """Trainable u3 on every qubit and cu3 around a ring: on 7-qubit jakarta
    unpinned SABRE draws pick different layouts from one compile to the
    next."""
    circuit = ParameterizedCircuit(n_qubits)
    for qubit in range(n_qubits):
        circuit.add_trainable("u3", (qubit,))
    for qubit in range(n_qubits):
        circuit.add_trainable("cu3", (qubit, (qubit + 1) % n_qubits))
    return circuit


def bound_rows(circuit, count, seed):
    rng = np.random.default_rng(seed)
    return [
        circuit.bind(rng.uniform(-np.pi, np.pi, circuit.num_weights))
        for _ in range(count)
    ]


def test_compile_seed_ignores_the_angles():
    device = get_device("jakarta")
    circuit = ring()
    seeds = {
        compile_seed(device, None, 3, bound.n_qubits, bound.instructions)
        for bound in bound_rows(circuit, 3, seed=1)
    }
    seeds.add(compile_seed(device, None, 3, circuit.n_qubits, circuit.ops))
    assert len(seeds) == 1


def _other_gates(gates, change):
    gates = list(gates)
    first = gates[0]
    if change == "gate":
        other = QuantumCircuit(5).add("ry", first.qubits, (0.1,))
    else:
        other = QuantumCircuit(5).add(first.gate, (4,), first.params)
    return [other.instructions[0]] + gates[1:]


@pytest.mark.parametrize("change", [
    "device", "level", "layout", "n_qubits", "gate", "qubits",
])
def test_compile_seed_tracks_every_structural_input(change):
    bound = bound_rows(ring(), 1, seed=2)[0]
    base = dict(
        device=get_device("jakarta"), initial_layout=None,
        optimization_level=3, n_qubits=5, gates=bound.instructions,
    )
    changed = dict(base)
    if change == "device":
        changed["device"] = get_device("casablanca")
    elif change == "level":
        changed["optimization_level"] = 2
    elif change == "layout":
        changed["initial_layout"] = (0, 1, 3, 5, 6)
    elif change == "n_qubits":
        changed["n_qubits"] = 6
    else:
        changed["gates"] = _other_gates(bound.instructions, change)
    assert compile_seed(**base) != compile_seed(**changed)


def test_equivalent_layout_specs_share_the_seed():
    device = get_device("jakarta")
    gates = bound_rows(ring(), 1, seed=3)[0].instructions
    as_dict = compile_seed(device, {1: 3, 0: 1}, 3, 2, gates)
    assert as_dict == compile_seed(device, {0: 1, 1: 3}, 3, 2, gates)
    assert as_dict != compile_seed(device, (1, 3), 3, 2, gates)


def test_cache_keys_keep_the_angles_but_share_the_seed():
    device = get_device("jakarta")
    circuit = ring()
    first, second = bound_rows(circuit, 2, seed=4)
    first_key = compile_key(first, device, None, 3)
    second_key = compile_key(second, device, None, 3)
    assert first_key != second_key
    structure_key = ParametricTranspileCache().key_for(circuit, device, None, 3)
    assert first_key[-1] == second_key[-1] == structure_key[-1]
    # an explicit seed still overrides the derived one
    assert compile_key(first, device, None, 3, seed=11)[-1] == 11


def test_bound_rows_compile_like_unseeded_transpiles_at_level_3():
    """Every row the parametric cache serves at level 3 lands on the layout
    an uncached, unseeded transpile of the bound row draws."""
    device = get_device("jakarta")
    circuit = ring()
    cache = ParametricTranspileCache()
    rng = np.random.default_rng(5)
    for _ in range(4):
        weights = rng.uniform(-np.pi, np.pi, circuit.num_weights)
        compiled = cache.get_bound(circuit, weights, device=device,
                                   optimization_level=3)
        fresh = transpile(circuit.bind(weights), device, optimization_level=3)
        assert compiled.initial_layout == fresh.initial_layout
        assert [(i.gate, i.qubits) for i in compiled.circuit.instructions] == [
            (i.gate, i.qubits) for i in fresh.circuit.instructions
        ]


def test_seedless_parametric_transpile_pins_its_sabre_draws():
    """Without a seed, a level-3 template draws its SABRE layouts from
    :func:`compile_seed` of the structure, as ``transpile`` does for every
    bound row: every seedless template binds its witness to the seedless
    transpile of that row."""
    device = get_device("jakarta")
    circuit = ring()
    witness = _default_witness(circuit.num_weights, None)
    fresh = transpile(circuit.bind(witness), device, optimization_level=3)
    for _ in range(8):
        template = parametric_transpile(circuit, device, optimization_level=3)
        compiled = template.bind(witness)
        assert compiled.initial_layout == fresh.initial_layout
        assert compiled.final_layout == fresh.final_layout
        assert [(i.gate, i.qubits) for i in compiled.circuit.instructions] == [
            (i.gate, i.qubits) for i in fresh.circuit.instructions
        ]
