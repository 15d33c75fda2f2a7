"""Parametric transpilation must reproduce the concrete pipeline exactly.

For every (circuit structure, layout spec, optimization level) the compiled
template's ``bind(values)`` is pinned against a fresh ``transpile`` of the
bound circuit: identical gate/qubit streams, angles equal modulo ``2*pi``
(the parametric pipeline skips angle normalization — a global phase), and
noisy observables (success rate, backend probabilities) equal to 1e-9.
Bindings that cross a compile-time branch must *refuse* (``try_bind`` →
``None``) rather than return an inexact circuit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    EvolutionEngine,
    PerformanceEstimator,
    SubCircuitConfig,
    get_design_space,
)
from repro.devices import QuantumBackend, get_device
from repro.execution import ExecutionEngine, ParametricTranspileCache
from repro.quantum.circuit import Instruction, ParameterizedCircuit
from repro.transpile.compiler import transpile
from repro.transpile.parametric import (
    ParametricBindMismatch,
    _default_witness,
    num_feature_params,
    parametric_fingerprint,
    parametric_transpile,
)

from parametric_corpus import (
    LAYOUT_KINDS,
    layout_spec,
    random_binding,
    random_parameterized_circuit,
)

ATOL = 1e-9


def angles_equal_mod_2pi(a, b, atol=ATOL):
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi) < atol


def assert_bind_matches_fresh(bound_compiled, fresh):
    got = [(inst.gate, inst.qubits) for inst in bound_compiled.circuit.instructions]
    ref = [(inst.gate, inst.qubits) for inst in fresh.circuit.instructions]
    assert got == ref
    for got_inst, ref_inst in zip(
        bound_compiled.circuit.instructions, fresh.circuit.instructions
    ):
        for got_param, ref_param in zip(got_inst.params, ref_inst.params):
            assert angles_equal_mod_2pi(got_param, ref_param)
    assert bound_compiled.initial_layout == fresh.initial_layout
    assert bound_compiled.final_layout == fresh.final_layout
    assert bound_compiled.used_qubits == fresh.used_qubits
    assert bound_compiled.num_swaps == fresh.num_swaps
    assert bound_compiled.success_rate() == pytest.approx(
        fresh.success_rate(), abs=ATOL
    )


#: fewest of a case's 12 bindings that must bind through the template, per
#: optimization level and layout kind: the counts measured when this floor
#: was set.  A floor, not an equality, so fewer branch crossings only raise
#: the count; a change that made templates refuse more often fails here.
MIN_BINDS = {
    0: {"trivial": 10, "sequence": 11, "dict": 10, "noise_adaptive": 10},
    1: {"trivial": 9, "sequence": 11, "dict": 11, "noise_adaptive": 9},
    2: {"trivial": 11, "sequence": 11, "dict": 5, "noise_adaptive": 8},
    3: {"trivial": 11, "sequence": 8, "dict": 12, "noise_adaptive": 9},
}


@pytest.mark.parametrize("layout_kind", LAYOUT_KINDS)
@pytest.mark.parametrize("optimization_level", [0, 1, 2, 3])
def test_bind_matches_fresh_transpile(layout_kind, optimization_level):
    """Random 2-6 qubit structures, three bindings each, against yorktown/jakarta."""
    rng = np.random.default_rng(
        11 * optimization_level + 29 * LAYOUT_KINDS.index(layout_kind)
    )
    bound = 0
    for trial in range(4):
        n_qubits = int(rng.integers(2, 7))
        device = get_device("yorktown") if n_qubits <= 5 else get_device("jakarta")
        circuit = random_parameterized_circuit(n_qubits, int(rng.integers(5, 16)), rng)
        layout = layout_spec(layout_kind, n_qubits, device, rng)
        seed = int(rng.integers(1 << 30))
        weights, features = random_binding(circuit, rng)
        witness = np.concatenate([weights, features])
        parametric = parametric_transpile(
            circuit,
            device,
            initial_layout=layout,
            optimization_level=optimization_level,
            seed=seed,
            witness_values=witness,
        )
        for repetition in range(3):
            if repetition:
                weights, features = random_binding(circuit, rng)
            values = np.concatenate([weights, features])
            compiled = parametric.try_bind(values)
            fresh = transpile(
                circuit.bind(weights, features),
                device,
                initial_layout=layout,
                optimization_level=optimization_level,
                seed=seed,
            )
            if compiled is None:
                # the binding crossed a compile-time branch; refusing is the
                # correct (exact) behavior — the caches fall back to `fresh`
                continue
            bound += 1
            assert_bind_matches_fresh(compiled, fresh)
    assert bound >= MIN_BINDS[optimization_level][layout_kind]


def assert_valid_stream(circuit):
    """Every instruction re-validates and lies inside its register."""
    for inst in circuit.instructions:
        assert inst == Instruction(inst.gate, inst.qubits, inst.params)
        assert type(inst.qubits) is tuple and type(inst.params) is tuple
        assert all(type(q) is int and 0 <= q < circuit.n_qubits
                   for q in inst.qubits)
        assert all(isinstance(p, float) for p in inst.params)


@pytest.mark.parametrize("layout_kind", LAYOUT_KINDS)
@pytest.mark.parametrize("optimization_level", [0, 1, 2, 3])
def test_compiled_instructions_revalidate(layout_kind, optimization_level):
    """Compiles, reduced circuits and template binds build their
    instructions unchecked; each one must still be an instruction the
    validating constructor accepts, on the register it belongs to."""
    rng = np.random.default_rng(
        7 * optimization_level + 13 * LAYOUT_KINDS.index(layout_kind)
    )
    for _trial in range(3):
        n_qubits = int(rng.integers(2, 7))
        device = get_device("yorktown") if n_qubits <= 5 else get_device("jakarta")
        circuit = random_parameterized_circuit(n_qubits, int(rng.integers(5, 16)), rng)
        layout = layout_spec(layout_kind, n_qubits, device, rng)
        weights, features = random_binding(circuit, rng)
        template = parametric_transpile(
            circuit, device, initial_layout=layout,
            optimization_level=optimization_level,
            witness_values=np.concatenate([weights, features]),
        )
        compiled = [transpile(circuit.bind(weights, features), device,
                              initial_layout=layout,
                              optimization_level=optimization_level)]
        for _row in range(3):
            compiled.append(template.try_bind(np.concatenate([weights, features])))
            weights, features = random_binding(circuit, rng)
        for result in compiled:
            if result is None:
                continue
            assert_valid_stream(result.circuit)
            reduced, used = result.reduced_circuit()
            assert reduced.n_qubits == max(len(used), 1)
            assert_valid_stream(reduced)


def test_noisy_probabilities_match_to_1e9(yorktown):
    """Bound templates produce backend probabilities identical to fresh compiles."""
    rng = np.random.default_rng(5)
    backend = QuantumBackend(yorktown, shots=0, seed=0)
    for trial in range(3):
        circuit = random_parameterized_circuit(4, 12, rng)
        layout = layout_spec("sequence", 4, yorktown, rng)
        weights, features = random_binding(circuit, rng)
        witness = np.concatenate([weights, features])
        parametric = parametric_transpile(
            circuit, yorktown, initial_layout=layout, witness_values=witness
        )
        for repetition in range(2):
            if repetition:
                weights, features = random_binding(circuit, rng)
            compiled = parametric.try_bind(np.concatenate([weights, features]))
            if compiled is None:
                continue
            fresh = transpile(
                circuit.bind(weights, features), yorktown, initial_layout=layout
            )
            result = backend.run_compiled(compiled, n_logical=4, shots=0)
            reference = backend.run_compiled(fresh, n_logical=4, shots=0)
            np.testing.assert_allclose(
                result.probabilities, reference.probabilities, rtol=0, atol=ATOL
            )


def test_witness_binding_always_binds(yorktown):
    """The witness's own values can never cross a compile-time branch."""
    rng = np.random.default_rng(17)
    for trial in range(5):
        circuit = random_parameterized_circuit(3, 10, rng)
        weights, features = random_binding(circuit, rng)
        witness = np.concatenate([weights, features])
        parametric = parametric_transpile(
            circuit, yorktown, witness_values=witness
        )
        assert parametric.try_bind(witness) is not None


def test_binding_plan_is_immutable(yorktown):
    """Binding must not mutate the template: repeated binds are identical and
    earlier results are unaffected by later binds."""
    rng = np.random.default_rng(23)
    circuit = random_parameterized_circuit(4, 12, rng)
    weights, features = random_binding(circuit, rng)
    witness = np.concatenate([weights, features])
    parametric = parametric_transpile(circuit, yorktown, witness_values=witness)

    first = parametric.bind(witness)
    snapshot = [
        (inst.gate, inst.qubits, inst.params)
        for inst in first.circuit.instructions
    ]
    structure = (
        parametric.num_instructions,
        parametric.num_parametric_slots,
        parametric.num_guards,
        parametric.num_replay_nodes,
    )

    for _ in range(4):
        weights2, features2 = random_binding(circuit, rng)
        parametric.try_bind(np.concatenate([weights2, features2]))

    again = parametric.bind(witness)
    assert [
        (inst.gate, inst.qubits, inst.params)
        for inst in again.circuit.instructions
    ] == snapshot
    # the first result's object graph was not touched by later binds
    assert [
        (inst.gate, inst.qubits, inst.params)
        for inst in first.circuit.instructions
    ] == snapshot
    assert (
        parametric.num_instructions,
        parametric.num_parametric_slots,
        parametric.num_guards,
        parametric.num_replay_nodes,
    ) == structure


def test_branch_crossing_refuses_instead_of_guessing(yorktown):
    """A binding that zeroes a traced rotation must raise, not misbind."""
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("rz", [0])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_trainable("rz", [1])

    witness = np.array([1.1, 0.7])
    parametric = parametric_transpile(
        circuit, yorktown, optimization_level=1, witness_values=witness
    )
    assert parametric.try_bind(witness) is not None
    # zeroing the first rotation drops it in the concrete pipeline -> the
    # recorded non-zero branch no longer holds
    with pytest.raises(ParametricBindMismatch):
        parametric.bind(np.array([0.0, 0.7]))


def blank_rows(n_features):
    """Feature rows of blank pixels: all zero, six of sixteen zero, and every
    angle a full turn (the concrete pipeline drops each such rotation)."""
    some = np.random.default_rng(41).uniform(0.2, 2.9, n_features)
    some[::3] = 0.0
    return {
        "all zero": np.zeros(n_features),
        "some zero": some,
        "all 2pi": np.full(n_features, 2.0 * np.pi),
    }


@pytest.mark.parametrize("layout_kind", LAYOUT_KINDS + ["sabre"])
@pytest.mark.parametrize("optimization_level", [0, 1, 2, 3])
def test_blank_rows_bind_where_resynthesis_absorbs_them(
    u3cu3_supercircuit, yorktown, layout_kind, optimization_level
):
    """Blank pixels zero mnist-4 encoder rotations.  No CX precedes an
    encoder gate on its qubit, so at levels 2 and 3 the re-synthesized run
    that absorbs it decides the row, and blank rows bind exactly.  Levels 0
    and 1 have no re-synthesis: blank rows still refuse there."""
    config = SubCircuitConfig.full(get_design_space("u3cu3"), 4, n_blocks=2)
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
    weights = u3cu3_supercircuit.inherited_weights(config)
    n_features = num_feature_params(circuit)
    rng = np.random.default_rng(53)
    layout = (
        "sabre" if layout_kind == "sabre"
        else layout_spec(layout_kind, 4, yorktown, rng)
    )
    # the parametric cache's witness: real weights, generic features
    witness = np.concatenate([weights, _default_witness(n_features, None)])
    template = parametric_transpile(
        circuit, yorktown, initial_layout=layout,
        optimization_level=optimization_level, seed=19, witness_values=witness,
    )
    rows = {"generic": rng.uniform(0.2, 2.9, n_features), **blank_rows(n_features)}
    for name, features in rows.items():
        compiled = template.try_bind(np.concatenate([weights, features]))
        if optimization_level < 2 and name != "generic":
            assert compiled is None, name
            continue
        assert compiled is not None, name
        fresh = transpile(
            circuit.bind(weights, features), yorktown, initial_layout=layout,
            optimization_level=optimization_level, seed=19,
        )
        assert_bind_matches_fresh(compiled, fresh)


def test_kept_angle_between_cx_gates_keeps_its_guard(yorktown):
    """Only gates outside every CX pair on their qubit bind unguarded.

    Two encoder rotations sit between a CX pair.  At the witness features
    (0.7, -0.7) they multiply to the identity, re-synthesis empties their
    run and the pair cancels, leaving 9 gates.  Bound to (0, 0), the
    concrete pipeline drops both rotations, cancels the pair at once and
    merges the two trainable U3s into one: 5 gates.  Their guards stay, so
    the row refuses, and the cache's fallback serves the concrete compile.
    """
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("u3", [0])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_encoder("ry", [1], [0])
    circuit.add_encoder("ry", [1], [1])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_trainable("u3", [0])
    weights = np.array([0.9, 0.4, -1.3, 1.7, -0.6, 0.8])
    blank = np.zeros(2)
    for level in (2, 3):
        template = parametric_transpile(
            circuit, yorktown, optimization_level=level, seed=3,
            witness_values=np.concatenate([weights, [0.7, -0.7]]),
        )
        assert template.num_instructions == 9
        assert template.try_bind(np.concatenate([weights, blank])) is None

        cache = ParametricTranspileCache()
        compiled = cache.get_bound(circuit, weights, blank, yorktown, None, level)
        assert cache.stats.fallbacks == 1
        fresh = transpile(
            circuit.bind(weights, blank), yorktown, optimization_level=level,
            seed=cache.key_for(circuit, yorktown, None, level)[-1],
        )
        assert len(fresh.circuit.instructions) == 5
        assert_bind_matches_fresh(compiled, fresh)


def test_blank_pixel_population_binds_without_fallbacks(
    u3cu3_supercircuit, yorktown, tiny_dataset, seed_path_scorer
):
    """A noise_sim population whose validation images have blank corners:
    every row binds through its structure's template, and the scores equal
    the per-candidate seed path's."""
    x_valid = tiny_dataset.x_valid.copy()
    x_valid[:, [0, 3, 12, 15]] = 0.0
    dataset = dataclasses.replace(tiny_dataset, x_valid=x_valid)
    evolution = EvolutionEngine(
        get_design_space("u3cu3"), 4, yorktown, EvolutionConfig(seed=11)
    )
    candidates = [evolution.random_candidate() for _ in range(6)]
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=3)
    estimator = PerformanceEstimator(yorktown, config)
    with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
        scores = engine.evaluate_qml_population(candidates, dataset, 4)
    stats = estimator.parametric_transpile_cache.stats
    assert stats.fallbacks == 0
    assert stats.batch_rows == len(candidates) * 3
    reference = seed_path_scorer(
        yorktown, u3cu3_supercircuit, config, dataset=dataset, n_classes=4
    )(candidates)
    np.testing.assert_allclose(scores, reference, rtol=0, atol=ATOL)


def test_constant_slots_equal_validated_instructions(yorktown):
    """Constant template slots are built without re-validation; each still
    equals the validated :class:`Instruction` it stands for, with float
    angles and int qubits, on the physical and the reduced register."""
    rng = np.random.default_rng(37)
    checked = 0
    for level in range(4):
        circuit = random_parameterized_circuit(4, 14, rng)
        weights, features = random_binding(circuit, rng)
        template = parametric_transpile(
            circuit, yorktown, initial_layout=[3, 1, 4, 2],
            optimization_level=level,
            witness_values=np.concatenate([weights, features]),
        )
        for slot in template._slots + template._reduced_slots:
            if type(slot) is not Instruction:
                continue
            assert slot == Instruction(slot.gate, slot.qubits, slot.params)
            assert all(type(param) is float for param in slot.params)
            assert all(type(qubit) is int for qubit in slot.qubits)
            checked += 1
    assert checked


def test_reduced_circuit_is_prebuilt_and_consistent(yorktown):
    rng = np.random.default_rng(31)
    circuit = random_parameterized_circuit(3, 9, rng)
    weights, features = random_binding(circuit, rng)
    values = np.concatenate([weights, features])
    parametric = parametric_transpile(
        circuit, yorktown, initial_layout=[2, 0, 1], witness_values=values
    )
    compiled = parametric.bind(values)
    reduced, used = compiled.reduced_circuit()
    fresh = transpile(
        circuit.bind(weights, features), yorktown, initial_layout=[2, 0, 1]
    )
    fresh_reduced, fresh_used = fresh.reduced_circuit()
    assert used == fresh_used
    assert [(i.gate, i.qubits) for i in reduced.instructions] == [
        (i.gate, i.qubits) for i in fresh_reduced.instructions
    ]
    # the reduced view re-indexes the same instruction stream
    assert len(reduced.instructions) == len(compiled.circuit.instructions)


def test_fingerprint_ignores_values_and_sees_structure():
    a = ParameterizedCircuit(2)
    a.add_trainable("u3", [0])
    a.add_encoder("ry", [1], [2])
    a.add_fixed("cx", [0, 1])

    b = ParameterizedCircuit(2)
    b.add_trainable("u3", [0])
    b.add_encoder("ry", [1], [2])
    b.add_fixed("cx", [0, 1])
    assert parametric_fingerprint(a) == parametric_fingerprint(b)
    assert num_feature_params(a) == 3

    c = ParameterizedCircuit(2)
    c.add_trainable("u3", [0])
    c.add_encoder("ry", [1], [3])  # different feature slot
    c.add_fixed("cx", [0, 1])
    assert parametric_fingerprint(a) != parametric_fingerprint(c)


def test_bind_rejects_short_value_vectors(yorktown):
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("u3", [0])
    circuit.add_encoder("ry", [1], [1])
    parametric = parametric_transpile(circuit, yorktown)
    with pytest.raises(ValueError):
        parametric.bind(np.zeros(2))  # needs 3 weights + 2 features
