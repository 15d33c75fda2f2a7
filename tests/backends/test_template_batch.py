"""The vectorized template bind feeding the density backend.

``bind_batch`` must be a pure reorganization of per-row ``bind`` calls: same
instruction skeleton, same angles (to the round-off of one matmul against
many matvecs, and of numpy's array replay against python's scalar one),
same branch behavior — rows that cross a compile-time branch are rejected
exactly like ``bind`` raising ``ParametricBindMismatch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.execution.cache import ParametricTranspileCache
from repro.quantum.circuit import Instruction, ParameterizedCircuit
from repro.transpile.compiler import transpile
from repro.transpile.parametric import (
    _default_witness,
    num_feature_params,
    parametric_transpile,
)

from parametric_corpus import (
    LAYOUT_KINDS,
    layout_spec,
    random_binding,
    random_parameterized_circuit,
)


def structure_for(supercircuit, device, seed=21):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, device, EvolutionConfig(seed=seed))
    candidate = evolution.random_candidate()
    circuit, _ = supercircuit.build_standalone_circuit(candidate.config)
    weights = supercircuit.inherited_weights(candidate.config)
    return circuit, weights, candidate


def compile_template(circuit, weights, candidate, device):
    """A template traced against the cache's hybrid witness: the real
    weights (whose branch signs every sample shares) joined with generic
    nowhere-zero feature values."""
    generic = _default_witness(num_feature_params(circuit), None)
    return parametric_transpile(
        circuit,
        device,
        initial_layout=candidate.mapping,
        seed=7,
        witness_values=np.concatenate([weights, generic]),
    )


def test_bind_batch_matches_per_row_bind(u3cu3_supercircuit, yorktown, rng):
    circuit, weights, candidate = structure_for(u3cu3_supercircuit, yorktown)
    template = compile_template(circuit, weights, candidate, yorktown)
    features = rng.uniform(0.2, 2.9, size=(5, template.n_features))
    values = np.concatenate(
        [np.broadcast_to(weights, (5, weights.size)), features], axis=1
    )

    ok, binding = template.bind_batch(values)
    assert ok.all()
    assert binding.n_rows == 5
    assert len(binding.slots) == template.num_instructions

    for position, row in enumerate(binding.rows):
        compiled = template.bind(values[int(row)])
        reduced, used = compiled.reduced_circuit()
        assert used == binding.used_qubits
        for slot, inst in zip(binding.slots, reduced.instructions):
            if type(slot) is Instruction:
                assert (slot.gate, slot.qubits, slot.params) == (
                    inst.gate, inst.qubits, inst.params
                )
            else:
                gate, qubits, params = slot
                assert (gate, qubits) == (inst.gate, inst.qubits)
                np.testing.assert_allclose(
                    params[position], inst.params, rtol=0, atol=1e-12
                )


def assert_row_matches_bind(binding, position, compiled):
    """Row ``position`` of a batch binding equals ``compiled``, a scalar
    bind of the same row: the same skeleton, shared instructions equal, and
    angles within 1e-12 modulo ``2*pi`` (numpy and python may round a
    product's phase differently, which moves an angle on the ``pi`` wrap
    point by a full turn)."""
    reduced, used = compiled.reduced_circuit()
    assert used == binding.used_qubits
    assert binding.final_layout == compiled.final_layout
    assert len(binding.slots) == len(reduced.instructions)
    for slot, inst in zip(binding.slots, reduced.instructions):
        if type(slot) is Instruction:
            assert (slot.gate, slot.qubits, slot.params) == (
                inst.gate, inst.qubits, inst.params
            )
            continue
        gate, qubits, angles = slot
        assert (gate, qubits) == (inst.gate, inst.qubits)
        turns = np.subtract(angles[position], inst.params) / (2.0 * np.pi)
        assert np.all(np.abs(turns - np.round(turns)) * 2.0 * np.pi < 1e-12)


def corpus_rows(circuit, weights, features, rng):
    """The witness row, two generic rows, blank pixels (zero and full-turn
    features), pruned weights (every other one zero, as after pruning),
    and both at once: every kind the engines bind, branch crossings
    included."""
    def row(weights, features):
        return np.concatenate([weights, features])

    pruned_weights = weights.copy()
    pruned_weights[::2] = 0.0
    blank = np.zeros_like(features)
    return np.array([
        row(weights, features),
        row(*random_binding(circuit, rng)),
        row(*random_binding(circuit, rng)),
        row(weights, blank),
        row(weights, np.full_like(features, 2.0 * np.pi)),
        row(pruned_weights, features),
        row(pruned_weights, blank),
    ])


@pytest.mark.parametrize("layout_kind", LAYOUT_KINDS)
@pytest.mark.parametrize("optimization_level", [0, 1, 2, 3])
def test_bind_batch_matches_per_row_bind_over_random_structures(
    layout_kind, optimization_level
):
    """The random 2-6 qubit structures of the parametric-transpile tests,
    on yorktown and jakarta: ``bind_batch`` refuses exactly the rows
    ``try_bind`` refuses, and every row it keeps equals that row's bind."""
    rng = np.random.default_rng(
        7 * optimization_level + 31 * LAYOUT_KINDS.index(layout_kind)
    )
    outcomes = {True: 0, False: 0}
    for _trial in range(4):
        n_qubits = int(rng.integers(2, 7))
        device = get_device("yorktown" if n_qubits <= 5 else "jakarta")
        circuit = random_parameterized_circuit(n_qubits, int(rng.integers(5, 16)), rng)
        weights, features = random_binding(circuit, rng)
        template = parametric_transpile(
            circuit, device,
            initial_layout=layout_spec(layout_kind, n_qubits, device, rng),
            optimization_level=optimization_level,
            seed=int(rng.integers(1 << 30)),
            witness_values=np.concatenate([weights, features]),
        )
        values = corpus_rows(circuit, weights, features, rng)
        ok, binding = template.bind_batch(values)
        assert ok[0]  # the witness always binds
        for index, row in enumerate(values):
            compiled = template.try_bind(row)
            assert ok[index] == (compiled is not None), index
            outcomes[bool(ok[index])] += 1
            if compiled is not None:
                position = int(np.flatnonzero(binding.rows == index)[0])
                assert_row_matches_bind(binding, position, compiled)
    assert outcomes[True] and outcomes[False]  # both kinds of row occur


@pytest.mark.parametrize("optimization_level", [2, 3])
def test_rows_reviving_a_dropped_gate_are_refused(yorktown, optimization_level):
    """A witness angle of exactly zero drops its gate at trace time, and
    only that gate's emission guard sees a row bring it back: both binds
    refuse such a row, and bind what keeps the dropped gates dropped and
    the kept ones kept, even a rotation just off a full turn."""
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("ry", [0])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_trainable("rx", [1])
    circuit.add_fixed("cx", [1, 0])
    circuit.add_trainable("u1", [0])
    template = parametric_transpile(
        circuit, yorktown, optimization_level=optimization_level,
        witness_values=np.array([0.0, 1.1, 0.0]),
    )
    values = np.array([
        [0.0, 1.1, 0.0],
        [0.0, 0.4, 0.0],
        [0.5, 1.1, 0.0],  # revives the ry
        [0.0, 1.1, 0.3],  # revives the u1
        [2.0 * np.pi, 0.8, 0.0],  # a full turn stays dropped
        [0.0, 1e-7, 0.0],  # the rx stays: inside the guard's shortcut margin
        [0.0, 2.0 * np.pi - 4e-7, 0.0],
    ])
    ok, binding = template.bind_batch(values)
    assert list(ok) == [True, True, False, False, True, True, True]
    assert [template.try_bind(row) is not None for row in values] == list(ok)
    for position, row in enumerate(binding.rows):
        assert_row_matches_bind(binding, position, template.bind(values[row]))


@pytest.mark.parametrize("optimization_level", [1, 2, 3])
def test_rows_cancelling_a_merged_rotation_are_refused(
    yorktown, optimization_level
):
    """At level 1 the RZ after the ry's replay node merges with the node's
    last emitted angle, and only the guard on that sum sees a row cancel
    it to a full turn; at levels 2-3 the run's replay node sees it.  Both
    binds refuse such a row."""
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("ry", [0])
    circuit.add_trainable("rz", [0])
    circuit.add_fixed("cx", [0, 1])
    template = parametric_transpile(
        circuit, yorktown, optimization_level=optimization_level,
        witness_values=np.array([0.7, 0.3]),
    )
    values = np.array([
        [0.7, 0.3],
        [0.7, -np.pi],  # the node emits rz(pi): the merged sum is zero
        [0.2, 3.0 * np.pi],
        [0.7, np.pi / 2],
    ])
    ok, binding = template.bind_batch(values)
    assert list(ok) == [True, False, False, True]
    assert [template.try_bind(row) is not None for row in values] == list(ok)
    for position, row in enumerate(binding.rows):
        assert_row_matches_bind(binding, position, template.bind(values[row]))


@pytest.mark.parametrize("optimization_level", [2, 3])
@pytest.mark.parametrize("gate", ["rx", "ry", "u1"])
def test_rows_emptying_a_kept_gate_at_a_full_turn_are_refused(
    yorktown, gate, optimization_level
):
    """Just past a full turn the identity-drop guard reads a non-zero angle,
    but the concrete decomposition of rx, ry or u1 emits nothing, so a fresh
    compile cancels the CX pair around the gate.  The template keeps the
    pair, so both binds must refuse the row (the gate's non-empty emission
    guard and the replay node of its run each see it)."""
    circuit = ParameterizedCircuit(2)
    circuit.add_trainable("ry", [1])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_trainable(gate, [1])
    circuit.add_fixed("cx", [0, 1])
    circuit.add_trainable("ry", [1])
    witness = np.array([0.4, 1.1, 0.7])
    row = np.array([0.4, 6.283185308179586, 0.7])

    def two_qubit_gates(values):
        fresh = transpile(
            circuit.bind(values), yorktown,
            optimization_level=optimization_level,
        )
        return sum(len(inst.qubits) == 2 for inst in fresh.circuit.instructions)

    assert (two_qubit_gates(witness), two_qubit_gates(row)) == (2, 0)
    template = parametric_transpile(
        circuit, yorktown, optimization_level=optimization_level,
        witness_values=witness,
    )
    ok, _binding = template.bind_batch(np.array([witness, row]))
    assert list(ok) == [True, False]
    assert template.try_bind(witness) is not None
    assert template.try_bind(row) is None


def assert_row_matches_fresh(binding, position, fresh):
    """Row ``position`` of a batch binding equals a fresh concrete compile:
    the same gates on the same qubits, angles equal modulo ``2*pi``."""
    reduced, used = fresh.reduced_circuit()
    assert used == binding.used_qubits
    assert binding.final_layout == fresh.final_layout
    assert len(binding.slots) == len(reduced.instructions)
    for slot, inst in zip(binding.slots, reduced.instructions):
        if type(slot) is Instruction:
            gate, qubits, params = slot.gate, slot.qubits, slot.params
        else:
            gate, qubits, angles = slot
            params = angles[position]
        assert (gate, qubits) == (inst.gate, inst.qubits)
        wrapped = (np.subtract(params, inst.params) + np.pi) % (2.0 * np.pi) - np.pi
        assert np.all(np.abs(wrapped) < 1e-9)


def pruned(weights):
    """Weights with every other entry pruned to zero: they differ from the
    template's witness the way deploy's trained weights do."""
    weights = weights.copy()
    weights[::2] = 0.0
    return weights


def test_bind_batch_rejects_branch_crossing_rows(u3cu3_supercircuit, yorktown,
                                                 rng):
    """A blank sample (every encoder angle exactly zero) binds and equals a
    fresh compile: re-synthesis absorbs the zeroed encoder rotations.  A
    row with pruned weights crosses the witness's branches and must be
    rejected, not silently mis-bound."""
    circuit, weights, candidate = structure_for(u3cu3_supercircuit, yorktown)
    template = compile_template(circuit, weights, candidate, yorktown)
    features = rng.uniform(0.2, 2.9, size=(4, template.n_features))
    features[2] = 0.0  # blank sample: every encoder rotation lands on zero
    values = np.concatenate(
        [np.broadcast_to(weights, (4, weights.size)), features], axis=1
    )
    values[3, : weights.size] = pruned(weights)
    ok, binding = template.bind_batch(values)
    assert list(ok) == [True, True, True, False]
    assert binding.n_rows == 3
    assert template.try_bind(values[3]) is None  # scalar bind agrees
    fresh = transpile(
        circuit.bind(weights, features[2]), yorktown,
        initial_layout=candidate.mapping, seed=7,
    )
    assert_row_matches_fresh(binding, 2, fresh)


def test_bind_rows_serves_crossing_rows_exactly(u3cu3_supercircuit,
                                                yorktown, rng):
    circuit, weights, candidate = structure_for(u3cu3_supercircuit, yorktown)
    cache = ParametricTranspileCache(fallback=None)
    features = rng.uniform(0.2, 2.9, size=(4, 16))
    features[1] = 0.0  # blank sample: binds through the template
    values = np.concatenate(
        [np.broadcast_to(weights, (4, weights.size)), features], axis=1
    )
    values[2, : weights.size] = pruned(weights)  # crosses
    binding, fallback = cache.bind_rows(
        circuit, values, weights, yorktown, initial_layout=candidate.mapping
    )
    assert binding is not None and list(binding.rows) == [0, 1, 3]
    assert list(fallback) == [2]
    assert cache.stats.batch_binds == 1
    assert cache.stats.batch_rows == 3
    assert cache.stats.fallback_rate == pytest.approx(1 / 4)
    # the blank row equals a fresh compile at the structure's pinned seed
    fresh = transpile(
        circuit.bind(weights, features[1]), yorktown,
        initial_layout=candidate.mapping,
        seed=cache.key_for(circuit, yorktown, candidate.mapping, 2)[-1],
    )
    assert_row_matches_fresh(binding, 1, fresh)
    # the crossing row is the exact bound-key result get_bound would serve
    expected = cache.get_bound(
        circuit, pruned(weights), features[2], yorktown,
        initial_layout=candidate.mapping,
    )
    assert fallback[2] is expected


def test_engine_template_path_matches_seed_path(u3cu3_supercircuit, yorktown,
                                                tiny_dataset, seed_path_scorer):
    """End to end: the template-batch density path reproduces the
    per-candidate seed path to 1e-9 and actually exercises the vectorized
    bind."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=11))
    candidates = [evolution.random_candidate() for _ in range(4)]
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=3)
    estimator = PerformanceEstimator(yorktown, config)
    with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
        scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        template_stats = engine.stats.copy()
    reference = seed_path_scorer(
        yorktown, u3cu3_supercircuit, config, dataset=tiny_dataset, n_classes=4
    )(candidates)
    np.testing.assert_allclose(scores, reference, rtol=0, atol=1e-9)
    assert template_stats.template_batches > 0
    assert estimator.parametric_transpile_cache.stats.batch_rows > 0
