"""The vectorized template bind feeding the density backend.

``bind_batch`` must be a pure reorganization of per-row ``bind`` calls: same
instruction skeleton, same angles (to fp round-off of one matmul vs. many
matvecs), same branch behavior — rows that cross a compile-time branch are
rejected exactly like ``bind`` raising ``ParametricBindMismatch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.execution import ExecutionEngine
from repro.execution.cache import ParametricTranspileCache
from repro.quantum.circuit import Instruction
from repro.transpile.compiler import transpile
from repro.transpile.parametric import (
    _default_witness,
    num_feature_params,
    parametric_transpile,
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
