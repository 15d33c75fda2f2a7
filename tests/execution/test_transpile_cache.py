"""The LRU transpilation cache: identity on hits, no shared-state mutation."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.execution import ExecutionEngine, TranspileCache
from repro.transpile.compiler import transpile


def build_bound_circuit(supercircuit, config, weights_seed=0):
    circuit, _ = supercircuit.build_standalone_circuit(config)
    weights = supercircuit.inherited_weights(config)
    features = np.linspace(-1.0, 1.0, 16)
    return circuit.bind(weights, features)


def snapshot_compiled(compiled):
    """A deep, independent snapshot of a compiled circuit's object graph."""
    return {
        "instructions": [
            (inst.gate, inst.qubits, inst.params)
            for inst in compiled.circuit.instructions
        ],
        "n_qubits": compiled.circuit.n_qubits,
        "initial_layout": copy.deepcopy(compiled.initial_layout),
        "final_layout": copy.deepcopy(compiled.final_layout),
        "used_qubits": tuple(compiled.used_qubits),
        "num_swaps": compiled.num_swaps,
    }


def test_cache_hit_returns_identical_object_graph(u3cu3_supercircuit, yorktown):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=3))
    bound = build_bound_circuit(u3cu3_supercircuit, evolution.random_config())
    mapping = evolution.random_mapping()

    cache = TranspileCache(maxsize=8)
    first = cache.get(bound, yorktown, initial_layout=mapping, optimization_level=2)
    second = cache.get(bound, yorktown, initial_layout=mapping, optimization_level=2)
    assert second is first
    assert cache.stats.misses == 1 and cache.stats.hits == 1

    # identical circuit content through a *different* object also hits
    clone = bound.copy()
    third = cache.get(clone, yorktown, initial_layout=mapping, optimization_level=2)
    assert third is first
    assert cache.stats.hits == 2

    # a cached compilation matches an uncached transpile of the same inputs
    fresh = transpile(bound, yorktown, initial_layout=mapping, optimization_level=2)
    assert snapshot_compiled(fresh) == snapshot_compiled(first)


def test_cache_distinguishes_layout_level_and_params(u3cu3_supercircuit, yorktown):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=4))
    config = evolution.random_config()
    bound = build_bound_circuit(u3cu3_supercircuit, config)
    mapping_a = evolution.random_mapping()
    mapping_b = evolution.random_mapping()
    assert mapping_a != mapping_b

    cache = TranspileCache(maxsize=16)
    a = cache.get(bound, yorktown, initial_layout=mapping_a)
    b = cache.get(bound, yorktown, initial_layout=mapping_b)
    c = cache.get(bound, yorktown, initial_layout=mapping_a, optimization_level=1)
    assert a is not b and a is not c
    assert cache.stats.misses == 3 and cache.stats.hits == 0


def test_cache_evicts_least_recently_used(u3cu3_supercircuit, yorktown):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=5))
    bound = build_bound_circuit(u3cu3_supercircuit, evolution.random_config())
    mappings = [evolution.random_mapping() for _ in range(3)]

    cache = TranspileCache(maxsize=2)
    first = cache.get(bound, yorktown, initial_layout=mappings[0])
    cache.get(bound, yorktown, initial_layout=mappings[1])
    cache.get(bound, yorktown, initial_layout=mappings[2])  # evicts mappings[0]
    assert cache.stats.evictions == 1
    replacement = cache.get(bound, yorktown, initial_layout=mappings[0])
    assert replacement is not first
    assert cache.stats.misses == 4


def test_population_evaluation_never_mutates_cached_compilations(
    u3cu3_supercircuit, yorktown, tiny_dataset
):
    """Candidates sharing a (genome, mapping) pair share one compiled circuit;
    evaluating a population must leave every cached compilation untouched.

    Runs in ``success_rate`` mode, which compiles one bound circuit per
    candidate through the bound-key cache; the parametric structure cache
    has its own immutability test in ``test_parametric_cache.py``.
    """
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=6))
    config_a, config_b = evolution.random_config(), evolution.random_config()
    mapping = evolution.random_mapping()
    candidates = [
        Candidate(config_a, mapping),
        Candidate(config_b, mapping),
        Candidate(config_a, mapping),  # duplicate: must reuse the compilation
    ]

    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="success_rate", n_valid_samples=2)
    )
    engine = ExecutionEngine(estimator, u3cu3_supercircuit)
    first_scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert first_scores[0] == first_scores[2]

    entries = list(engine.transpile_cache._entries.values())
    assert entries, "population evaluation should have populated the cache"
    snapshots = [snapshot_compiled(compiled) for compiled in entries]
    misses_before = engine.transpile_cache.stats.misses

    second_scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert second_scores == first_scores
    # the second pass is served from cache without recompiling...
    assert engine.transpile_cache.stats.misses == misses_before
    # ...returns the identical objects, and nothing mutated them
    assert {id(c) for c in engine.transpile_cache._entries.values()} == {
        id(c) for c in entries
    }
    for compiled, snapshot in zip(entries, snapshots):
        assert snapshot_compiled(compiled) == snapshot


def test_cache_rejects_invalid_maxsize():
    with pytest.raises(ValueError):
        TranspileCache(maxsize=0)
