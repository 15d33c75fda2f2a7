"""The structure-keyed parametric transpile cache and its engine wiring.

Covers the accounting contract (structure hits, bind requests, one template
per structure, fallbacks), object identity for repeated fallback bindings,
immutability of cached compilations across population evaluations, and the
warm-start sharing of one cache instance between engines, pipeline stages
and the deploy backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.devices import QuantumBackend
from repro.execution import ExecutionEngine, ParametricTranspileCache, TranspileCache
from repro.qml import encoder_for_task
from repro.transpile.compiler import transpile

ATOL = 1e-9


def structure_inputs(u3cu3_supercircuit, yorktown, seed=3):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=seed))
    candidate = Candidate(evolution.random_config(), evolution.random_mapping())
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    return candidate, circuit, weights


def test_structure_and_bind_hit_accounting(u3cu3_supercircuit, yorktown):
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    features = np.linspace(-1.0, 1.0, 16)
    cache = ParametricTranspileCache()

    first = cache.get_bound(circuit, weights, features, yorktown, candidate.mapping)
    assert cache.stats.structure_misses == 1
    assert cache.stats.bind_requests == 1
    assert cache.stats.variants_compiled == 1

    # identical binding: bound again through the template, so an equal
    # circuit but not the identical object (only fallback rows are memoized)
    second = cache.get_bound(circuit, weights, features, yorktown, candidate.mapping)
    assert second is not first
    assert instruction_stream(second) == instruction_stream(first)
    assert cache.stats.bind_requests == 2
    assert cache.stats.fallbacks == 0
    assert cache.stats.structure_misses == 1

    # new binding, same structure: no recompilation of the structure
    third = cache.get_bound(
        circuit, weights, features + 0.25, yorktown, candidate.mapping
    )
    assert third is not first
    assert cache.stats.structure_misses == 1
    assert cache.stats.structure_hits == 2
    assert cache.stats.bind_requests == 3

    # different mapping: a different structure entry
    other_mapping = tuple(reversed(candidate.mapping))
    cache.get_bound(circuit, weights, features, yorktown, other_mapping)
    assert cache.stats.structure_misses == 2
    assert len(cache) == 2


def test_bound_results_match_seed_pinned_transpile(u3cu3_supercircuit, yorktown):
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    cache = ParametricTranspileCache()
    rng = np.random.default_rng(2)
    for _ in range(4):
        features = rng.uniform(-1.5, 1.5, 16)
        compiled = cache.get_bound(
            circuit, weights, features, yorktown, candidate.mapping
        )
        seed = cache.key_for(circuit, yorktown, candidate.mapping, 2)[-1]
        fresh = transpile(
            circuit.bind(weights, features),
            yorktown,
            initial_layout=candidate.mapping,
            optimization_level=2,
            seed=seed,
        )
        assert [(i.gate, i.qubits) for i in compiled.circuit.instructions] == [
            (i.gate, i.qubits) for i in fresh.circuit.instructions
        ]
        assert compiled.success_rate() == pytest.approx(
            fresh.success_rate(), abs=ATOL
        )


def instruction_stream(compiled):
    return [(i.gate, i.qubits, i.params) for i in compiled.circuit.instructions]


def test_branch_crossings_are_served_by_the_fallback(u3cu3_supercircuit, yorktown):
    """Each structure holds one template; every binding that crosses one of
    its compile-time branches is served exactly by the bound-key fallback,
    however often crossings recur, and the result does not depend on the
    order the rows arrive in."""
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    generic = np.linspace(0.3, 1.8, 16)
    # the first run of physical qubit 4 holds its encoder gates and a CU3's
    # leading U1 piece; with those features zeroed it multiplies to a
    # diagonal matrix, so its replay node emits one RZ where the template
    # holds five, and both rows cross
    zeroed = np.zeros(16)
    zeroed_2 = np.zeros(16)
    zeroed_2[0] = 0.7
    crossing = [zeroed, zeroed_2]
    requests = [generic, zeroed, zeroed, zeroed_2, zeroed_2]

    def serve(order):
        fallback = TranspileCache(maxsize=32)
        cache = ParametricTranspileCache(fallback=fallback)
        served = [
            cache.get_bound(circuit, weights, row, yorktown, candidate.mapping)
            for row in order
        ]
        return cache, fallback, served

    cache, fallback, served = serve(requests)
    assert cache.stats.variants_compiled == 1
    assert cache.stats.fallbacks == 4
    assert fallback.stats.misses == 2
    assert fallback.stats.hits == 2
    # a repeated crossing row is the bound-key cache's memoized object, not
    # a new compile
    assert served[2] is served[1] and served[4] is served[3]
    seed = cache.key_for(circuit, yorktown, candidate.mapping, 2)[-1]
    for row, compiled in zip(crossing, (served[1], served[3])):
        fresh = transpile(
            circuit.bind(weights, row),
            yorktown,
            initial_layout=candidate.mapping,
            optimization_level=2,
            seed=seed,
        )
        assert instruction_stream(compiled) == instruction_stream(fresh)
        assert compiled.used_qubits == fresh.used_qubits

    reversed_cache, reversed_fallback, reversed_served = serve(requests[::-1])
    for compiled, again in zip(served, reversed_served[::-1]):
        assert instruction_stream(again) == instruction_stream(compiled)

    def counters(stats):
        return {name: value for name, value in stats.to_dict().items()
                if not name.endswith("_seconds")}

    assert counters(reversed_cache.stats) == counters(cache.stats)
    assert counters(reversed_fallback.stats) == counters(fallback.stats)


def test_failed_compile_leaves_no_structure_entry(u3cu3_supercircuit, yorktown):
    """A structure is cached only once its template compiled: a layout the
    device cannot host raises, leaves no entry, and the retry is a miss."""
    _candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    features = np.linspace(-1.0, 1.0, 16)
    cache = ParametricTranspileCache()
    bad_layout = (0, 1, 2, 9)  # yorktown has physical qubits 0-4
    for attempt in (1, 2):
        with pytest.raises(ValueError):
            cache.get_bound(circuit, weights, features, yorktown, bad_layout)
        assert len(cache) == 0
        assert cache.stats.structure_misses == attempt
        assert cache.stats.structure_hits == 0


def test_fallback_shares_the_structure_seed_at_level_3(
    u3cu3_supercircuit, yorktown
):
    """Template binds and exact fallbacks must share one pinned SABRE seed:
    a branch-crossing binding served by the fallback has to equal a fresh
    transpile with the *structure* key's seed, not the bound key's."""
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    cache = ParametricTranspileCache()
    generic = np.linspace(0.3, 1.8, 16)
    cache.get_bound(circuit, weights, generic, yorktown, "sabre", 3)

    zeroed = np.zeros(16)
    compiled = cache.get_bound(circuit, weights, zeroed, yorktown, "sabre", 3)
    assert cache.stats.fallbacks == 1
    seed = cache.key_for(circuit, yorktown, "sabre", 3)[-1]
    fresh = transpile(
        circuit.bind(weights, zeroed),
        yorktown,
        initial_layout="sabre",
        optimization_level=3,
        seed=seed,
    )
    assert compiled.initial_layout == fresh.initial_layout
    assert compiled.success_rate() == pytest.approx(
        fresh.success_rate(), abs=ATOL
    )


def test_population_evaluation_keeps_parametric_compilations_immutable(
    yorktown, tiny_dataset
):
    space = get_design_space("u3cu3")
    # a private SuperCircuit: the test prunes its parameters
    supercircuit = SuperCircuit(space, 4, encoder=encoder_for_task("mnist-4"), seed=3)
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=6))
    config_a, config_b = evolution.random_config(), evolution.random_config()
    mapping = evolution.random_mapping()
    candidates = [
        Candidate(config_a, mapping),
        Candidate(config_b, mapping),
        Candidate(config_a, mapping),  # duplicate: must reuse the compilation
    ]
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="noise_sim", n_valid_samples=2)
    )
    engine = ExecutionEngine(estimator, supercircuit)
    cache = engine.parametric_cache

    # the templates are traced against the inherited weights, and the
    # blank pixel of the first validation image binds through them
    blank_row = tiny_dataset.x_valid[0]
    assert (blank_row == 0.0).any()
    engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert cache.stats.fallbacks == 0
    circuit, _ = supercircuit.build_standalone_circuit(config_a)
    weights = supercircuit.inherited_weights(config_a)
    compiled = cache.get_bound(circuit, weights, blank_row, yorktown, mapping)
    assert cache.stats.fallbacks == 0
    fresh = transpile(
        circuit.bind(weights, blank_row), yorktown, initial_layout=mapping,
        optimization_level=2, seed=cache.key_for(circuit, yorktown, mapping, 2)[-1],
    )
    assert [(i.gate, i.qubits) for i in compiled.circuit.instructions] == [
        (i.gate, i.qubits) for i in fresh.circuit.instructions
    ]
    for got, ref in zip(compiled.circuit.instructions, fresh.circuit.instructions):
        wrapped = (np.subtract(got.params, ref.params) + np.pi) % (2 * np.pi) - np.pi
        assert np.all(np.abs(wrapped) < ATOL)

    # pruning moves the weights off the templates' witness, as training
    # moves deploy's: these rows cross and fill the bound-key fallback
    parameters = supercircuit.parameters.copy()
    parameters[::2] = 0.0
    supercircuit.update_parameters(parameters)
    first_scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert first_scores[0] == first_scores[2]
    assert cache.stats.fallbacks > 0

    bound = list(cache.fallback._entries.values())
    assert bound, "population evaluation should have populated the fallback"
    snapshots = [
        [
            (inst.gate, inst.qubits, inst.params)
            for inst in compiled.circuit.instructions
        ]
        for compiled in bound
    ]
    variants_before = cache.stats.variants_compiled

    second_scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert second_scores == first_scores
    # second pass: no recompilation, identical objects, nothing mutated
    assert cache.stats.variants_compiled == variants_before
    assert {id(c) for c in cache.fallback._entries.values()} == {
        id(c) for c in bound
    }
    for compiled, snapshot in zip(bound, snapshots):
        assert [
            (inst.gate, inst.qubits, inst.params)
            for inst in compiled.circuit.instructions
        ] == snapshot


def test_engine_parametric_matches_seed_path(
    u3cu3_supercircuit, yorktown, tiny_dataset, seed_path_scorer
):
    """The template path reproduces the per-candidate seed path."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=11))
    candidates = [
        Candidate(evolution.random_config(), evolution.random_mapping())
        for _ in range(4)
    ]
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=3)
    engine = ExecutionEngine(
        PerformanceEstimator(yorktown, config), u3cu3_supercircuit
    )
    scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    reference = seed_path_scorer(
        yorktown, u3cu3_supercircuit, config, dataset=tiny_dataset, n_classes=4
    )(candidates)
    np.testing.assert_allclose(scores, reference, rtol=0, atol=ATOL)


def test_caches_are_shared_across_engines_and_backend(u3cu3_supercircuit, yorktown):
    """The estimator owns the caches: engines and the deploy backend reuse them."""
    estimator = PerformanceEstimator(yorktown, EstimatorConfig(mode="noise_sim"))
    engine_a = ExecutionEngine(estimator, u3cu3_supercircuit)
    engine_b = ExecutionEngine(estimator, u3cu3_supercircuit)
    assert engine_a.transpile_cache is estimator.transpile_cache
    assert engine_b.transpile_cache is estimator.transpile_cache
    assert engine_a.parametric_cache is estimator.parametric_transpile_cache
    assert engine_b.parametric_cache is estimator.parametric_transpile_cache
    # the parametric cache falls back into the same bound-key cache
    assert estimator.parametric_transpile_cache.fallback is estimator.transpile_cache

    backend = QuantumBackend(
        yorktown,
        shots=0,
        transpile_cache=estimator.transpile_cache,
        parametric_cache=estimator.parametric_transpile_cache,
    )
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    features = np.linspace(-1.0, 1.0, 16)
    backend.run_parameterized(
        circuit, weights, features, initial_layout=candidate.mapping
    )
    # the backend's run populated the estimator-owned structure cache
    assert len(estimator.parametric_transpile_cache) == 1


def test_backend_run_parameterized_matches_run(u3cu3_supercircuit, yorktown):
    """Without caches run_parameterized is exactly run(bind(...)); with caches
    it produces the same numbers through the template path."""
    candidate, circuit, weights = structure_inputs(u3cu3_supercircuit, yorktown)
    features = np.linspace(-0.8, 1.2, 16)

    plain = QuantumBackend(yorktown, shots=0, seed=0)
    reference = plain.run(
        circuit.bind(weights, features), initial_layout=candidate.mapping
    )

    cached = QuantumBackend(
        yorktown,
        shots=0,
        seed=0,
        parametric_cache=ParametricTranspileCache(),
    )
    via_template = cached.run_parameterized(
        circuit, weights, features, initial_layout=candidate.mapping
    )
    np.testing.assert_allclose(
        via_template.probabilities, reference.probabilities, rtol=0, atol=ATOL
    )


def test_cache_rejects_invalid_sizes():
    with pytest.raises(ValueError):
        ParametricTranspileCache(maxsize=0)
