"""Pinned-seed shot sampling through the population protocol.

The shot backend's contract: scores carry *sampling* noise (they are not the
noiseless-simulator numbers) but are bit-for-bit deterministic — across
repeated evaluations, across engine instances, and across worker counts —
because every job's rng stream is pinned to a pure function of its content
(genome gene, mapping, sample index), never of scheduling order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ShotSamplerBackend
from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.devices import QuantumBackend
from repro.execution import ExecutionEngine, ShardedExecutionEngine
from repro.execution.cache import _normalize_layout


def make_population(space, device, seed, size):
    evolution = EvolutionEngine(space, 4, device, EvolutionConfig(seed=seed))
    candidates = [evolution.random_candidate() for _ in range(size)]
    candidates.append(candidates[0])  # duplicate: must score identically
    return candidates


def shots_engine(device, supercircuit, workers=1, shots=256):
    estimator = PerformanceEstimator(
        device,
        EstimatorConfig(
            mode="noise_sim", n_valid_samples=2, backend="shots", shots=shots,
            workers=workers, shard_min_group_size=1,
        ),
    )
    if workers > 1:
        return ShardedExecutionEngine(estimator, supercircuit)
    return ExecutionEngine(estimator, supercircuit)


def test_shot_scores_are_bitwise_deterministic(u3cu3_supercircuit, yorktown,
                                               tiny_dataset):
    space = get_design_space("u3cu3")
    candidates = make_population(space, yorktown, seed=13, size=3)
    with shots_engine(yorktown, u3cu3_supercircuit) as engine:
        first = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        second = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert engine.stats.shot_circuits > 0
        assert engine.stats.sequential_fallbacks == 0
    with shots_engine(yorktown, u3cu3_supercircuit) as engine:
        fresh = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert first == second == fresh
    # the duplicated candidate draws the same pinned stream
    assert first[0] == first[-1]


def test_shot_scores_are_worker_count_invariant(u3cu3_supercircuit, yorktown,
                                                tiny_dataset):
    space = get_design_space("u3cu3")
    candidates = make_population(space, yorktown, seed=17, size=4)
    by_workers = {}
    for workers in (1, 2):
        with shots_engine(yorktown, u3cu3_supercircuit, workers=workers) as engine:
            by_workers[workers] = engine.evaluate_qml_population(
                candidates, tiny_dataset, 4
            )
    assert by_workers[1] == by_workers[2]


def test_shot_scores_differ_from_noiseless_simulation(u3cu3_supercircuit,
                                                      yorktown, tiny_dataset):
    """Finite shots must actually sample (not silently fall back to the
    density engine)."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, yorktown, seed=19, size=2)
    with shots_engine(yorktown, u3cu3_supercircuit, shots=64) as engine:
        sampled = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="noise_sim", n_valid_samples=2)
    )
    with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
        simulated = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert sampled != simulated


def test_job_seeds_match_manual_run_parameterized(u3cu3_supercircuit, yorktown,
                                                  tiny_dataset):
    """The backend is literally QuantumBackend.run_parameterized with a
    pinned per-job seed — pin the derivation so it never silently changes."""
    space = get_design_space("u3cu3")
    candidate = make_population(space, yorktown, seed=23, size=1)[0]
    estimator = PerformanceEstimator(
        yorktown,
        EstimatorConfig(mode="noise_sim", n_valid_samples=2, backend="shots",
                        shots=128),
    )
    with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
        scores = engine.evaluate_qml_population([candidate], tiny_dataset, 4)

    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    features, labels = estimator.validation_subset(tiny_dataset)
    sampler = ShotSamplerBackend(estimator)
    gene_key = tuple(candidate.config.as_gene())
    mapping_key = _normalize_layout(candidate.mapping)
    backend = QuantumBackend(
        yorktown, shots=128, max_density_qubits=estimator.config.max_density_qubits
    )
    expectations = []
    for row_index, row in enumerate(features):
        backend.reseed(sampler.job_seed((gene_key, mapping_key, row_index)))
        result = backend.run_parameterized(
            circuit, weights, row, initial_layout=candidate.mapping, shots=128
        )
        expectations.append(result.expectation_z_all())

    from repro.qml.qnn import readout_matrix
    from repro.utils.stats import nll_loss, softmax

    logits = np.stack(expectations) @ readout_matrix(4, 4).T
    assert scores[0] == nll_loss(softmax(logits), labels)


def test_incapable_override_never_changes_real_qc_scores(u3cu3_supercircuit,
                                                         yorktown,
                                                         tiny_dataset):
    """Only a *shot-capable* override opts real_qc into batched dispatch; an
    ignored override (e.g. REPRO_BACKEND=statevector) must keep the
    sequential rng-stream path and its exact scores."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, yorktown, seed=29, size=3)

    def run(backend_name):
        estimator = PerformanceEstimator(
            yorktown,
            EstimatorConfig(mode="real_qc", n_valid_samples=2, shots=64,
                            backend=backend_name),
        )
        with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
            scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        return scores, engine.stats.sequential_fallbacks

    default_scores, default_fallbacks = run(None)
    ignored_scores, ignored_fallbacks = run("statevector")
    assert default_fallbacks == ignored_fallbacks == len(candidates)
    assert ignored_scores == default_scores  # bitwise: the override was a no-op
    _shot_scores, shot_fallbacks = run("shots")
    assert shot_fallbacks == 0  # shot-capable override opted in


def test_vqe_real_qc_keeps_the_sequential_measurement_path(yorktown):
    """Shot dispatch is Z-basis only: VQE real_qc stays on the sequential
    measurement-plan fallback even when the shot backend is forced."""
    from repro.core import SuperCircuit
    from repro.vqe.molecules import load_molecule

    molecule = load_molecule("h2")
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    evolution = EvolutionEngine(
        space, molecule.n_qubits, yorktown, EvolutionConfig(seed=5)
    )
    candidates = [evolution.random_candidate() for _ in range(2)]
    estimator = PerformanceEstimator(
        yorktown,
        EstimatorConfig(mode="real_qc", shots=64, backend="shots"),
    )
    with ExecutionEngine(estimator, supercircuit) as engine:
        engine.evaluate_vqe_population(candidates, molecule)
        assert engine.stats.sequential_fallbacks == len(candidates)
