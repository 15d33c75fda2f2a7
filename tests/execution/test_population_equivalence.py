"""Equivalence of the batched execution engine and the sequential estimator.

The batched engine is only allowed to *reorganize* work, never to change the
numbers: expectations, losses and evolution rankings must agree with the
per-candidate seed path to 1e-9 in both estimator modes the co-search uses
(``noise_sim`` and ``success_rate``).  Noise-free terms run the seed path's
own forward pass, so ``noise_free`` and ``success_rate`` scores agree bit
for bit, and so do VQE ``noise_sim`` energies, whose one binding per
candidate is compiled as the seed path compiles it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import DensityMatrixBackend, SimulationJob
from repro.core import EvolutionConfig, EvolutionEngine, SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.devices import QuantumBackend, get_device
from repro.execution import ExecutionEngine
from repro.qml import encoder_for_task
from repro.vqe.molecules import load_molecule

ATOL = 1e-9


def make_population(space, n_qubits, device, seed, size):
    """A seeded population with genome and (genome, mapping) duplicates."""
    evolution = EvolutionEngine(space, n_qubits, device, EvolutionConfig(seed=seed))
    candidates = [evolution.random_candidate() for _ in range(size)]
    # same genome, different mapping — exercises genome grouping
    candidates.append(Candidate(candidates[0].config, evolution.random_mapping()))
    # exact duplicate — exercises transpile/job deduplication
    candidates.append(candidates[1])
    return candidates


def batched_engine(device, supercircuit, config):
    return ExecutionEngine(PerformanceEstimator(device, config), supercircuit)


@pytest.mark.parametrize("mode,n_valid", [("success_rate", 8), ("noise_sim", 3)])
def test_qml_population_losses_match(u3cu3_supercircuit, yorktown, tiny_dataset,
                                     seed_path_scorer, mode, n_valid):
    space = get_design_space("u3cu3")
    size = 4 if mode == "noise_sim" else 6
    candidates = make_population(space, 4, yorktown, seed=11, size=size)
    config = EstimatorConfig(mode=mode, n_valid_samples=n_valid)

    seq = seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                           dataset=tiny_dataset, n_classes=4)(candidates)
    bat = batched_engine(yorktown, u3cu3_supercircuit, config) \
        .evaluate_qml_population(candidates, tiny_dataset, 4)

    np.testing.assert_allclose(bat, seq, rtol=0, atol=ATOL)
    # duplicated candidates must receive identical scores
    assert bat[1] == bat[-1]


@pytest.mark.parametrize("mode,level", [
    ("noise_free", 2), ("success_rate", 2), ("success_rate", 3),
])
def test_noise_free_qml_losses_equal_seed_path(u3cu3_supercircuit, yorktown,
                                               tiny_dataset, seed_path_scorer,
                                               mode, level):
    """noise_free losses and success_rate numerators run on the statevector
    backend, whose forward pass is the seed path's, and at level 3 the
    engine's cached compile and the seed path's uncached one pin the same
    SABRE seed: the scores are equal."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=23, size=4)
    config = EstimatorConfig(mode=mode, n_valid_samples=8,
                             optimization_level=level)
    batched = batched_engine(yorktown, u3cu3_supercircuit, config)

    seq = seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                           dataset=tiny_dataset, n_classes=4)(candidates)
    assert batched.evaluate_qml_population(candidates, tiny_dataset, 4) == seq
    assert batched.stats.statevector_batches > 0


@pytest.mark.parametrize("mode", ["noise_free", "success_rate"])
def test_sharded_noise_free_scores_equal_seed_path(u3cu3_supercircuit, yorktown,
                                                   tiny_dataset,
                                                   seed_path_scorer, mode):
    """The same equality, QML and VQE, through ``population_engine`` with two
    worker processes."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=23, size=4)
    molecule, supercircuit, h2_candidates = h2_population(yorktown)
    # shards small enough that the populations split over both workers
    config = EstimatorConfig(mode=mode, n_valid_samples=8, workers=2,
                             shard_min_group_size=2)

    with PerformanceEstimator(yorktown, config) \
            .population_engine(u3cu3_supercircuit) as engine:
        qml = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert engine.scheduler_stats.sharded_generations == 1
    with PerformanceEstimator(yorktown, config) \
            .population_engine(supercircuit) as engine:
        vqe = engine.evaluate_vqe_population(h2_candidates, molecule)
        assert engine.scheduler_stats.sharded_generations == 1

    assert qml == seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                                   dataset=tiny_dataset, n_classes=4)(candidates)
    assert vqe == seed_path_scorer(yorktown, supercircuit, config,
                                   molecule=molecule)(h2_candidates)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode,n_valid", [("success_rate", 8), ("noise_sim", 3)])
def test_reused_engine_scores_updated_parameters(yorktown, tiny_dataset,
                                                 seed_path_scorer, mode,
                                                 n_valid, workers):
    """An engine that scored a population before a SuperCircuit parameter
    update scores the new parameters: the seed path's scores at them."""
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, 4, encoder=encoder_for_task("mnist-4"),
                                seed=3)
    candidates = make_population(space, 4, yorktown, seed=11, size=4)
    config = EstimatorConfig(mode=mode, n_valid_samples=n_valid,
                             workers=workers, shard_min_group_size=2)

    with PerformanceEstimator(yorktown, config) \
            .population_engine(supercircuit) as engine:
        before = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        supercircuit.update_parameters(np.random.default_rng(5).uniform(
            -np.pi, np.pi, supercircuit.num_parameters
        ))
        after = engine.evaluate_qml_population(candidates, tiny_dataset, 4)

    seq = seed_path_scorer(yorktown, supercircuit, config,
                           dataset=tiny_dataset, n_classes=4)(candidates)
    assert not np.allclose(after, before)
    if mode == "success_rate":
        assert after == seq
    else:
        np.testing.assert_allclose(after, seq, rtol=0, atol=ATOL)


def test_level3_seed_path_is_deterministic(u3cu3_supercircuit, yorktown,
                                           tiny_dataset, seed_path_scorer):
    """Level 3 runs SABRE layout trials.  With no seed given, ``transpile``
    derives one from its inputs, so fresh estimators score alike."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=31, size=6)
    molecule, supercircuit, h2_candidates = h2_population(yorktown)
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=2,
                             optimization_level=3)

    def qml():
        return seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                                dataset=tiny_dataset, n_classes=4)(candidates)

    def vqe():
        return seed_path_scorer(yorktown, supercircuit, config,
                                molecule=molecule)(h2_candidates)

    assert qml() == qml() == qml()
    assert vqe() == vqe() == vqe()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("device_name", ["yorktown", "jakarta"])
def test_level3_noise_sim_scores_equal_seed_path(u3cu3_supercircuit,
                                                 tiny_dataset,
                                                 seed_path_scorer,
                                                 device_name, workers):
    """At level 3 a structure's template, its exact fallbacks and the seed
    path's uncached compile of every bound row seed SABRE from the structure
    alone, so they pick the same layouts and the noisy scores agree."""
    device = get_device(device_name)
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, device, seed=37, size=8)
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=3,
                             optimization_level=3, workers=workers,
                             shard_min_group_size=2)

    with PerformanceEstimator(device, config) \
            .population_engine(u3cu3_supercircuit) as engine:
        scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        if workers > 1:
            assert engine.scheduler_stats.sharded_generations == 1

    seq = seed_path_scorer(device, u3cu3_supercircuit, config,
                           dataset=tiny_dataset, n_classes=4)(candidates)
    np.testing.assert_allclose(scores, seq, rtol=0, atol=ATOL)


def test_noisy_expectations_match_backend(u3cu3_supercircuit, yorktown,
                                          tiny_dataset):
    """The batched density-matrix path pins against per-sample backend runs."""
    space = get_design_space("u3cu3")
    candidate = make_population(space, 4, yorktown, seed=5, size=1)[0]
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    features = tiny_dataset.x_valid[:3]

    estimator = PerformanceEstimator(yorktown, EstimatorConfig(mode="noise_sim"))
    density = DensityMatrixBackend(estimator)
    handles = density.run_group(None, [
        SimulationJob(compiled=estimator.parametric_transpile_cache.get_bound(
            circuit, weights, row, yorktown,
            initial_layout=candidate.mapping,
            optimization_level=estimator.config.optimization_level,
        ))
        for row in features
    ])
    density.synchronize()

    backend = QuantumBackend(yorktown, shots=0, seed=0)
    for row, handle in zip(features, handles):
        result = backend.run(
            circuit.bind(weights, row), initial_layout=candidate.mapping, shots=0
        )
        np.testing.assert_allclose(handle.logical_z_expectations(circuit.n_qubits),
                                   result.expectation_z_all(), rtol=0, atol=ATOL)


def test_oversized_qml_population_matches_seed_path(
    u3cu3_supercircuit, yorktown, tiny_dataset, seed_path_scorer
):
    """Reduced registers above ``max_density_qubits`` take the success-rate
    approximation on the engine exactly as on the seed path: every row,
    template-bound or branch-crossing, and no density matrix is evolved."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=11, size=4)
    config = EstimatorConfig(mode="noise_sim", n_valid_samples=3,
                             max_density_qubits=3)

    seq = seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                           dataset=tiny_dataset, n_classes=4)(candidates)
    engine = batched_engine(yorktown, u3cu3_supercircuit, config)
    bat = engine.evaluate_qml_population(candidates, tiny_dataset, 4)

    np.testing.assert_allclose(bat, seq, rtol=0, atol=ATOL)
    assert engine.stats.density_batches == 0
    assert engine.stats.density_circuits == len(candidates) * 3


@pytest.mark.parametrize("mode", ["noise_free", "success_rate", "noise_sim"])
def test_vqe_population_energies_match(yorktown, seed_path_scorer, mode):
    """Energies equal the seed path's in every mode: the noise-free forward
    is the seed path's, and each candidate's one binding is compiled
    concretely, as the seed path compiles it."""
    molecule, supercircuit, candidates = h2_population(yorktown)
    config = EstimatorConfig(mode=mode, n_valid_samples=8)

    seq = seed_path_scorer(yorktown, supercircuit, config,
                           molecule=molecule)(candidates)
    bat = batched_engine(yorktown, supercircuit, config) \
        .evaluate_vqe_population(candidates, molecule)
    assert bat == seq


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("molecule_name,device_name", [
    ("h2", "yorktown"), ("lih", "jakarta"),
])
def test_vqe_noise_sim_compiles_no_template(seed_path_scorer, molecule_name,
                                            device_name, workers):
    """A VQE candidate has one binding, so the engine traces no parametric
    template for it: noise_sim energies equal the seed path's bit for bit,
    in process and sharded."""
    device = get_device(device_name)
    molecule, supercircuit, candidates = vqe_population(
        device, load_molecule(molecule_name)
    )
    config = EstimatorConfig(mode="noise_sim", workers=workers,
                             shard_min_group_size=2)
    estimator = PerformanceEstimator(device, config)

    with estimator.population_engine(supercircuit) as engine:
        energies = engine.evaluate_vqe_population(candidates, molecule)
        if workers > 1:
            assert engine.scheduler_stats.sharded_generations == 1

    assert energies == seed_path_scorer(device, supercircuit, config,
                                        molecule=molecule)(candidates)
    parametric = estimator.parametric_transpile_cache.stats
    assert parametric.structure_misses == parametric.bind_requests == 0
    assert estimator.transpile_cache.stats.misses > 0


def vqe_population(device, molecule):
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    candidates = make_population(space, molecule.n_qubits, device, seed=7, size=5)
    return molecule, supercircuit, candidates


def h2_population(yorktown):
    return vqe_population(yorktown, load_molecule("h2"))


def test_vqe_noise_sim_population_runs_no_noise_free_probe(yorktown):
    """noise_sim reads a group's noise-free energy only for registers above
    max_density_qubits: a population that fits runs no statevector pass."""
    molecule, supercircuit, candidates = h2_population(yorktown)
    engine = batched_engine(yorktown, supercircuit,
                            EstimatorConfig(mode="noise_sim"))
    engine.evaluate_vqe_population(candidates, molecule)
    assert engine.stats.density_circuits == len(candidates)
    assert engine.stats.statevector_batches == 0


def test_oversized_vqe_population_matches_seed_path(yorktown, seed_path_scorer):
    """With routed registers above max_density_qubits, only the groups that
    hold one run the noise-free probe, and every energy matches the seed
    path."""
    molecule, supercircuit, candidates = h2_population(yorktown)
    config = EstimatorConfig(mode="noise_sim", max_density_qubits=2)

    seq = seed_path_scorer(yorktown, supercircuit, config,
                           molecule=molecule)(candidates)
    engine = batched_engine(yorktown, supercircuit, config)
    bat = engine.evaluate_vqe_population(candidates, molecule)

    np.testing.assert_allclose(bat, seq, rtol=0, atol=ATOL)
    assert 0 < engine.stats.density_circuits < len(candidates)
    assert 0 < engine.stats.statevector_batches < engine.stats.config_groups


@pytest.mark.parametrize("mode,n_valid,population", [
    ("success_rate", 6, 8),
    ("noise_sim", 2, 6),
])
def test_evolution_rankings_match(u3cu3_supercircuit, yorktown, tiny_dataset,
                                  seed_path_scorer, mode, n_valid, population):
    """Seeded searches driven by the seed path or the engine visit identical
    populations and produce identical rankings, best genes and history curves."""
    space = get_design_space("u3cu3")
    evolution_config = EvolutionConfig(
        iterations=2, population_size=population, parent_size=3,
        mutation_size=max(2, population - 5), crossover_size=2, seed=9,
    )
    config = EstimatorConfig(mode=mode, n_valid_samples=n_valid)
    scorers = {
        "sequential": seed_path_scorer(yorktown, u3cu3_supercircuit, config,
                                       dataset=tiny_dataset, n_classes=4),
        "batched": batched_engine(yorktown, u3cu3_supercircuit, config)
        .qml_population_scorer(tiny_dataset, 4),
    }
    results = {
        name: EvolutionEngine(space, 4, yorktown, evolution_config).search(
            population_score_fn=score
        )
        for name, score in scorers.items()
    }

    sequential, batched = results["sequential"], results["batched"]
    assert batched.best.gene() == sequential.best.gene()
    assert batched.evaluated == sequential.evaluated
    assert batched.best_score == pytest.approx(sequential.best_score, abs=ATOL)
    for row_b, row_s in zip(batched.history, sequential.history):
        for key in ("best_score", "population_best", "population_mean"):
            assert row_b[key] == pytest.approx(row_s[key], abs=ATOL)
