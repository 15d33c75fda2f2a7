"""Pinned-seed shot sampling on the gradient engine's ``real_qc`` rows.

The shot backend's contract: results carry *sampling* noise (they are not
the noiseless-simulator numbers) but are bit-for-bit deterministic — across
repeated evaluations, across engine instances and whatever else runs in the
same call — because every job's rng stream is pinned to a pure function of
its content (shift-rule row label and sample index), never of scheduling
order.  Sharded gradient rows are covered by ``tests/gradients`` at
``shots=64/96``; this module pins the seed derivation itself, and the
population engine's ``real_qc`` paths, which stay sequential under any
worker count.
"""

from __future__ import annotations

import numpy as np

from repro.backends import ShotSamplerBackend
from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.devices import QuantumBackend
from repro.execution import ExecutionEngine, ShardedExecutionEngine
from repro.gradients import BatchedGradientEngine, GradientEngineConfig


def real_qc_rows(u3cu3_supercircuit, yorktown, seed):
    """A candidate's circuit, its inherited weights and three weight rows."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=seed))
    candidate = evolution.random_candidate()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    rows = np.stack([weights, weights + 0.3, weights - 0.2])
    return candidate, circuit, weights, rows


def test_shot_scores_are_bitwise_deterministic(u3cu3_supercircuit, yorktown,
                                               tiny_dataset):
    candidate, circuit, weights, rows = real_qc_rows(
        u3cu3_supercircuit, yorktown, seed=13
    )
    features = tiny_dataset.x_valid[:2]

    def fresh_engine():
        return BatchedGradientEngine(
            yorktown, GradientEngineConfig(shots=64, seed=4),
            initial_layout=candidate.mapping,
        )

    engine = fresh_engine()
    first = engine.qml_expectations_rows(
        circuit, rows, features, witness_weights=weights
    )
    second = engine.qml_expectations_rows(
        circuit, rows, features, witness_weights=weights
    )
    fresh = fresh_engine().qml_expectations_rows(
        circuit, rows, features, witness_weights=weights
    )
    assert np.array_equal(first, second)
    assert np.array_equal(first, fresh)
    # a row alone, under its label, draws the stream it drew among others
    alone = fresh_engine().qml_expectations_rows(
        circuit, rows[2:], features, row_labels=np.array([2]),
        witness_weights=weights,
    )
    assert np.array_equal(alone[0], first[2])
    # the same row under another label draws another stream
    relabelled = fresh_engine().qml_expectations_rows(
        circuit, rows[2:], features, row_labels=np.array([7]),
        witness_weights=weights,
    )
    assert not np.array_equal(relabelled[0], first[2])


def test_shot_scores_are_worker_count_invariant(u3cu3_supercircuit, yorktown,
                                                tiny_dataset):
    """Population real_qc scores consume one rng stream in population order,
    so the sharded engine keeps them in the parent process: any worker
    count gives the in-process scores, bit for bit."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=17))
    candidates = [evolution.random_candidate() for _ in range(4)]
    by_workers = {}
    for workers in (1, 2):
        config = EstimatorConfig(
            mode="real_qc", n_valid_samples=2, shots=64, workers=workers,
            shard_min_group_size=1,
        )
        estimator = PerformanceEstimator(yorktown, config)
        engine_class = ShardedExecutionEngine if workers > 1 else ExecutionEngine
        with engine_class(estimator, u3cu3_supercircuit) as engine:
            by_workers[workers] = engine.evaluate_qml_population(
                candidates, tiny_dataset, 4
            )
            assert engine.stats.sequential_fallbacks == len(candidates)
    assert by_workers[1] == by_workers[2]


def test_shot_scores_differ_from_noiseless_simulation(u3cu3_supercircuit,
                                                      yorktown, tiny_dataset):
    """Finite shots must actually sample (not silently fall back to the
    density engine), and the sampled expectations stay within sampling
    error of the exact noisy ones."""
    candidate, circuit, weights, rows = real_qc_rows(
        u3cu3_supercircuit, yorktown, seed=19
    )
    features = tiny_dataset.x_valid[:2]

    def expectations(shots):
        engine = BatchedGradientEngine(
            yorktown, GradientEngineConfig(shots=shots, seed=4),
            initial_layout=candidate.mapping,
        )
        values = engine.qml_expectations_rows(
            circuit, rows, features, witness_weights=weights
        )
        return values, engine

    sampled, shot_engine = expectations(64)
    simulated, density_engine = expectations(0)
    assert shot_engine.resolve_mode() == "real_qc"
    assert density_engine.resolve_mode() == "noise_sim"
    assert shot_engine.stats.shot_jobs == rows.shape[0] * len(features)
    assert density_engine.stats.shot_jobs == 0
    assert not np.array_equal(sampled, simulated)
    # 64 shots: a Z expectation's standard error is at most 1/8
    assert np.max(np.abs(sampled - simulated)) < 0.75


def test_job_seeds_match_manual_run_parameterized(u3cu3_supercircuit, yorktown,
                                                  tiny_dataset):
    """A ``real_qc`` QML row is literally QuantumBackend.run_parameterized
    with the pinned seed of job ``("pshift", row label, sample)`` — pin the
    derivation so it never silently changes."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=23))
    candidate = evolution.random_candidate()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)
    rows = np.stack([weights, weights + 0.3, weights - 0.2])
    labels = np.array([5, 6, 9])  # global labels of a sharded slice
    features = tiny_dataset.x_valid[:2]
    config = GradientEngineConfig(shots=128, seed=4)
    engine = BatchedGradientEngine(
        yorktown, config, initial_layout=candidate.mapping
    )
    assert engine.resolve_mode() == "real_qc"
    expectations = engine.qml_expectations_rows(
        circuit, rows, features, row_labels=labels, witness_weights=weights
    )
    assert engine.stats.shot_jobs == len(rows) * len(features)

    sampler = ShotSamplerBackend(engine)
    backend = QuantumBackend(
        yorktown, shots=128, max_density_qubits=config.max_density_qubits
    )
    manual = np.zeros_like(expectations)
    for r, (label, row) in enumerate(zip(labels, rows)):
        for b, sample in enumerate(features):
            backend.reseed(sampler.job_seed(("pshift", int(label), b)))
            manual[r, b] = backend.run_parameterized(
                circuit, row, sample, initial_layout=candidate.mapping,
                optimization_level=config.optimization_level, shots=128,
            ).expectation_z_all()
    assert np.array_equal(expectations, manual)


def test_qml_real_qc_takes_the_sequential_path(u3cu3_supercircuit, yorktown,
                                               tiny_dataset, seed_path_scorer):
    """Population real_qc scores consume the estimator backend's shot stream
    in population order: the engine scores candidate by candidate, so its
    scores are the seed path's, bit for bit."""
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=29))
    candidates = [evolution.random_candidate() for _ in range(3)]
    config = EstimatorConfig(mode="real_qc", n_valid_samples=2, shots=64)
    with ExecutionEngine(
        PerformanceEstimator(yorktown, config), u3cu3_supercircuit
    ) as engine:
        scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert engine.stats.sequential_fallbacks == len(candidates)
        assert engine.stats.populations == 0
    assert scores == seed_path_scorer(
        yorktown, u3cu3_supercircuit, config, dataset=tiny_dataset, n_classes=4
    )(candidates)


def test_vqe_real_qc_keeps_the_sequential_measurement_path(yorktown):
    """The shot backend samples Z-basis readout only: VQE real_qc stays on
    the sequential measurement-plan path."""
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
        yorktown, EstimatorConfig(mode="real_qc", shots=64)
    )
    with ExecutionEngine(estimator, supercircuit) as engine:
        engine.evaluate_vqe_population(candidates, molecule)
        assert engine.stats.sequential_fallbacks == len(candidates)
