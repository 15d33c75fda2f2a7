"""Parallel equivalence, determinism and fault tolerance of the sharded engine.

The sharded scheduler is only allowed to *move* work between processes, never
to change the numbers: scores must match the sequential seed path and the
in-process batched engine to 1e-9, and must be bit-for-bit identical across
worker counts, across repeated evaluations, and across a worker fault that
degrades a generation to the in-process path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.devices import get_device
from repro.execution import ExecutionEngine, FaultPlan, ShardedExecutionEngine

ATOL = 1e-9
WORKER_COUNTS = (1, 2, 4)


def make_population(space, n_qubits, device, seed, size):
    """A seeded population with genome and (genome, mapping) duplicates."""
    evolution = EvolutionEngine(space, n_qubits, device, EvolutionConfig(seed=seed))
    candidates = [evolution.random_candidate() for _ in range(size)]
    candidates.append(Candidate(candidates[0].config, evolution.random_mapping()))
    candidates.append(candidates[1])
    return candidates


def sharded_engine(device, supercircuit, mode, n_valid, workers, **config_kwargs):
    estimator = PerformanceEstimator(
        device,
        EstimatorConfig(
            mode=mode,
            n_valid_samples=n_valid,
            workers=workers,
            shard_min_group_size=1,
            **config_kwargs,
        ),
    )
    return ShardedExecutionEngine(estimator, supercircuit)


def reference_engines(device, supercircuit, mode, n_valid):
    sequential = ExecutionEngine(
        PerformanceEstimator(
            device,
            EstimatorConfig(mode=mode, n_valid_samples=n_valid, engine="sequential"),
        ),
        supercircuit,
    )
    batched = ExecutionEngine(
        PerformanceEstimator(
            device,
            EstimatorConfig(mode=mode, n_valid_samples=n_valid),
        ),
        supercircuit,
    )
    return sequential, batched


# ---------------------------------------------------------------------------
# Parallel equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,n_valid,size", [
    ("noise_sim", 3, 4),
    ("success_rate", 8, 8),
])
def test_sharded_qml_matches_sequential_and_batched(u3cu3_supercircuit, yorktown,
                                                    tiny_dataset, mode, n_valid,
                                                    size):
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=11, size=size)
    sequential, batched = reference_engines(yorktown, u3cu3_supercircuit, mode, n_valid)
    seq = sequential.evaluate_qml_population(candidates, tiny_dataset, 4)
    bat = batched.evaluate_qml_population(candidates, tiny_dataset, 4)

    by_workers = {}
    for workers in WORKER_COUNTS:
        engine = sharded_engine(yorktown, u3cu3_supercircuit, mode, n_valid, workers)
        try:
            by_workers[workers] = engine.evaluate_qml_population(
                candidates, tiny_dataset, 4
            )
            if workers > 1:
                assert engine.scheduler_stats.sharded_generations == 1
            else:
                assert engine.scheduler_stats.in_process_generations == 1
        finally:
            engine.close()

    for workers, scores in by_workers.items():
        np.testing.assert_allclose(scores, seq, rtol=0, atol=ATOL)
        np.testing.assert_allclose(scores, bat, rtol=0, atol=ATOL)
        # duplicated candidates score identically wherever they run
        assert scores[1] == scores[-1]
    # bit-for-bit independent of the worker count
    assert by_workers[1] == by_workers[2] == by_workers[4]


@pytest.mark.parametrize("molecule_name,device_name,mode,size", [
    ("h2", "yorktown", "noise_sim", 4),       # 2 qubits
    ("h2", "yorktown", "success_rate", 6),
    ("lih", "jakarta", "noise_sim", 3),       # 6 qubits
    ("lih", "jakarta", "success_rate", 5),
])
def test_sharded_vqe_matches_across_qubit_range(molecule_name, device_name, mode,
                                                size):
    from repro.vqe.molecules import load_molecule

    molecule = load_molecule(molecule_name)
    device = get_device(device_name)
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    candidates = make_population(space, molecule.n_qubits, device, seed=7, size=size)
    sequential, batched = reference_engines(device, supercircuit, mode, 8)
    seq = sequential.evaluate_vqe_population(candidates, molecule)
    bat = batched.evaluate_vqe_population(candidates, molecule)

    by_workers = {}
    for workers in (1, 2):
        engine = sharded_engine(device, supercircuit, mode, 8, workers)
        try:
            by_workers[workers] = engine.evaluate_vqe_population(candidates, molecule)
        finally:
            engine.close()
    for scores in by_workers.values():
        np.testing.assert_allclose(scores, seq, rtol=0, atol=ATOL)
        np.testing.assert_allclose(scores, bat, rtol=0, atol=ATOL)
    assert by_workers[1] == by_workers[2]


@pytest.mark.parametrize("mode,n_valid,population", [
    ("success_rate", 6, 8),
    ("noise_sim", 2, 6),
])
def test_sharded_evolution_rankings_match(u3cu3_supercircuit, yorktown, tiny_dataset,
                                          mode, n_valid, population):
    """Seeded searches driven sharded visit the sequential engine's populations
    and reproduce its rankings, best gene and history curves."""
    space = get_design_space("u3cu3")
    evolution_config = EvolutionConfig(
        iterations=2, population_size=population, parent_size=3,
        mutation_size=max(2, population - 5), crossover_size=2, seed=9,
    )

    def search(engine):
        evolution = EvolutionEngine(space, 4, yorktown, evolution_config)
        try:
            return evolution.search(
                population_score_fn=engine.qml_population_scorer(tiny_dataset, 4)
            )
        finally:
            engine.close()

    sequential, _ = reference_engines(yorktown, u3cu3_supercircuit, mode, n_valid)
    reference = search(sequential)
    sharded = search(
        sharded_engine(yorktown, u3cu3_supercircuit, mode, n_valid, workers=2)
    )

    assert sharded.best.gene() == reference.best.gene()
    assert sharded.evaluated == reference.evaluated
    assert sharded.best_score == pytest.approx(reference.best_score, abs=ATOL)
    for row_s, row_r in zip(sharded.history, reference.history):
        for key in ("best_score", "population_best", "population_mean"):
            assert row_s[key] == pytest.approx(row_r[key], abs=ATOL)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,n_valid", [("noise_sim", 2), ("success_rate", 6)])
def test_same_population_twice_identical_floats(u3cu3_supercircuit, yorktown,
                                                tiny_dataset, mode, n_valid):
    """Warm re-evaluation and fresh engines at any worker count agree exactly."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=21, size=5)
    runs = {}
    for workers in WORKER_COUNTS:
        engine = sharded_engine(yorktown, u3cu3_supercircuit, mode, n_valid, workers)
        try:
            first = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
            second = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        finally:
            engine.close()
        assert first == second, f"workers={workers} not reproducible"
        runs[workers] = first
    assert runs[1] == runs[2] == runs[4]


def test_shard_planning_is_a_pure_function_of_the_population(u3cu3_supercircuit,
                                                             yorktown):
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=4, size=6)
    engine = sharded_engine(yorktown, u3cu3_supercircuit, "success_rate", 4, workers=2)
    try:
        groups = engine._plan_groups(candidates)
        reordered = engine._plan_groups(list(reversed(candidates)))
        # assignment ignores population order (indices differ, partition not)
        plan = [[key for key, _ in shard] for shard in engine._plan_shards(groups)]
        plan_reordered = [
            [key for key, _ in shard] for shard in engine._plan_shards(reordered)
        ]
        assert plan == plan_reordered
        assert sum(len(shard) for shard in plan) == len(groups)
        # shard_min_group_size collapses tiny populations to in-process
        engine.shard_min_group_size = len(candidates) + 1
        assert len(engine._plan_shards(groups)) == 1
    finally:
        engine.close()


def test_workers_one_never_creates_a_pool(u3cu3_supercircuit, yorktown, tiny_dataset):
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=2, size=4)
    engine = sharded_engine(yorktown, u3cu3_supercircuit, "success_rate", 4, workers=1)
    engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert all(executor is None for executor in engine._executors)
    assert engine.scheduler_stats.in_process_generations == 1
    engine.close()


def test_population_engine_dispatches_on_workers(yorktown, u3cu3_supercircuit):
    sharded = PerformanceEstimator(
        yorktown, EstimatorConfig(workers=2)
    ).population_engine(u3cu3_supercircuit)
    try:
        assert isinstance(sharded, ShardedExecutionEngine)
    finally:
        sharded.close()
    in_process = PerformanceEstimator(
        yorktown, EstimatorConfig(workers=1)
    ).population_engine(u3cu3_supercircuit)
    assert isinstance(in_process, ExecutionEngine)
    assert not isinstance(in_process, ShardedExecutionEngine)


def test_sequential_engine_config_stays_in_process(u3cu3_supercircuit, yorktown,
                                                   tiny_dataset):
    """engine="sequential" + workers>1 replays the seed path, never a pool."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=3, size=3)
    engine = sharded_engine(
        yorktown, u3cu3_supercircuit, "success_rate", 4, workers=2,
        engine="sequential",
    )
    sequential, _ = reference_engines(yorktown, u3cu3_supercircuit, "success_rate", 4)
    assert engine.evaluate_qml_population(candidates, tiny_dataset, 4) == \
        sequential.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert all(executor is None for executor in engine._executors)
    assert engine.scheduler_stats.generations == 0
    engine.close()


# ---------------------------------------------------------------------------
# Fault injection / resilient recovery
# ---------------------------------------------------------------------------


def test_flaky_worker_recovers_without_degrading(u3cu3_supercircuit, yorktown,
                                                 tiny_dataset):
    """A transient task error is confirmed in-process — same scores, no
    whole-generation degradation."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=13, size=4)

    healthy = sharded_engine(yorktown, u3cu3_supercircuit, "noise_sim", 2, workers=2)
    try:
        reference = healthy.evaluate_qml_population(candidates, tiny_dataset, 4)
    finally:
        healthy.close()

    engine = sharded_engine(yorktown, u3cu3_supercircuit, "noise_sim", 2, workers=2)
    engine.fault_plan = FaultPlan.parse("flaky@task_receive[shard=0,gen=0]")
    try:
        with pytest.warns(RuntimeWarning, match="recovered from worker faults"):
            recovered = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        # never a wrong score: the recovered generation is bit-for-bit the
        # healthy sharded result
        assert recovered == reference
        assert engine.scheduler_stats.worker_failures == 1
        assert engine.scheduler_stats.task_error_confirmations == 1
        assert engine.scheduler_stats.flaky_recoveries == 1
        assert engine.scheduler_stats.degraded_generations == 0
        assert engine.scheduler_stats.sharded_generations == 1

        # next generation is fault-free and shards cleanly
        again = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert again == reference
        assert engine.scheduler_stats.sharded_generations == 2
    finally:
        engine.close()


def test_crashed_worker_retries_on_survivors(u3cu3_supercircuit, yorktown,
                                             tiny_dataset):
    """A crashed pool's shard is rebalanced onto survivors — same scores,
    retry counters > 0, no degradation."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=13, size=4)

    healthy = sharded_engine(yorktown, u3cu3_supercircuit, "noise_sim", 2, workers=2)
    try:
        reference = healthy.evaluate_qml_population(candidates, tiny_dataset, 4)
    finally:
        healthy.close()

    engine = sharded_engine(yorktown, u3cu3_supercircuit, "noise_sim", 2, workers=2)
    engine.fault_plan = FaultPlan.parse("crash@task_receive[shard=0,gen=0]")
    try:
        with pytest.warns(RuntimeWarning, match="recovered from worker faults"):
            recovered = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert recovered == reference
        stats = engine.scheduler_stats
        assert stats.worker_failures >= 1
        assert stats.retried_shards >= 1
        assert stats.degraded_generations == 0
        assert stats.sharded_generations == 1
    finally:
        engine.close()


def test_exhausted_retries_degrade_with_exact_scores(u3cu3_supercircuit, yorktown,
                                                     tiny_dataset):
    """When every retry round fails, the last-resort degradation still
    produces the exact sequential scores."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=17, size=4)
    sequential, _ = reference_engines(yorktown, u3cu3_supercircuit, "success_rate", 6)
    seq = sequential.evaluate_qml_population(candidates, tiny_dataset, 4)
    engine = sharded_engine(
        yorktown, u3cu3_supercircuit, "success_rate", 6, workers=2,
        shard_retries=1, shard_backoff_seconds=0.0,
    )
    engine.fault_plan = FaultPlan.parse("crash@task_receive[times=99]")
    try:
        with pytest.warns(RuntimeWarning, match="degraded to the in-process path"):
            degraded = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        np.testing.assert_allclose(degraded, seq, rtol=0, atol=ATOL)
        stats = engine.scheduler_stats
        assert stats.worker_failures >= 2
        assert stats.degraded_generations == 1
        assert stats.sharded_generations == 0

        # pools respawn after the failed generation: a fault-free follow-up
        # generation shards again and still agrees exactly
        engine.fault_plan = FaultPlan.parse(None)
        recovered = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        np.testing.assert_allclose(recovered, seq, rtol=0, atol=ATOL)
        assert engine.scheduler_stats.sharded_generations == 1
    finally:
        engine.close()


def test_reproducing_task_error_is_reraised(u3cu3_supercircuit, yorktown,
                                            tiny_dataset, monkeypatch):
    """A task error that reproduces in the confirmation run is a real bug
    and surfaces instead of silently degrading."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=13, size=4)
    engine = sharded_engine(yorktown, u3cu3_supercircuit, "noise_sim", 2, workers=2)

    def broken(*args, **kwargs):
        raise ValueError("deterministic evaluation bug")

    try:
        # break the worker-side evaluation AND the parent's confirmation path
        monkeypatch.setattr(
            ExecutionEngine, "evaluate_qml_population", broken
        )
        with pytest.raises(ValueError, match="deterministic evaluation bug"):
            engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Process-boundary payloads
# ---------------------------------------------------------------------------


def test_engine_owned_tasks_ship_no_context_spec(u3cu3_supercircuit, yorktown,
                                                 tiny_dataset, monkeypatch):
    """An engine-owned pool builds its worker context once from initargs, so
    its shard tasks carry neither a tenant nor a context spec."""
    from repro.execution.resilience import ResilientDispatcher

    dispatched = []
    original_run = ResilientDispatcher.run

    def recording_run(self, tasks):
        dispatched.extend(tasks.values())
        return original_run(self, tasks)

    monkeypatch.setattr(ResilientDispatcher, "run", recording_run)
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=13, size=4)
    engine = sharded_engine(yorktown, u3cu3_supercircuit, "success_rate", 4,
                            workers=2)
    try:
        engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    finally:
        engine.close()
    assert len(dispatched) == 2
    for task in dispatched:
        assert task.context_spec is None
        assert task.tenant is None


# ---------------------------------------------------------------------------
# Cache merge-back accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,n_valid", [("noise_sim", 2), ("success_rate", 6)])
def test_cache_and_stats_merge_accounting(u3cu3_supercircuit, yorktown, tiny_dataset,
                                          mode, n_valid):
    """Merged worker deltas reproduce the in-process run's counters exactly,
    and the adopted entries leave the parent caches warm."""
    space = get_design_space("u3cu3")
    candidates = make_population(space, 4, yorktown, seed=29, size=5)

    counters = {}
    engines = {}
    for workers in (1, 2):
        engine = sharded_engine(yorktown, u3cu3_supercircuit, mode, n_valid, workers)
        engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        estimator = engine.estimator
        counters[workers] = {
            "num_queries": estimator.num_queries,
            "backend_executions": estimator._backend.executions,
            "bound": estimator.transpile_cache.stats.copy(),
            "parametric": estimator.parametric_transpile_cache.stats.copy(),
            "engine": engine.stats.copy(),
        }
        engines[workers] = engine

    try:
        in_process, sharded = counters[1], counters[2]
        assert sharded["num_queries"] == in_process["num_queries"] == len(candidates)
        assert sharded["backend_executions"] == in_process["backend_executions"]
        # cache counters merged from worker deltas == in-process counters
        # (compile/bind *timings* are machine-dependent, counters are not)
        for name in ("bound", "parametric"):
            merged = vars(sharded[name])
            local = vars(in_process[name])
            for field_name, value in merged.items():
                if field_name.endswith("_seconds"):
                    continue
                assert value == local[field_name], (name, field_name)
        # population-level counters counted exactly once per generation
        assert sharded["engine"].populations == 1
        assert sharded["engine"].candidates == len(candidates)
        assert sharded["engine"].config_groups == in_process["engine"].config_groups

        # adopted entries: the parent caches now serve the same population
        # without a single new compilation
        engine = engines[2]
        stats = engine.scheduler_stats
        assert stats.adopted_bound_entries + stats.adopted_structures > 0
        estimator = engine.estimator
        parametric = estimator.parametric_transpile_cache
        assert len(parametric) == stats.adopted_structures
        compiled_before = (
            parametric.stats.variants_compiled,
            estimator.transpile_cache.stats.misses,
        )
        replay = ExecutionEngine(estimator, u3cu3_supercircuit)
        replay_scores = replay.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert (
            parametric.stats.variants_compiled,
            estimator.transpile_cache.stats.misses,
        ) == compiled_before
        np.testing.assert_allclose(
            replay_scores,
            engines[1].evaluate_qml_population(candidates, tiny_dataset, 4),
            rtol=0, atol=ATOL,
        )
    finally:
        for engine in engines.values():
            engine.close()
