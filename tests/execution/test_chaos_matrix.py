"""Chaos matrix: every single-fault scenario leaves every score bitwise intact.

The acceptance contract of the resilience layer: under any single injected
worker fault — crash, hang past deadline, slow shard, flaky task error — at
any instrumented lifecycle point, in any generation, for either sharded
engine, the search completes with final scores and trajectories bitwise
identical to the fault-free run, *without* whole-generation in-process
degradation: ``degraded_generations == 0`` and the retry/recovery counters
account for what happened.

Faults are injected through the deterministic ``REPRO_FAULTS`` plan seam
(:mod:`repro.execution.faults`), so every scenario here is exactly
reproducible.  Hang scenarios use second-scale deadlines and sleeps to keep
the suite fast; the watchdog math is identical at production scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.execution import FaultPlan, ShardedExecutionEngine
from repro.gradients import GradientEngineConfig, ShardedGradientEngine
from repro.core.evolution import Candidate
from repro.qml import QNNModel, encoder_for_task


def make_population(space, n_qubits, device, seed, size):
    """A seeded population with genome and (genome, mapping) duplicates."""
    evolution = EvolutionEngine(space, n_qubits, device, EvolutionConfig(seed=seed))
    candidates = [evolution.random_candidate() for _ in range(size)]
    candidates.append(Candidate(candidates[0].config, evolution.random_mapping()))
    candidates.append(candidates[1])
    return candidates

#: every recoverable single-fault scenario: (fault kind, injection point)
#: pairs plus the expectation of which counter must account for it.
#: ``slow`` completes normally (no counters); ``flaky`` recovers through the
#: in-process confirmation; ``crash``/``hang`` retry on surviving pools.
SINGLE_FAULTS = [
    ("crash", "task_receive"),
    ("crash", "mid_evaluation"),
    ("crash", "result_send"),
    ("crash", "pool_spawn"),
    ("hang", "task_receive"),
    ("hang", "mid_evaluation"),
    ("slow", "task_receive"),
    ("slow", "result_send"),
    ("flaky", "task_receive"),
    ("flaky", "mid_evaluation"),
    ("flaky", "result_send"),
]

#: deadline/sleep sizing for the bounded-hang scenarios: the injected hang
#: sleeps far past the deadline, the watchdog budget stays test-sized
FAST_POLICY = dict(
    shard_deadline_seconds=5.0,
    shard_retries=2,
    shard_backoff_seconds=0.0,
)


def spec_for(kind: str, point: str, engine: str, generation: int = 0) -> str:
    seconds = ",seconds=30" if kind == "hang" else ""
    return f"{kind}@{point}[shard=0,gen={generation},engine={engine}{seconds}]"


def assert_recovered_cleanly(stats, kind, generations_attr, degraded_attr):
    """The per-archetype counter accounting for a recovered single fault."""
    assert getattr(stats, degraded_attr) == 0
    if kind == "slow":
        # a slow shard completes inside its deadline: nothing to recover
        assert stats.worker_failures == 0
    elif kind == "flaky":
        assert stats.task_error_confirmations == 1
        assert stats.flaky_recoveries == 1
        assert stats.retried_shards == 0
    else:  # crash / hang: infrastructure — retried, pool respawned
        assert stats.worker_failures >= 1
        assert stats.retried_shards >= 1
        assert stats.respawned_pools >= 1
        if kind == "hang":
            assert stats.deadline_timeouts >= 1


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------


def execution_engine(device, supercircuit, workers, faults=None):
    estimator = PerformanceEstimator(
        device,
        EstimatorConfig(
            mode="noise_sim", n_valid_samples=2, workers=workers,
            shard_min_group_size=1, **FAST_POLICY,
        ),
    )
    return ShardedExecutionEngine(
        estimator, supercircuit, fault_plan=FaultPlan.parse(faults)
    )


class TestExecutionChaosMatrix:
    @pytest.fixture(scope="class")
    def reference(self, yorktown, u3cu3_supercircuit, tiny_dataset):
        space = get_design_space("u3cu3")
        candidates = make_population(space, 4, yorktown, seed=23, size=4)
        engine = execution_engine(yorktown, u3cu3_supercircuit, workers=2)
        try:
            scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        finally:
            engine.close()
        return candidates, scores

    @pytest.mark.parametrize("kind,point", SINGLE_FAULTS)
    def test_single_fault_keeps_scores_bitwise(self, yorktown,
                                               u3cu3_supercircuit,
                                               tiny_dataset, reference,
                                               kind, point):
        candidates, clean_scores = reference
        engine = execution_engine(
            yorktown, u3cu3_supercircuit, workers=2,
            faults=spec_for(kind, point, "execution"),
        )
        try:
            if kind == "slow":
                scores = engine.evaluate_qml_population(
                    candidates, tiny_dataset, 4
                )
            else:
                with pytest.warns(RuntimeWarning,
                                  match="recovered from worker faults"):
                    scores = engine.evaluate_qml_population(
                        candidates, tiny_dataset, 4
                    )
            assert scores == clean_scores
            assert_recovered_cleanly(
                engine.scheduler_stats, kind,
                "sharded_generations", "degraded_generations",
            )
            assert engine.scheduler_stats.sharded_generations == 1
        finally:
            engine.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_faulty_search_trajectory_matches_fault_free(self, yorktown,
                                                         u3cu3_supercircuit,
                                                         tiny_dataset,
                                                         workers):
        """A 3-generation evolutionary search under a second-generation
        crash finishes with the identical history for every worker count."""
        space = get_design_space("u3cu3")

        def run_search(faults):
            evolution = EvolutionEngine(
                space, 4, yorktown,
                EvolutionConfig(iterations=3, population_size=6,
                                parent_size=2, mutation_size=2,
                                crossover_size=2, seed=31),
            )
            engine = execution_engine(
                yorktown, u3cu3_supercircuit, workers=workers, faults=faults
            )
            try:
                return engine, evolution.search(
                    population_score_fn=engine.qml_population_scorer(
                        tiny_dataset, 4
                    )
                )
            finally:
                engine.close()

        _clean_engine, clean = run_search(None)
        faulty_engine, faulty = run_search(
            spec_for("crash", "task_receive", "execution", generation=1)
        )
        assert faulty.history == clean.history
        assert faulty.best.gene() == clean.best.gene()
        assert faulty.best_score == clean.best_score
        assert faulty_engine.scheduler_stats.degraded_generations == 0
        if workers > 1:
            # the injected generation really dispatched and really recovered
            assert faulty_engine.scheduler_stats.retried_shards >= 1


# ---------------------------------------------------------------------------
# Gradient engine
# ---------------------------------------------------------------------------


def tiny_model():
    model = QNNModel(4, 2, encoder=encoder_for_task("mnist-2"))
    for qubit in range(4):
        model.add_trainable("ry", (qubit,))
    return model


def gradient_rows(engine, model, rows, features, weights):
    return engine.qml_expectations_rows(
        model.circuit, rows, features, witness_weights=weights
    )


class TestGradientChaosMatrix:
    @pytest.fixture(scope="class")
    def problem(self):
        model = tiny_model()
        rng = np.random.default_rng(37)
        weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
        features = rng.uniform(-np.pi, np.pi, size=(2, 16))
        config = GradientEngineConfig(seed=3, **FAST_POLICY)
        reference_engine = ShardedGradientEngine(None, config, workers=1)
        rows = np.concatenate([
            weights[None, :],
            reference_engine.shift_plan(model.circuit).shifted_weight_rows(
                weights
            ),
        ])
        reference = gradient_rows(
            reference_engine, model, rows, features, weights
        )
        return model, config, rows, features, weights, reference

    @pytest.mark.parametrize("kind,point", SINGLE_FAULTS)
    def test_single_fault_keeps_values_bitwise(self, problem, kind, point):
        model, config, rows, features, weights, reference = problem
        engine = ShardedGradientEngine(
            None, config, workers=2,
            fault_plan=FaultPlan.parse(spec_for(kind, point, "gradient")),
        )
        try:
            if kind == "slow":
                values = gradient_rows(engine, model, rows, features, weights)
            else:
                with pytest.warns(RuntimeWarning,
                                  match="recovered from worker faults"):
                    values = gradient_rows(
                        engine, model, rows, features, weights
                    )
            assert np.array_equal(values, reference)
            assert_recovered_cleanly(
                engine.scheduler_stats, kind,
                "sharded_generations", "degraded_generations",
            )
            assert engine.scheduler_stats.sharded_generations == 1
        finally:
            engine.close()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_later_step_fault_recovers_warm(self, problem, workers):
        """A fault in step 1 (warm caches) recovers bitwise too."""
        model, config, rows, features, weights, reference = problem
        engine = ShardedGradientEngine(
            None, config, workers=workers,
            fault_plan=FaultPlan.parse(
                spec_for("crash", "result_send", "gradient", generation=1)
            ),
        )
        try:
            cold = gradient_rows(engine, model, rows, features, weights)
            with pytest.warns(RuntimeWarning,
                              match="recovered from worker faults"):
                warm = gradient_rows(engine, model, rows, features, weights)
            assert np.array_equal(cold, reference)
            assert np.array_equal(warm, reference)
            stats = engine.scheduler_stats
            assert stats.degraded_generations == 0
            assert stats.retried_shards >= 1
            assert stats.sharded_generations == 2
        finally:
            engine.close()
