"""Engine lifecycle: idempotent close, context managers, no leaked pools."""

from __future__ import annotations

import pytest

from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.execution import ExecutionEngine, ShardedExecutionEngine


def engine_for(yorktown, supercircuit, workers=1):
    estimator = PerformanceEstimator(
        yorktown,
        EstimatorConfig(mode="success_rate", n_valid_samples=4, workers=workers,
                        shard_min_group_size=1),
    )
    if workers > 1:
        return ShardedExecutionEngine(estimator, supercircuit)
    return ExecutionEngine(estimator, supercircuit)


def test_close_is_idempotent_in_process(yorktown, u3cu3_supercircuit):
    engine = engine_for(yorktown, u3cu3_supercircuit)
    engine.close()
    engine.close()


def test_sharded_close_is_idempotent_and_releases_pools(yorktown,
                                                        u3cu3_supercircuit):
    engine = engine_for(yorktown, u3cu3_supercircuit, workers=2)
    engine.warm_up()
    assert any(executor is not None for executor in engine._executors)
    engine.close()
    assert all(executor is None for executor in engine._executors)
    engine.close()  # second close: no error, still released


def test_context_manager_shuts_the_pool_down(yorktown, u3cu3_supercircuit,
                                             tiny_dataset):
    with engine_for(yorktown, u3cu3_supercircuit, workers=2) as engine:
        engine.warm_up()
        assert any(executor is not None for executor in engine._executors)
    assert all(executor is None for executor in engine._executors)


def test_context_manager_closes_on_error(yorktown, u3cu3_supercircuit):
    with pytest.raises(RuntimeError, match="boom"):
        with engine_for(yorktown, u3cu3_supercircuit, workers=2) as engine:
            engine.warm_up()
            raise RuntimeError("boom")
    assert all(executor is None for executor in engine._executors)


def test_close_survives_partially_constructed_engines(yorktown,
                                                      u3cu3_supercircuit):
    """__del__ calls close(); a constructor that raised before the executor
    slots existed must not turn that into a second error."""
    engine = ShardedExecutionEngine.__new__(ShardedExecutionEngine)
    engine.close()  # no _executors attribute yet — must be a clean no-op
