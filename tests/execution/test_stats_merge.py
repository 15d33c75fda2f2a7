"""Explicit stats aggregation: copy/diff/merge and cache-entry adoption.

These are the primitives the sharded scheduler's accounting is built on —
worker counters must merge into parent counters without double counting, and
entry adoption must never masquerade as cache traffic.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.devices import get_device
from repro.execution import (
    ExecutionStats,
    ParametricCacheStats,
    SchedulerStats,
    TranspileCache,
    TranspileCacheStats,
)
from repro.quantum.circuit import QuantumCircuit


# ---------------------------------------------------------------------------
# MergeableStats protocol
# ---------------------------------------------------------------------------

STATS_TYPES = [ExecutionStats, TranspileCacheStats, ParametricCacheStats,
               SchedulerStats]


def _filled(stats_type, start=1):
    """An instance with every field set to a distinct value."""
    return stats_type(**{
        field.name: index
        for index, field in enumerate(dataclasses.fields(stats_type), start=start)
    })


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_copy_is_independent(stats_type):
    original = _filled(stats_type)
    snapshot = original.copy()
    first_field = dataclasses.fields(stats_type)[0].name
    setattr(original, first_field, getattr(original, first_field) + 10)
    assert getattr(snapshot, first_field) == getattr(original, first_field) - 10


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_diff_then_merge_roundtrips(stats_type):
    baseline = _filled(stats_type, start=1)
    later = _filled(stats_type, start=5)
    delta = later.diff(baseline)
    for field in dataclasses.fields(stats_type):
        assert getattr(delta, field.name) == 4
    rebuilt = baseline.copy().merge(delta)
    assert rebuilt == later
    # diff of a copy is all zeros
    zero = later.diff(later.copy())
    assert all(
        getattr(zero, field.name) == 0 for field in dataclasses.fields(stats_type)
    )


@pytest.mark.parametrize("stats_type", STATS_TYPES)
def test_merge_covers_every_field(stats_type):
    """A counter added to any stats dataclass aggregates automatically."""
    total = stats_type()
    shard_deltas = [_filled(stats_type, start=1), _filled(stats_type, start=3)]
    for delta in shard_deltas:
        total.merge(delta)
    for index, field in enumerate(dataclasses.fields(stats_type)):
        expected = sum(index + start for start in (1, 3))
        assert getattr(total, field.name) == expected, field.name


def test_merge_rejects_foreign_stats():
    with pytest.raises(TypeError):
        ExecutionStats().merge(TranspileCacheStats())
    with pytest.raises(TypeError):
        TranspileCacheStats().diff(ParametricCacheStats())


def test_derived_rates_recompute_from_merged_counters():
    total = TranspileCacheStats()
    total.merge(TranspileCacheStats(hits=3, misses=1))
    total.merge(TranspileCacheStats(hits=1, misses=3))
    assert total.requests == 8
    assert total.hit_rate == pytest.approx(0.5)


def test_fallback_rate_divides_by_every_requested_row():
    """Rows a template serves in a batch count only in ``batch_rows``; the
    fallback rate still divides by them, not by single-row lookups alone."""
    assert ParametricCacheStats().fallback_rate == 0.0
    stats = ParametricCacheStats(batch_rows=147, bind_requests=46, fallbacks=46)
    assert stats.fallback_rate == pytest.approx(46 / 193)
    total = ParametricCacheStats()
    total.merge(ParametricCacheStats(batch_rows=6, bind_requests=2, fallbacks=2))
    total.merge(ParametricCacheStats(bind_requests=2))
    assert total.fallback_rate == pytest.approx(2 / 10)


# ---------------------------------------------------------------------------
# Cache-entry adoption
# ---------------------------------------------------------------------------


def _compile_some(cache, device, n_circuits):
    compiled = []
    for index in range(n_circuits):
        circuit = QuantumCircuit(2)
        circuit.add("rz", (0,), (0.1 + index,))
        circuit.add("cx", (0, 1))
        compiled.append(cache.get(circuit, device))
    return compiled


def test_transpile_cache_adoption_is_not_traffic():
    device = get_device("yorktown")
    source = TranspileCache(maxsize=8)
    _compile_some(source, device, 3)
    assert source.stats.misses == 3

    target = TranspileCache(maxsize=8)
    adopted = target.adopt_entries(source.export_entries())
    assert adopted == 3
    assert len(target) == 3
    # adoption is not a lookup: hit/miss counters untouched
    assert target.stats.hits == 0 and target.stats.misses == 0
    # re-adoption is a no-op, local entries win
    assert target.adopt_entries(source.export_entries()) == 0

    # the adopted entries now serve lookups without compiling
    _compile_some(target, device, 3)
    assert target.stats.hits == 3 and target.stats.misses == 0


def test_transpile_cache_export_exclusion_and_eviction_accounting():
    device = get_device("yorktown")
    source = TranspileCache(maxsize=8)
    _compile_some(source, device, 4)
    exported = source.export_entries()
    keys = {key for key, _ in exported}
    # a worker's second export excludes what it already shipped
    assert source.export_entries(exclude=keys) == []

    tiny = TranspileCache(maxsize=2)
    adopted = tiny.adopt_entries(exported)
    assert adopted == 4
    assert len(tiny) == 2
    assert tiny.stats.evictions == 2


def test_evicted_then_recompiled_entries_are_exported_again():
    """The worker protocol refreshes its exclusion set from export_keys()
    after every export (instead of accumulating every key ever shipped): a
    key evicted before an export boundary and recompiled afterwards must
    ship again, and the exclusion set stays bounded by the cache size."""
    device = get_device("yorktown")

    def circuit(index):
        built = QuantumCircuit(2)
        built.add("rz", (0,), (0.1 + index,))
        built.add("cx", (0, 1))
        return built

    cache = TranspileCache(maxsize=2)
    evictee_key = cache.key_for(circuit(0), device, None, 2)
    # generation 1: compile two circuits, export both
    cache.get(circuit(0), device)
    cache.get(circuit(1), device)
    assert len(cache.export_entries(exclude=())) == 2
    exclusion = cache.export_keys()

    # generation 2: a third circuit evicts circuit 0; only the new key ships
    cache.get(circuit(2), device)
    assert cache.stats.evictions == 1
    assert [key for key, _ in cache.export_entries(exclude=exclusion)] != []
    exclusion = cache.export_keys()
    assert evictee_key not in exclusion

    # generation 3: circuit 0 is recompiled — it must be exported again
    # (an accumulated all-keys-ever set would silently drop it forever)
    cache.get(circuit(0), device)
    exported_keys = {key for key, _ in cache.export_entries(exclude=exclusion)}
    assert exported_keys == {evictee_key}
    assert len(cache.export_keys()) <= cache.maxsize


def test_sharded_population_counters_not_double_counted(u3cu3_supercircuit,
                                                        yorktown, tiny_dataset):
    """The regression the explicit protocol exists for: merging shard deltas
    must count the generation's populations/candidates exactly once."""
    from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
    from repro.core.estimator import EstimatorConfig, PerformanceEstimator
    from repro.execution import ShardedExecutionEngine

    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=6))
    candidates = [evolution.random_candidate() for _ in range(6)]
    estimator = PerformanceEstimator(
        yorktown,
        EstimatorConfig(mode="success_rate", n_valid_samples=4, workers=2,
                        shard_min_group_size=1),
    )
    engine = ShardedExecutionEngine(estimator, u3cu3_supercircuit)
    try:
        for _generation in range(2):
            engine.evaluate_qml_population(candidates, tiny_dataset, 4)
        assert engine.stats.populations == 2
        assert engine.stats.candidates == 2 * len(candidates)
        assert estimator.num_queries == 2 * len(candidates)
        assert engine.scheduler_stats.generations == 2
    finally:
        engine.close()
