"""Per-tenant service telemetry and accounting.

Every round runs under a ``service.round`` span, and every round's
consumption is charged to the tenant's ``TenantStats`` ledger, the one
record of what a tenant used.  The ledger is checked here against the
sources it is harvested from: the tenant's transpile caches, the search
result and the engine's shard reports.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import telemetry
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import EvolutionConfig
from repro.devices import get_device
from repro.qml import encoder_for_task
from repro.service import CoSearchService, SearchJob

EVOLUTION = EvolutionConfig(
    iterations=2,
    population_size=6,
    parent_size=3,
    mutation_size=2,
    crossover_size=1,
    seed=5,
)
ESTIMATOR = EstimatorConfig(
    mode="success_rate", workers=1, shard_min_group_size=1, n_valid_samples=8
)
#: two worker processes, so every uncached generation is sharded
SHARDED_ESTIMATOR = dataclasses.replace(ESTIMATOR, workers=2)


def qml_job(name, dataset, seed, estimator=ESTIMATOR, iterations=2):
    return SearchJob(
        name=name,
        kind="qml",
        space="u3cu3",
        device="yorktown",
        n_qubits=4,
        evolution=dataclasses.replace(
            EVOLUTION, seed=seed, iterations=iterations
        ),
        estimator=estimator,
        dataset=dataset,
        n_classes=4,
        encoder=encoder_for_task("mnist-4"),
        seed=3,
    )


@pytest.fixture
def finished_service(clean_telemetry, tiny_dataset):
    telemetry.configure(enabled=True)
    with CoSearchService(max_workers=1, max_concurrent_jobs=2) as service:
        service.submit(qml_job("tenant-a", tiny_dataset, seed=5))
        service.submit(qml_job("tenant-b", tiny_dataset, seed=9))
        service.run()
        yield service


class TestServiceTelemetry:
    def test_round_spans_carry_tenant_and_round(self, finished_service):
        rounds = [
            r for r in telemetry.get_tracer().records
            if r.name == "service.round"
        ]
        assert len(rounds) == finished_service.rounds
        tenants = {r.attributes["tenant"] for r in rounds}
        assert tenants == {"tenant-a", "tenant-b"}
        indices = sorted(r.attributes["round"] for r in rounds)
        assert indices == list(range(finished_service.rounds))


class TestTenantLedger:
    def test_ledger_matches_its_sources(self, tiny_dataset):
        estimator = PerformanceEstimator(
            get_device("yorktown"), SHARDED_ESTIMATOR
        )
        with CoSearchService(max_workers=2, max_concurrent_jobs=1) as service:
            service.submit(qml_job("solo", tiny_dataset, 5, estimator))
            result = service.run()["solo"]
            stats = service.tenant_stats["solo"]
        bound = estimator.transpile_cache.stats
        parametric = estimator.parametric_transpile_cache.stats
        assert stats.cache_hits == bound.hits + parametric.structure_hits
        assert stats.cache_misses == bound.misses + parametric.structure_misses
        assert stats.cache_misses > 0
        assert stats.candidates == result.evaluated
        assert stats.generations == len(result.history)
        assert stats.generations == EVOLUTION.iterations

    def test_counters_accumulate_with_tracing_disabled(
        self, clean_telemetry, tiny_dataset
    ):
        # the ledger is always on: accounting survives without REPRO_TRACE
        with CoSearchService(max_workers=1, max_concurrent_jobs=1) as service:
            service.submit(qml_job("solo", tiny_dataset, seed=5))
            result = service.run()["solo"]
            stats = service.tenant_stats["solo"]
        assert telemetry.get_tracer().records == []
        assert stats.generations == EVOLUTION.iterations
        assert stats.candidates == result.evaluated
        assert stats.simulator_seconds > 0.0

    def test_cached_generation_is_not_charged_stale_shard_seconds(
        self, tiny_dataset
    ):
        """A step whose whole population is already scored never reaches
        the engine, so the previous generation's shard reports are not its
        cost: it is charged its own parent wall time."""
        job = qml_job(
            "solo", tiny_dataset, seed=5, estimator=SHARDED_ESTIMATOR,
            iterations=3,
        )
        with CoSearchService(max_workers=2, max_concurrent_jobs=1) as service:
            service.submit(job)
            stats = service.tenant_stats["solo"]
            runtime = service._runtimes["solo"]
            sched = runtime.engine.scheduler_stats

            service.step()
            assert sched.sharded_generations == 1
            shard_seconds = sum(
                report["elapsed_seconds"]
                for report in runtime.engine.last_shard_reports
            )
            assert stats.simulator_seconds == shard_seconds > 0.0

            for candidate in runtime.run.population:
                runtime.run.cache.setdefault(tuple(candidate.gene()), 0.0)
            charged_before = stats.simulator_seconds
            started = time.perf_counter()
            service.step()
            wall = time.perf_counter() - started
            charged = stats.simulator_seconds - charged_before

        assert sched.sharded_generations == 1
        assert stats.generations == 2
        assert 0.0 <= charged <= wall
