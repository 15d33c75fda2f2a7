"""Service-level determinism: multiplexing never changes a tenant's scores.

The acceptance property of the multi-tenant service: a job run through
``CoSearchService`` alongside competing tenants produces bitwise-identical
scores, history and best candidate to the same job run alone on a private
engine — the sharded scheduler's group-at-a-time determinism contract
survives multiplexing — and the per-tenant stats account for every
generation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.design_space import get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import EvolutionConfig, EvolutionEngine
from repro.core.supercircuit import SuperCircuit
from repro.execution.scheduler import ShardedExecutionEngine
from repro.qml import encoder_for_task
from repro.service import CoSearchService, SearchJob
from repro.vqe import load_molecule

EVOLUTION = EvolutionConfig(
    iterations=2,
    population_size=8,
    parent_size=3,
    mutation_size=3,
    crossover_size=2,
    seed=5,
)
ESTIMATOR = EstimatorConfig(
    mode="success_rate", workers=2, shard_min_group_size=1, n_valid_samples=8
)


def qml_job(name, dataset, seed, **kwargs):
    return SearchJob(
        name=name,
        kind="qml",
        space="u3cu3",
        device="yorktown",
        n_qubits=4,
        evolution=dataclasses.replace(EVOLUTION, seed=seed),
        estimator=ESTIMATOR,
        dataset=dataset,
        n_classes=4,
        encoder=encoder_for_task("mnist-4"),
        seed=3,
        **kwargs,
    )


def vqe_job(name, seed, **kwargs):
    return SearchJob(
        name=name,
        kind="vqe",
        space="u3cu3",
        device="santiago",
        n_qubits=2,
        evolution=dataclasses.replace(
            EVOLUTION, iterations=2, population_size=6, seed=seed
        ),
        estimator=ESTIMATOR,
        molecule=load_molecule("h2"),
        seed=3,
        **kwargs,
    )


def solo_qml(dataset, seed):
    """The same search on a private sharded engine (the job run alone)."""
    space = get_design_space("u3cu3")
    from repro.devices import get_device

    device = get_device("yorktown")
    supercircuit = SuperCircuit(
        space, 4, encoder=encoder_for_task("mnist-4"), seed=3
    )
    estimator = PerformanceEstimator(device, ESTIMATOR)
    engine = EvolutionEngine(
        space, 4, device, dataclasses.replace(EVOLUTION, seed=seed)
    )
    with ShardedExecutionEngine(estimator, supercircuit) as execution:
        return engine.search(
            population_score_fn=execution.qml_population_scorer(dataset, 4)
        )


def solo_vqe(seed):
    space = get_design_space("u3cu3")
    from repro.devices import get_device

    device = get_device("santiago")
    supercircuit = SuperCircuit(space, 2, encoder=None, seed=3)
    estimator = PerformanceEstimator(device, ESTIMATOR)
    engine = EvolutionEngine(
        space,
        2,
        device,
        dataclasses.replace(EVOLUTION, iterations=2, population_size=6, seed=seed),
    )
    with ShardedExecutionEngine(estimator, supercircuit) as execution:
        return engine.search(
            population_score_fn=execution.vqe_population_scorer(
                load_molecule("h2")
            )
        )


def held_contexts(_):
    """Runs inside a worker: the tenants it keeps a context for."""
    from repro.execution import shards

    return sorted(shards._CONTEXTS)


def worker_contexts(service):
    """Per live worker slot, the tenants whose contexts it still holds."""
    return [
        executor.submit(held_contexts, None).result(timeout=60)
        for executor in service.pools.slots
        if executor is not None
    ]


class TestServiceDeterminism:
    def test_concurrent_tenants_match_solo_runs_bitwise(self, tiny_dataset):
        """Three tenants (2 QML seeds + 1 VQE, two devices) on one shared
        pool each reproduce their solo run exactly."""
        reference = {
            "tenant-a": solo_qml(tiny_dataset, seed=5),
            "tenant-b": solo_qml(tiny_dataset, seed=11),
            "tenant-vqe": solo_vqe(seed=7),
        }
        with CoSearchService(max_workers=2, max_concurrent_jobs=3) as service:
            service.submit(qml_job("tenant-a", tiny_dataset, seed=5))
            service.submit(qml_job("tenant-b", tiny_dataset, seed=11))
            service.submit(vqe_job("tenant-vqe", seed=7))
            results = service.run()

            assert sorted(results) == sorted(reference)
            for name in sorted(reference):
                solo = reference[name]
                shared = results[name]
                # bitwise: exact float equality, not closeness
                assert shared.history == solo.history
                assert shared.best_score == solo.best_score
                assert shared.best.gene() == solo.best.gene()
                assert shared.evaluated == solo.evaluated

            # per-tenant accounting covers every generation
            for name in sorted(reference):
                stats = service.tenant_stats[name]
                handle = service.handles[name]
                assert stats.generations == handle.job.evolution.iterations
                assert stats.candidates == results[name].evaluated
                assert stats.populations >= 1
                assert stats.simulator_seconds > 0.0
                assert stats.cache_hits + stats.cache_misses > 0

    def test_engines_share_the_service_pools(self, tiny_dataset):
        with CoSearchService(max_workers=2, max_concurrent_jobs=2) as service:
            service.submit(qml_job("alpha", tiny_dataset, seed=5))
            runtime = service._runtimes["alpha"]
            assert runtime.engine._pools is service.pools
            assert runtime.engine._owns_pools is False
            # retiring the job must leave the shared pools open
            service.run()
            assert "alpha" not in service._runtimes
            assert service.pools.size == 2

    def test_suspend_resume_is_bitwise(self, tiny_dataset, tmp_path):
        solo = solo_qml(tiny_dataset, seed=5)
        path = str(tmp_path / "alpha.ckpt")
        with CoSearchService(max_workers=2, max_concurrent_jobs=2) as service:
            handle = service.submit(
                qml_job("alpha", tiny_dataset, seed=5, checkpoint_path=path)
            )
            assert service.step() == "alpha"  # one generation, checkpointed
            service.suspend("alpha")
            assert handle.state == "suspended"
            assert "alpha" not in service._runtimes
            service.resume("alpha")
            results = service.run()
        assert results["alpha"].history == solo.history
        assert results["alpha"].best_score == solo.best_score
        # the post-resume runtime replays nothing: only the remaining
        # generation is charged to the tenant
        assert service.tenant_stats["alpha"].generations == EVOLUTION.iterations

    def test_retired_jobs_release_their_worker_contexts(self, tiny_dataset,
                                                        tmp_path):
        """Shared workers hold a tenant's context only while its job is
        live: finishing or suspending a job drops it from every worker."""
        with CoSearchService(max_workers=2, max_concurrent_jobs=1) as service:
            service.submit(qml_job(
                "job0", tiny_dataset, seed=5,
                checkpoint_path=str(tmp_path / "job0.ckpt"),
            ))
            for index in range(1, 4):
                service.submit(qml_job(f"job{index}", tiny_dataset, seed=index))

            assert service.step() == "job0"
            assert worker_contexts(service) == [["job0"], ["job0"]]
            service.suspend("job0")
            assert worker_contexts(service) == [[], []]

            service.resume("job0")
            service.run()
            assert all(
                handle.state == "done" for handle in service.handles.values()
            )
            assert worker_contexts(service) == [[], []]

    def test_suspend_without_checkpoint_path_refuses(self, tiny_dataset):
        with CoSearchService(max_workers=0, max_concurrent_jobs=1) as service:
            service.submit(qml_job("alpha", tiny_dataset, seed=5))
            with pytest.raises(ValueError, match="checkpoint"):
                service.suspend("alpha")

    def test_zero_workers_runs_in_process(self, tiny_dataset):
        """A worker-less service still completes jobs (in-process path)."""
        solo = solo_qml(tiny_dataset, seed=5)
        with CoSearchService(max_workers=0, max_concurrent_jobs=1) as service:
            service.submit(qml_job("alpha", tiny_dataset, seed=5))
            results = service.run()
        assert results["alpha"].history == solo.history
