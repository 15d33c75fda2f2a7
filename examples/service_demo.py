"""Multi-tenant co-search service demo.

Three tenants — two QML classification searches with different budgets and
priorities, plus one H2 VQE search on a different device — share one
:class:`repro.service.CoSearchService` worker pool.  The EDD policy runs
the deadline job's generations first, admission control queues the third
job until a slot frees up, and every tenant's consumption lands in its
:class:`repro.service.TenantStats` ledger.

The accounting table is read from those ledgers (``service.tenant_stats``),
the one record of what each tenant consumed, and the demo finishes by
re-running one tenant's job alone and asserting its scores are bitwise
identical to the shared run: the determinism contract the service is
built on, and the reason accounting and telemetry can only ever *observe*
those numbers.

Run with ``python examples/service_demo.py`` (set ``REPRO_WORKERS=2`` to
watch the shared pool shard generations across processes, and
``REPRO_TRACE=trace.jsonl`` to record a span trace for
``python -m repro.telemetry summarize``).
"""

from __future__ import annotations

from repro.core import EstimatorConfig, EvolutionConfig
from repro.qml import encoder_for_task, make_classification_dataset
from repro.service import CoSearchService, SearchJob
from repro.utils.tables import print_table
from repro.vqe import load_molecule


def qml_job(name: str, dataset, seed: int, **kwargs) -> SearchJob:
    return SearchJob(
        name=name,
        kind="qml",
        space="u3cu3",
        device="yorktown",
        n_qubits=4,
        evolution=EvolutionConfig(
            iterations=3, population_size=10, parent_size=3,
            mutation_size=4, crossover_size=3, seed=seed,
        ),
        estimator=EstimatorConfig(
            mode="noise_sim", shard_min_group_size=1, n_valid_samples=8
        ),
        dataset=dataset,
        n_classes=4,
        encoder=encoder_for_task("mnist-4"),
        seed=3,
        **kwargs,
    )


def vqe_job(name: str, **kwargs) -> SearchJob:
    return SearchJob(
        name=name,
        kind="vqe",
        space="u3cu3",
        device="santiago",
        n_qubits=2,
        evolution=EvolutionConfig(
            iterations=3, population_size=8, parent_size=3,
            mutation_size=3, crossover_size=2, seed=7,
        ),
        estimator=EstimatorConfig(shard_min_group_size=1),
        molecule=load_molecule("h2"),
        seed=3,
        **kwargs,
    )


def main() -> None:
    dataset = make_classification_dataset(
        "tiny-4", n_classes=4, n_features=16, n_train=48, n_valid=24,
        n_test=24, image_side=4, seed=7,
    )
    jobs = [
        qml_job("mnist-batch", dataset, seed=5, priority=1),
        vqe_job("h2-deadline", deadline=3.0),
        qml_job("mnist-backfill", dataset, seed=11),
    ]

    with CoSearchService(max_workers=2, max_concurrent_jobs=2) as service:
        for job in jobs:
            handle = service.submit(job)
            print(f"submitted {handle.name:15s} -> {handle.state}")
        results = service.run()

        # the service charges every round to its tenant's TenantStats
        # ledger; the accounting table reads those ledgers
        ledgers = service.tenant_stats
        print_table(
            ["tenant", "state", "done@round", "best score", "generations",
             "candidates", "cache hits", "sim seconds"],
            [
                [
                    name,
                    service.handles[name].state,
                    service.handles[name].completed_round,
                    results[name].best_score,
                    ledgers[name].generations,
                    ledgers[name].candidates,
                    ledgers[name].cache_hits,
                    ledgers[name].simulator_seconds,
                ]
                for name in sorted(results)
            ],
            title="Per-tenant accounting (TenantStats)",
        )
        for name in sorted(results):
            assert ledgers[name].generations == len(results[name].history)
            assert ledgers[name].candidates == results[name].evaluated

    # determinism check: one tenant re-run alone reproduces its shared-run
    # scores exactly
    with CoSearchService(max_workers=2, max_concurrent_jobs=1) as solo:
        solo.submit(qml_job("mnist-batch", dataset, seed=5, priority=1))
        alone = solo.run()["mnist-batch"]
    shared = results["mnist-batch"]
    assert alone.history == shared.history, "multiplexing changed scores!"
    assert alone.best_score == shared.best_score
    print(
        "determinism: 'mnist-batch' alone == alongside two other tenants "
        f"(best score {alone.best_score:.4f}, bitwise identical)"
    )


if __name__ == "__main__":
    main()
