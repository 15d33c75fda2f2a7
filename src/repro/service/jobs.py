"""Job specifications and per-tenant accounting for the co-search service.

A :class:`SearchJob` is everything the service needs to run one tenant's
evolutionary co-search: the task family (QML classification or VQE), the
design space and device (objects or registry names), the evolution and
estimator budgets, and the scheduling knobs — priority, an optional
deadline in service rounds, a checkpoint path for suspend/resume.

:class:`TenantStats` is the per-tenant ledger the service fills in after
every scheduled generation, harvested from the engine/estimator stats
deltas through the :class:`~repro.execution.stats.MergeableStats`
protocol — the same counters the sharded scheduler merges back from its
workers, re-aggregated per tenant instead of per engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.checkpoint import SearchCheckpointer
from ..core.design_space import DesignSpace, get_design_space
from ..core.estimator import EstimatorConfig, PerformanceEstimator
from ..core.evolution import EvolutionConfig, EvolutionEngine, EvolutionResult
from ..core.supercircuit import SuperCircuit
from ..devices.library import Device, get_device
from ..execution.scheduler import ShardedExecutionEngine
from ..execution.stats import MergeableStats

__all__ = ["SearchJob", "JobHandle", "TenantStats"]


@dataclass
class TenantStats(MergeableStats):
    """What one tenant consumed, per generation the service ran for it."""

    #: generations the service actually advanced (== the job's iterations
    #: once it completes)
    generations: int = 0
    #: populations evaluated (one per generation that had uncached work)
    populations: int = 0
    #: candidates evaluated across those populations
    candidates: int = 0
    #: hits/misses of the two compile memos: bound-key entries and
    #: parametric structures
    cache_hits: int = 0
    cache_misses: int = 0
    #: wall time spent evaluating: summed worker-side shard seconds when the
    #: generation was sharded, parent wall time otherwise (in-process, or
    #: every candidate already scored)
    simulator_seconds: float = 0.0
    worker_failures: int = 0
    retried_shards: int = 0
    rebalanced_shards: int = 0
    degraded_generations: int = 0
    #: jobs that completed after their deadline round had passed
    deadline_misses: int = 0


@dataclass
class SearchJob:
    """One tenant's co-search request.

    ``space`` and ``device`` accept either live objects or registry names
    (:func:`~repro.core.design_space.get_design_space` /
    :func:`~repro.devices.library.get_device`).  ``estimator`` accepts
    either an :class:`~repro.core.estimator.EstimatorConfig` (the service
    builds a private per-tenant estimator, so tenants never share caches)
    or a live :class:`~repro.core.estimator.PerformanceEstimator` — the
    hook pipelines use to keep their warm caches across service runs.

    ``deadline`` is measured in *service rounds* (one round = one
    generation of whichever job the policy picks), the virtual time base
    of the EDD scheduling policy; ``None`` means best-effort.
    """

    name: str
    kind: str                                       # "qml" | "vqe"
    space: Union[DesignSpace, str]
    device: Union[Device, str]
    n_qubits: int
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    estimator: Union[EstimatorConfig, PerformanceEstimator] = field(
        default_factory=EstimatorConfig
    )
    dataset: object = None                          # QML jobs
    n_classes: int = 0                              # QML jobs
    encoder: object = None                          # QML jobs
    molecule: object = None                         # VQE jobs
    #: reuse a (typically trained) SuperCircuit; None builds a fresh one
    supercircuit: Optional[SuperCircuit] = None
    #: seed for the SuperCircuit built when ``supercircuit`` is None
    seed: int = 0
    priority: int = 0
    deadline: Optional[float] = None
    #: overrides ``evolution.checkpoint_path``; either enables
    #: suspend/resume through :class:`~repro.core.checkpoint.SearchCheckpointer`
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("qml", "vqe"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "qml" and self.dataset is None:
            raise ValueError(f"QML job {self.name!r} needs a dataset")
        if self.kind == "vqe" and self.molecule is None:
            raise ValueError(f"VQE job {self.name!r} needs a molecule")

    @property
    def effective_checkpoint_path(self) -> Optional[str]:
        return self.checkpoint_path or self.evolution.checkpoint_path


@dataclass
class JobHandle:
    """The service's view of one submitted job, returned by ``submit``."""

    job: SearchJob
    arrival: int = 0
    state: str = "queued"      # queued | active | suspended | done | failed
    submitted_round: int = 0
    activated_round: Optional[int] = None
    completed_round: Optional[int] = None
    result: Optional[EvolutionResult] = None
    error: Optional[BaseException] = None

    @property
    def name(self) -> str:
        return self.job.name


class _JobRuntime:
    """The live per-tenant stack behind one active job.

    Owns the tenant's estimator (unless the job supplied a warm one), its
    supercircuit, a shared-pool :class:`~repro.execution.scheduler.
    ShardedExecutionEngine` and the generation-stepping
    :class:`~repro.core.evolution.SearchRun`.  Dropping the runtime (on
    completion or suspend) releases everything but the shared pools, which
    belong to the service.
    """

    def __init__(self, job: SearchJob, pools) -> None:
        self.job = job
        space = (
            get_design_space(job.space)
            if isinstance(job.space, str)
            else job.space
        )
        if isinstance(job.estimator, PerformanceEstimator):
            self.estimator = job.estimator
            device = self.estimator.device
        else:
            device = (
                get_device(job.device)
                if isinstance(job.device, str)
                else job.device
            )
            self.estimator = PerformanceEstimator(device, job.estimator)
        self.supercircuit = job.supercircuit or SuperCircuit(
            space,
            job.n_qubits,
            encoder=job.encoder if job.kind == "qml" else None,
            seed=job.seed,
        )
        self.engine = ShardedExecutionEngine(
            self.estimator, self.supercircuit, pools=pools, tenant=job.name
        )
        if job.kind == "qml":
            scorer = self.engine.qml_population_scorer(
                job.dataset, job.n_classes
            )
        else:
            scorer = self.engine.vqe_population_scorer(job.molecule)
        path = job.effective_checkpoint_path
        checkpointer = (
            SearchCheckpointer(path, estimator=self.estimator)
            if path
            else None
        )
        self.evolution = EvolutionEngine(
            space, job.n_qubits, device, job.evolution
        )
        self.run = self.evolution.start_search(
            population_score_fn=scorer, checkpointer=checkpointer
        )

    def close(self) -> None:
        # shared pools survive this (the engine does not own them); their
        # workers drop this tenant's contexts
        self.engine.close()
