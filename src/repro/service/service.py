"""The multi-tenant co-search scheduler (see ``README.md`` in this package).

:class:`CoSearchService` turns the single-run co-search into a long-running
service: many :class:`~repro.service.jobs.SearchJob` submissions — QML and
VQE, different devices, different budgets — share one
:class:`~repro.execution.resilience.WorkerPoolGroup`, and an EDD-style
policy decides whose next generation runs each round.  Admission control
bounds both the number of live jobs (``max_concurrent_jobs``; the rest
queue FIFO) and the total worker processes (``max_workers``: the size of
the one shared pool group every tenant's engine dispatches onto).

Scores are bitwise identical to each job running alone: the sharded
engine's determinism contract makes every unit of evaluation hermetic with
respect to which process runs it, and each tenant keeps its own
estimator/caches on both sides of the process boundary (parent-side
per-tenant :class:`~repro.core.estimator.PerformanceEstimator`,
worker-side per-tenant contexts keyed by tenant name).  Multiplexing moves
work between processes; it never changes the numbers.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..core.evolution import EvolutionResult
from ..utils import clock
from ..utils.env import env_workers
from ..execution.resilience import WorkerPoolGroup
from ..execution.shards import _init_worker
from .jobs import JobHandle, SearchJob, TenantStats, _JobRuntime

__all__ = ["CoSearchService", "edd_order"]


def _service_initargs(shard_index: int, spawn_attempt: int) -> tuple:
    """Shared service workers take no initargs; contexts build lazily."""
    return ()


def edd_order(handles: Sequence[JobHandle]) -> List[JobHandle]:
    """Scheduling order: earliest deadline due first, best-effort last.

    Jobs with a deadline come first, ordered by the deadline round
    (earliest-due-date); ties and the deadline-less tail order by priority
    (higher first) and then submission order.  A pure function of the
    handles, so the schedule — like everything else here — is deterministic.
    """
    return sorted(
        handles,
        key=lambda handle: (
            handle.job.deadline is None,
            handle.job.deadline if handle.job.deadline is not None else 0.0,
            -handle.job.priority,
            handle.arrival,
        ),
    )


class CoSearchService:
    """Schedules many tenants' co-search generations onto shared workers.

    ``max_workers`` caps the total worker processes (defaults to the
    ``REPRO_WORKERS`` environment default, like ``EstimatorConfig``);
    ``max_concurrent_jobs`` caps how many jobs hold live engine state at
    once — further submissions queue and are admitted FIFO as slots free
    up.  ``step()`` runs exactly one generation of the most urgent active
    job (see :func:`edd_order`); ``run()`` steps until every job finishes.
    One *round* of virtual time passes per ``step()`` — deadlines are
    measured in rounds, and a job completing after its deadline round
    counts a ``deadline_miss`` in its :class:`~repro.service.jobs.
    TenantStats`.

    Use as a context manager (or call :meth:`close`) so the shared pool
    group is torn down even when a tenant's search raises.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_concurrent_jobs: int = 2,
    ) -> None:
        if max_workers is None:
            max_workers = env_workers()
        self.max_workers = max(0, int(max_workers))
        self.max_concurrent_jobs = int(max_concurrent_jobs)
        if self.max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        #: the one pool group every tenant's shard tasks dispatch onto
        self.pools = WorkerPoolGroup(
            self.max_workers, _init_worker, _service_initargs
        )
        self.handles: Dict[str, JobHandle] = {}
        self.tenant_stats: Dict[str, TenantStats] = {}
        self.rounds = 0
        self._runtimes: Dict[str, _JobRuntime] = {}
        self._waiting: List[str] = []
        self._arrival = itertools.count()

    # -- submission / admission ----------------------------------------------

    def submit(self, job: SearchJob) -> JobHandle:
        """Admit ``job`` (active if a slot is free, queued otherwise)."""
        if job.name in self.handles:
            raise ValueError(
                f"a job named {job.name!r} was already submitted "
                f"(state {self.handles[job.name].state!r}); "
                "tenant names are unique per service"
            )
        handle = JobHandle(
            job=job,
            arrival=next(self._arrival),
            submitted_round=self.rounds,
        )
        self.handles[job.name] = handle
        self.tenant_stats.setdefault(job.name, TenantStats())
        if len(self._runtimes) < self.max_concurrent_jobs:
            self._activate(handle)
        else:
            handle.state = "queued"
            self._waiting.append(job.name)
        return handle

    def _activate(self, handle: JobHandle) -> None:
        self._runtimes[handle.name] = _JobRuntime(handle.job, self.pools)
        handle.state = "active"
        handle.activated_round = self.rounds

    def _admit_waiting(self) -> None:
        while self._waiting and len(self._runtimes) < self.max_concurrent_jobs:
            self._activate(self.handles[self._waiting.pop(0)])

    # -- scheduling ----------------------------------------------------------

    def step(self) -> Optional[str]:
        """Run one generation of the most urgent active job.

        Returns the stepped job's name, or ``None`` when nothing is active
        (every job finished, failed or suspended).
        """
        self._admit_waiting()
        if not self._runtimes:
            return None
        ordered = edd_order(
            [self.handles[name] for name in sorted(self._runtimes)]
        )
        handle = ordered[0]
        runtime = self._runtimes[handle.name]
        stats = self.tenant_stats[handle.name]
        round_index = self.rounds
        self.rounds += 1
        try:
            with telemetry.span(
                "service.round", tenant=handle.name, round=round_index
            ):
                self._step_runtime(runtime, stats)
        except Exception as exc:
            # tenant isolation: one job's bug must not take the service (and
            # every other tenant's search) down with it
            handle.state = "failed"
            handle.error = exc
            handle.completed_round = round_index
            self._retire(handle.name)
            warnings.warn(
                f"service job {handle.name!r} failed and was retired: "
                f"{exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return handle.name
        if runtime.run.done:
            handle.result = (
                runtime.run.result() if runtime.run.history else None
            )
            handle.state = "done"
            handle.completed_round = round_index
            deadline = handle.job.deadline
            if deadline is not None and round_index + 1 > deadline:
                stats.deadline_misses += 1
            self._retire(handle.name)
        return handle.name

    def _step_runtime(self, runtime: _JobRuntime, stats: TenantStats) -> None:
        """One generation + per-tenant accounting from the stats deltas."""
        engine = runtime.engine
        estimator = runtime.estimator
        sched_before = engine.scheduler_stats.copy()
        engine_before = engine.stats.copy()
        bound_before = estimator.transpile_cache.stats.copy()
        parametric_before = estimator.parametric_transpile_cache.stats.copy()
        started = clock.monotonic()
        if not runtime.run.step():
            return
        elapsed = clock.monotonic() - started
        sched = engine.scheduler_stats.diff(sched_before)
        engine_delta = engine.stats.diff(engine_before)
        bound = estimator.transpile_cache.stats.diff(bound_before)
        parametric = estimator.parametric_transpile_cache.stats.diff(
            parametric_before
        )
        stats.generations += 1
        stats.populations += engine_delta.populations
        stats.candidates += engine_delta.candidates
        stats.cache_hits += bound.hits + parametric.structure_hits
        stats.cache_misses += bound.misses + parametric.structure_misses
        stats.worker_failures += sched.worker_failures
        stats.retried_shards += sched.retried_shards
        stats.rebalanced_shards += sched.rebalanced_shards
        stats.degraded_generations += sched.degraded_generations
        # the shard reports describe the last sharded generation, which is
        # not this step's unless this step dispatched one (a fully cached
        # population never reaches the engine)
        if sched.sharded_generations:
            stats.simulator_seconds += sum(
                report["elapsed_seconds"]
                for report in engine.last_shard_reports
            )
        else:
            stats.simulator_seconds += elapsed

    def _retire(self, name: str) -> None:
        runtime = self._runtimes.pop(name, None)
        if runtime is not None:
            runtime.close()
        self._admit_waiting()

    def run(self) -> Dict[str, EvolutionResult]:
        """Drive every admitted job to completion; results by job name."""
        while self._runtimes or self._waiting:
            if self.step() is None:
                break
        return {
            name: handle.result
            for name, handle in sorted(self.handles.items())
            if handle.state == "done" and handle.result is not None
        }

    # -- suspend / resume ----------------------------------------------------

    def suspend(self, name: str) -> JobHandle:
        """Drop an active job's live state, freeing its slot.

        Requires the job to have a checkpoint path — the
        :class:`~repro.core.checkpoint.SearchCheckpointer` already persisted
        every completed generation, so :meth:`resume` rebuilds the runtime
        and continues bitwise from where the job stopped.
        """
        handle = self.handles[name]
        if handle.state != "active":
            raise ValueError(f"job {name!r} is {handle.state!r}, not active")
        if not handle.job.effective_checkpoint_path:
            raise ValueError(
                f"job {name!r} has no checkpoint path; suspending would "
                "discard its progress"
            )
        handle.state = "suspended"
        self._retire(name)
        return handle

    def resume(self, name: str) -> JobHandle:
        """Re-admit a suspended job (active if a slot is free, else queued)."""
        handle = self.handles[name]
        if handle.state != "suspended":
            raise ValueError(f"job {name!r} is {handle.state!r}, not suspended")
        if len(self._runtimes) < self.max_concurrent_jobs:
            self._activate(handle)
        else:
            handle.state = "queued"
            self._waiting.append(name)
        return handle

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Tear every runtime and the shared pool group down (idempotent)."""
        for name in sorted(self._runtimes):
            self._runtimes[name].close()
        self._runtimes.clear()
        self.pools.close()

    def __enter__(self) -> "CoSearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
