"""The shard runtime under both sharded engines.

:class:`~repro.execution.scheduler.ShardedExecutionEngine` (a population's
structure groups) and :class:`~repro.gradients.sharded.ShardedGradientEngine`
(a parameter-shift step's weight rows) are adapters over this module.  Each
supplies only what differs: how units are planned into shards, how a worker
evaluates them (its worker *evaluator*), how the parent evaluates them
in-process, and how values scatter back.  :class:`ShardRuntime` does the
rest on the parent side; :class:`_WorkerContext` on the worker side.

Determinism contract
--------------------
Results are bit-for-bit independent of the worker count:

1. **The unit of evaluation is hermetic.**  A unit — a structure group, or
   a weight row with all its samples — is always evaluated by one
   in-process engine call: in a worker, in the parent for a single-shard
   generation, in a task-error confirmation, and in a degraded generation.
   The simulation batches, transpile requests and cache-state evolution it
   sees never depend on where, or alongside what, it runs, so worker
   counts, retries and rebalancing only move units between processes.
2. **Shard assignment is a pure function of the units** — greedy placement
   of sorted group keys for populations, ``np.array_split`` over global row
   indices for gradients — never of pool state or prior generations.
3. **Randomness is pinned by content.**  Each task carries
   ``stable_seed((seed, label, i))`` (label ``"shard"`` or
   ``"gradient-shard"``), so a retried task samples what its home pool
   would have; gradient shot keys and measured-VQE reseeds derive from the
   global row labels the task ships.  No sharded population mode consumes
   the shard seed today (``real_qc`` stays in the parent): it is defensive.

A *generation* is one sharded call — a population evaluation or a gradient
step — and ``REPRO_FAULTS``'s ``gen=`` counts the same way.  Failures are
classified by :mod:`repro.execution.resilience`: infrastructure faults
retry on surviving pools, a task error is confirmed by re-running its units
in-process once, and only exhausted retries degrade a whole generation
(``degraded_generations``) — a fault can delay a result, never change it.

Worker contexts
---------------
A worker process keeps its contexts in one registry keyed by tenant.  An
engine-owned pool builds its one context (key ``None``) in the pool
initializer, from initargs shared through fork.  A pool shared by the
multi-tenant service (:mod:`repro.service`) starts empty: tenant tasks
carry a ``context_spec`` to build their context lazily, and closing a
tenant's engine tells every live worker to drop it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import telemetry
from ..telemetry.spans import SpanRecord
from ..utils.rng import stable_seed
from .cache import ParametricCacheStats, TranspileCacheStats
from .faults import FaultInjector, FaultPlan
from .resilience import (
    ResilientDispatcher,
    RetriesExhausted,
    RetryPolicy,
    WorkerPoolGroup,
)
from .stats import MergeableStats

__all__ = ["SchedulerStats", "ShardRuntime"]


@dataclass
class SchedulerStats(MergeableStats):
    """Counters describing what a shard runtime did, per generation."""

    generations: int = 0
    sharded_generations: int = 0
    in_process_generations: int = 0
    #: whole-generation in-process fallbacks only — the genuine last resort
    degraded_generations: int = 0
    shards_dispatched: int = 0
    worker_failures: int = 0
    #: infrastructure-failed shard tasks re-dispatched (retry rounds)
    retried_shards: int = 0
    #: retried tasks that ran on a pool other than their home pool
    rebalanced_shards: int = 0
    #: dead pools brought back in the background after a generation
    respawned_pools: int = 0
    #: shards the watchdog declared hung past their deadline
    deadline_timeouts: int = 0
    #: wall time the watchdog spent gathering deadline-bounded rounds
    watchdog_wait_seconds: float = 0.0
    #: worker task errors re-run once in-process for confirmation
    task_error_confirmations: int = 0
    #: confirmations that succeeded — transient faults recovered in place
    flaky_recoveries: int = 0
    adopted_bound_entries: int = 0
    adopted_structures: int = 0


# repro: pickle-boundary
@dataclass
class _ShardTask:
    """One shard's slice of a generation."""

    shard_index: int
    seed: int
    #: this shard's evaluation units, shaped by the engine's adapter
    units: object
    #: the inputs every shard of the generation shares
    payload: dict
    #: 0-based generation index, for deterministic fault scoping
    generation: int = 0
    #: dispatch attempt of this task (0 = first dispatch, +1 per retry)
    attempt: int = 0
    #: deterministic fault-injection trigger (None outside chaos runs)
    injector: Optional[FaultInjector] = None
    #: owning tenant name when dispatched through a service-shared pool
    #: (None for engine-owned pools, whose workers hold a single context)
    tenant: Optional[str] = None
    #: ``(evaluator class, constructor args)`` of this tenant's worker
    #: context, so a retried or rebalanced task can build it on any pool
    context_spec: Optional[tuple] = None

    def fire(self, point: str) -> None:
        """Let the fault injector act at one worker lifecycle point."""
        if self.injector is not None:
            self.injector.fire(
                point, self.shard_index, self.generation, self.attempt
            )


# repro: pickle-boundary
@dataclass
class _ShardResult:
    """A shard's values plus the accounting deltas it produced."""

    shard_index: int
    #: the evaluator's values for the task's units, in unit order
    values: object
    #: the evaluator's counter deltas, merged by the parent's adapter
    stats: object
    bound_stats: TranspileCacheStats
    parametric_stats: ParametricCacheStats
    bound_entries: list
    parametric_entries: list
    elapsed_seconds: float = 0.0
    attempt: int = 0
    #: the worker-side telemetry spans for this shard (always captured —
    #: the parent re-ids them into its tracer when tracing is active and
    #: drops them otherwise; see ``_WorkerContext.run``)
    spans: List[SpanRecord] = field(default_factory=list)


class _WorkerContext:
    """One worker-side evaluator plus its cache-export bookkeeping.

    ``context_spec`` is ``(evaluator class, constructor args)``.  The
    evaluator is the worker's engine; it provides ``caches`` (its transpile
    and parametric caches, whose new entries ship home),
    ``span(task) -> (name, attributes)`` for the shard's root span, and
    ``evaluate(task) -> (values, stats delta)``.
    """

    def __init__(self, context_spec: tuple) -> None:
        evaluator_class, args = context_spec
        self.evaluator = evaluator_class(*args)
        self.exported_bound: set = set()
        self.exported_structures: set = set()

    def run(self, task: _ShardTask) -> _ShardResult:
        """Evaluate one shard task, always under a telemetry capture.

        The capture runs whether or not tracing was requested — the traced
        and untraced paths are the same code, which is what makes the
        on/off bitwise determinism matrix hold by construction.  The root
        span's duration doubles as the shard's ``elapsed_seconds`` report.
        """
        task.fire("task_receive")
        name, attributes = self.evaluator.span(task)
        tracer = telemetry.get_tracer()
        with tracer.capture() as spans:
            with tracer.span(name, **attributes):
                result = self._evaluate(task)
        # observation-only payload riding home on the result: the parent
        # adopts the spans (or drops them) and reports elapsed_seconds —
        # nothing here feeds results, seeds or scheduling
        result.spans = spans
        result.elapsed_seconds = spans[-1].duration
        task.fire("result_send")
        return result  # repro: ignore[telemetry-flow] -- span buffer + root-span elapsed ride the shard result as its observational timing report

    def _evaluate(self, task: _ShardTask) -> _ShardResult:
        bound, parametric = self.evaluator.caches
        bound_before = bound.stats.copy()
        parametric_before = parametric.stats.copy()
        values, stats = self.evaluator.evaluate(task)
        bound_entries = bound.export_entries(self.exported_bound)
        parametric_entries = parametric.export_entries(self.exported_structures)
        # Exclusion sets are refreshed from the caches (not accumulated): an
        # entry evicted worker-side and recompiled later must ship again, and
        # the sets must stay bounded by the cache sizes.
        self.exported_bound = bound.export_keys()
        self.exported_structures = parametric.export_keys()
        return _ShardResult(
            shard_index=task.shard_index,
            values=values,
            stats=stats,
            bound_stats=bound.stats.diff(bound_before),
            parametric_stats=parametric.stats.diff(parametric_before),
            bound_entries=bound_entries,
            parametric_entries=parametric_entries,
            attempt=task.attempt,
        )


#: this worker process's contexts by tenant; ``None`` keys the single
#: context of an engine-owned pool
_CONTEXTS: Dict[Optional[str], _WorkerContext] = {}


def _init_worker(context_spec: Optional[tuple] = None, spawn_probe=None) -> None:
    """Pool initializer; a service-shared pool passes no context spec."""
    if spawn_probe is not None:
        injector, shard_index, generation, attempt = spawn_probe
        injector.fire("pool_spawn", shard_index, generation, attempt)
    _CONTEXTS.clear()
    if context_spec is not None:
        _CONTEXTS[None] = _WorkerContext(context_spec)


def _run_shard(task: _ShardTask) -> _ShardResult:
    context = _CONTEXTS.get(task.tenant)
    if context is None:
        if task.context_spec is None:
            raise RuntimeError(
                f"shard task for tenant {task.tenant!r} reached a worker "
                "with no context for it and no context_spec to build one"
            )
        context = _CONTEXTS[task.tenant] = _WorkerContext(task.context_spec)
    return context.run(task)


def _drop_context(tenant: str) -> None:
    """Forget a retired tenant's context (a no-op if this worker has none)."""
    _CONTEXTS.pop(tenant, None)


def _ping(value: int) -> int:
    """No-op task used by warm-up pings and background pool respawns."""
    return value


class ShardRuntime:
    """The parent side of sharded evaluation; both sharded engines extend it.

    A subclass passes its evaluator's ``context_spec`` and the parent caches
    that worker entries merge into, implements ``_merge_worker_stats(stats)``
    for its evaluator's stats deltas, and sets ``fault_scope`` (the
    ``REPRO_FAULTS`` ``engine=`` value) and ``seed_label`` (contract rule
    3).  Per generation it calls :meth:`_start_generation`, then
    :meth:`_run_shards` when there is more than one shard.

    The runtime owns one single-process pool per shard slot, so shard ``i``
    always runs in the same worker process and its caches stay warm across
    generations; ``workers <= 1`` never creates a pool.  ``pools`` +
    ``tenant`` instead borrow the multi-tenant service's pool group, whose
    workers build this tenant's context from the ``context_spec`` its tasks
    carry.  ``fault_plan`` (default: parsed from ``REPRO_FAULTS``) drives
    the deterministic chaos harness and may be reassigned between
    generations.
    """

    fault_scope: str
    seed_label: str

    def __init__(
        self,
        config,
        workers: int,
        context_spec: tuple,
        caches: tuple,
        fault_plan: Optional[FaultPlan] = None,
        pools: Optional[WorkerPoolGroup] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.workers = int(workers)
        self.scheduler_stats = SchedulerStats()
        self.last_shard_reports: List[dict] = []
        self.retry_policy = RetryPolicy.from_config(config)
        self.fault_plan = (
            FaultPlan.from_env() if fault_plan is None else fault_plan
        )
        self._shard_config = config
        self._context_spec = context_spec
        #: the parent's (transpile cache, parametric cache)
        self._caches = caches
        self._generation = 0
        self._owns_pools = pools is None
        self.tenant: Optional[str] = None
        if self._owns_pools:
            self._pools = WorkerPoolGroup(
                max(0, self.workers), _init_worker, self._spawn_initargs
            )
        elif tenant is None:
            raise ValueError(
                "an externally-owned pool group needs a tenant name so "
                "shared workers can keep this engine's context separate"
            )
        else:
            self.tenant = str(tenant)
            self._pools = pools
            # never plan more shards than the shared group has slots;
            # size 0 keeps every generation on the in-process path
            self.workers = min(self.workers, pools.size)

    def _spawn_initargs(self, shard_index: int, spawn_attempt: int) -> tuple:
        injector = self.fault_plan.injector(self.fault_scope)
        probe = (
            (injector, shard_index, self._generation, spawn_attempt)
            if injector is not None
            else None
        )
        return (self._context_spec, probe)

    # -- lifecycle -----------------------------------------------------------

    @property
    def _executors(self):
        """The per-shard pool slots (None = not spawned / killed)."""
        return self._pools.slots

    def warm_up(self) -> None:
        """Start the worker pools ahead of time, so benchmarks timing a cold
        generation do not mistake worker startup for evaluation cost."""
        if self.workers > 1:
            # submit every ping before gathering so the worker startups (and
            # their context construction) overlap instead of serializing
            futures = [
                self._pools.ensure(shard_index).submit(_ping, shard_index)
                for shard_index in range(self.workers)
            ]
            for future in futures:
                future.result()

    def close(self) -> None:
        """Release this engine's workers (idempotent).

        Owned pools are shut down.  Each live worker of a borrowed pool
        group is told to drop this tenant's context; slots run their tasks
        in order, so the drop follows the tenant's last task.  Safe from
        ``__del__`` on a partially constructed instance, so aborted runs
        never leak worker processes.
        """
        pools = getattr(self, "_pools", None)
        if pools is None:
            return
        if self._owns_pools:
            pools.close()
            return
        for executor in pools.slots:
            if executor is None:
                continue
            try:
                executor.submit(_drop_context, self.tenant)
            except RuntimeError:
                # a broken or shut-down pool: its worker is gone, and the
                # tenant's context with it
                pass

    def __del__(self) -> None:  # best-effort; close()/__exit__ is the real API
        try:
            self.close()
        except Exception:
            pass

    # -- one generation --------------------------------------------------------

    def _start_generation(self, n_shards: int) -> int:
        """Count one generation and return its index; the caller evaluates
        a generation of at most one shard in-process."""
        generation = self.scheduler_stats.generations
        self.scheduler_stats.generations += 1
        self._generation = generation
        if n_shards <= 1:
            self.scheduler_stats.in_process_generations += 1
            self.last_shard_reports = []
        return generation

    def _run_shards(
        self,
        shards: Sequence,
        payload: dict,
        in_process: Callable[[object], object],
    ) -> Optional[list]:
        """Dispatch one generation's shards; their values in shard order.

        ``shards[i]`` is shard ``i``'s units and ``in_process(units)``
        evaluates units in the parent (the task-error confirmation).  A task
        error that reproduces in-process is re-raised: it is a real bug, not
        a fault.  Returns ``None`` when every retry round was exhausted —
        the caller then re-runs the whole generation in-process.
        """
        stats = self.scheduler_stats
        seed = getattr(self._shard_config, "seed", 0)
        injector = self.fault_plan.injector(self.fault_scope)
        context_spec = self._context_spec if self.tenant is not None else None
        tasks: Dict[int, _ShardTask] = {
            shard_index: _ShardTask(
                shard_index=shard_index,
                seed=stable_seed((seed, self.seed_label, shard_index)),
                units=units,
                payload=payload,
                generation=self._generation,
                injector=injector,
                tenant=self.tenant,
                context_spec=context_spec,
            )
            for shard_index, units in enumerate(shards)
        }
        stats.shards_dispatched += len(tasks)
        retried_before = stats.retried_shards
        dispatcher = ResilientDispatcher(
            self._pools, self.retry_policy, _run_shard, _ping, stats
        )
        try:
            results, task_errors = dispatcher.run(tasks)
        except RetriesExhausted as exc:
            self._degrade(exc)
            return None

        values: Dict[int, object] = {}
        for shard_index in sorted(task_errors):
            stats.task_error_confirmations += 1
            try:
                values[shard_index] = in_process(tasks[shard_index].units)
            except Exception as confirmed_exc:
                # the error reproduces without the worker machinery: a
                # deterministic task bug — surface it, never retry it away
                raise confirmed_exc from task_errors[shard_index]
            stats.flaky_recoveries += 1
        recovered = stats.retried_shards - retried_before
        if recovered or task_errors:
            warnings.warn(
                f"sharded evaluation recovered from worker faults "
                f"(retried_shards={recovered}, "
                f"confirmed_task_errors={len(task_errors)}); results unchanged",
                RuntimeWarning,
                stacklevel=4,
            )
        stats.sharded_generations += 1
        reports: List[dict] = []
        for shard_index in sorted(results):
            values[shard_index] = results[shard_index].values
            self._merge_shard(results[shard_index], reports)
        self.last_shard_reports = reports
        return [values[shard_index] for shard_index in range(len(tasks))]

    # -- merging -------------------------------------------------------------

    def _merge_shard(self, result: _ShardResult, reports: List[dict]) -> None:
        if result.spans:
            # re-id the worker's span buffer into the parent tracer, hanging
            # its roots under the open generation span (a no-op when tracing
            # is inactive — the buffer is simply dropped)
            telemetry.adopt_spans(result.spans)
        self._merge_worker_stats(result.stats)
        bound, parametric = self._caches
        bound.stats.merge(result.bound_stats)
        parametric.stats.merge(result.parametric_stats)
        self._adopt_entries(result)
        reports.append(
            {
                "shard": result.shard_index,
                "attempts": result.attempt + 1,
                "elapsed_seconds": result.elapsed_seconds,
                "transpile_seconds": (
                    result.bound_stats.compile_seconds
                    + result.parametric_stats.compile_seconds
                    + result.parametric_stats.bind_seconds
                ),
            }
        )

    def _adopt_entries(self, result: _ShardResult) -> None:
        stats = self.scheduler_stats
        bound, parametric = self._caches
        stats.adopted_bound_entries += bound.adopt_entries(result.bound_entries)
        stats.adopted_structures += parametric.adopt_entries(
            result.parametric_entries
        )

    def _degrade(self, exc: RetriesExhausted) -> None:
        """Account a failed generation and prepare the in-process retry.

        Reached only when the resilient dispatcher exhausted every retry
        round — the last resort, not the first response to a fault.
        """
        # adopt what the healthy shards compiled so the retry is warm;
        # their stats/values are dropped — the retry recounts everything
        for shard_index in sorted(exc.results):
            self._adopt_entries(exc.results[shard_index])
        self.scheduler_stats.degraded_generations += 1
        self.last_shard_reports = []
        warnings.warn(
            "sharded evaluation degraded to the in-process path "
            f"after exhausting shard retries: {exc.cause!r}",
            RuntimeWarning,
            stacklevel=5,
        )
