"""Worker liveness, failure classification and per-shard retry.

Before this layer existed, any single worker fault in a sharded engine
discarded every healthy shard's scores and re-ran the whole generation in
the parent process, and a hung worker blocked ``future.result()`` forever.
This module is the liveness/retry layer beneath the shard runtime
(:class:`~repro.execution.shards.ShardRuntime`, which both sharded engines
run on):

**Failure classification.**  A shard failure is either an *infrastructure*
fault — a broken/dead pool, or a deadline timeout — or a *task error*, an
exception the task function itself raised.  Infrastructure faults are
retried (the unit of work is hermetic, so a re-run is bitwise identical);
task errors are **not** retried blindly: the runtime re-runs the unit
in-process once, and an error that reproduces is re-raised as a real bug
instead of being degraded into a slow retry loop.

**Per-shard deadlines.**  :meth:`ResilientDispatcher.run` gathers shard
futures through a watchdog: any shard still running past
``deadline_seconds`` (scaled by how many tasks share its pool, so
rebalanced rounds are not penalized) is declared hung, its worker pool is
killed outright, and the shard is retried like any other infrastructure
fault.

**Retry with rebalancing.**  Failed shard tasks are retried with capped
exponential backoff, each task resubmitted to its own pool if that pool is
still alive and otherwise *rebalanced* onto the least-loaded surviving
pool — healthy shards' results are kept, and determinism is unaffected
because tasks carry their own pinned seeds and the unit of evaluation is
hermetic with respect to which process runs it.  Pools killed during a
generation are respawned in the background after the generation completes,
so later generations return to full width.

**Last resort.**  Only when every retry round is exhausted does
:class:`RetriesExhausted` reach the runtime, which then (and only then)
degrades the whole generation to the in-process path.

The dispatcher increments the resilience counters of the stats object it
is handed (``worker_failures``, ``retried_shards``, ``rebalanced_shards``,
``respawned_pools``, ``deadline_timeouts``, ``watchdog_wait_seconds`` — the
runtime's :class:`~repro.execution.shards.SchedulerStats`); counters merge
through the usual :class:`~repro.execution.stats.MergeableStats` protocol.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..utils import clock
from .. import telemetry

__all__ = [
    "INFRASTRUCTURE",
    "TASK_ERROR",
    "classify_failure",
    "ShardDeadlineExceeded",
    "RetriesExhausted",
    "RetryPolicy",
    "WorkerPoolGroup",
    "ResilientDispatcher",
]

#: failure classes (see module docstring)
INFRASTRUCTURE = "infrastructure"
TASK_ERROR = "task_error"


class ShardDeadlineExceeded(Exception):
    """A shard ran past its deadline; its pool was killed by the watchdog."""


class RetriesExhausted(Exception):
    """Every retry round failed; the generation must degrade in-process.

    Carries the results healthy shards produced before exhaustion so the
    engine can still adopt their cache entries and start the degraded
    retry warm.
    """

    def __init__(self, results: Dict[int, object], cause: BaseException) -> None:
        super().__init__(str(cause))
        self.results = results
        self.cause = cause


def classify_failure(exc: BaseException) -> str:
    """``INFRASTRUCTURE`` (retry) or ``TASK_ERROR`` (confirm in-process).

    Broken pools (worker process died), deadline timeouts and OS-level
    process failures are infrastructure: the work unit never misbehaved,
    only the machinery around it, and a re-run elsewhere is bitwise
    identical.  Everything else travelled back from the task function as a
    real exception and must not be retried blindly.
    """
    if isinstance(exc, (BrokenProcessPool, BrokenExecutor, ShardDeadlineExceeded)):
        return INFRASTRUCTURE
    if isinstance(exc, OSError):
        return INFRASTRUCTURE
    return TASK_ERROR


@dataclass(frozen=True)
class RetryPolicy:
    """The per-shard retry/deadline knobs (see ``EstimatorConfig``)."""

    deadline_seconds: Optional[float] = 600.0
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_max_seconds: float = 2.0

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Read the ``shard_*`` fields off an estimator/gradient config."""
        defaults = cls()
        return cls(
            deadline_seconds=getattr(
                config, "shard_deadline_seconds", defaults.deadline_seconds
            ),
            max_retries=int(
                getattr(config, "shard_retries", defaults.max_retries)
            ),
            backoff_seconds=float(
                getattr(config, "shard_backoff_seconds", defaults.backoff_seconds)
            ),
            backoff_max_seconds=float(
                getattr(
                    config,
                    "shard_backoff_max_seconds",
                    defaults.backoff_max_seconds,
                )
            ),
        )

    def backoff(self, round_index: int) -> float:
        """Capped exponential backoff before retry round ``round_index``."""
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.backoff_seconds * (2.0 ** round_index), self.backoff_max_seconds
        )


def kill_executor(executor: ProcessPoolExecutor) -> None:
    """Kill a pool outright, including workers stuck in a hung task.

    ``shutdown`` alone would join a hung worker forever, so the worker
    processes are terminated first (``_processes`` is private API, but it
    is the only handle the executor exposes; a terminated worker makes the
    subsequent ``shutdown`` return promptly).
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


class WorkerPoolGroup:
    """The per-shard single-process pools one sharded engine owns.

    Shard ``i`` always runs in pool ``i`` when that pool is healthy, so
    worker caches stay warm across generations; the dispatcher only moves
    a task elsewhere after pool ``i`` dies.  ``initargs_fn(shard_index,
    spawn_attempt)`` builds the initializer arguments per spawn, so the
    fault harness can target ``pool_spawn`` and a respawn (attempt > 0)
    can come up clean.
    """

    def __init__(
        self,
        size: int,
        initializer: Callable,
        initargs_fn: Callable[[int, int], tuple],
    ) -> None:
        self.size = max(0, int(size))
        self._initializer = initializer
        self._initargs_fn = initargs_fn
        self._slots: List[Optional[ProcessPoolExecutor]] = [None] * self.size
        self.spawn_counts: List[int] = [0] * self.size
        #: slots whose pool was killed and not yet respawned.  Distinct from
        #: "not yet spawned" (slot None, dead False): a lazy slot is usable —
        #: ensure() will spawn it — while a dead one must not be assigned
        #: work until it is respawned.
        self.dead: List[bool] = [False] * self.size

    @property
    def slots(self) -> List[Optional[ProcessPoolExecutor]]:
        return self._slots

    def alive_indices(self) -> List[int]:
        return [i for i, slot in enumerate(self._slots) if slot is not None]

    def usable_indices(self) -> List[int]:
        """Slots that may take work: spawned-and-healthy or lazily unspawned."""
        return [i for i in range(self.size) if not self.dead[i]]

    def ensure(self, index: int) -> ProcessPoolExecutor:
        """The pool for slot ``index``, spawning a fresh one if needed."""
        if self._slots[index] is None:
            self.dead[index] = False
            # fork (where available) shares the parent's loaded modules and
            # the initargs copy-on-write instead of re-importing numpy and
            # re-pickling the payloads per worker
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            attempt = self.spawn_counts[index]
            self.spawn_counts[index] += 1
            self._slots[index] = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context(method),
                initializer=self._initializer,
                initargs=self._initargs_fn(index, attempt),
            )
        return self._slots[index]

    def kill(self, index: int) -> None:
        """Terminate slot ``index``'s pool (hung workers included)."""
        executor = self._slots[index]
        self._slots[index] = None
        self.dead[index] = True
        if executor is not None:
            kill_executor(executor)

    def respawn_in_background(self, index: int, ping_fn: Callable) -> bool:
        """Bring a dead slot back without blocking the caller.

        Creates a fresh pool and submits one no-op ``ping_fn`` task so the
        worker process starts (and runs its initializer) concurrently with
        the parent's continued work; nobody waits on the future.  Returns
        False when the slot is already alive.
        """
        if self._slots[index] is not None:
            return False
        try:
            executor = self.ensure(index)
            executor.submit(ping_fn, index)
        except Exception:
            # the respawn itself failed; the slot stays dead and a later
            # round's ensure() will try again.  ensure() may already have
            # constructed a pool (and forked its worker) before the ping
            # submit blew up — kill it, or the worker process leaks.
            self.kill(index)
            return False
        return True

    def close(self) -> None:
        """Tear every pool down, hung workers included.

        Routed through :func:`kill_executor` rather than a bare
        ``shutdown(wait=True)``: shutdown joins the worker, so closing an
        engine whose worker is stuck mid-task would block forever.
        Terminating first makes close bounded regardless of worker state.
        """
        for index, executor in enumerate(self._slots):
            if executor is not None:
                self._slots[index] = None
                kill_executor(executor)


class ResilientDispatcher:
    """Runs one generation's shard tasks under the retry/deadline policy.

    Engine-agnostic: tasks are opaque beyond two mutable attributes the
    runtime stamps (``shard_index``, ``attempt``) and a picklable form
    ``submit`` can ship.  :meth:`run` returns ``(results, task_errors)``;
    infrastructure faults never appear in ``task_errors`` — they are
    consumed by retries or surface as :class:`RetriesExhausted`.
    """

    def __init__(
        self,
        pools: WorkerPoolGroup,
        policy: RetryPolicy,
        run_fn: Callable,
        ping_fn: Callable,
        stats,
    ) -> None:
        self.pools = pools
        self.policy = policy
        self.run_fn = run_fn
        self.ping_fn = ping_fn
        self.stats = stats

    # -- public entry ---------------------------------------------------------

    def run(
        self, tasks: Dict[int, object]
    ) -> Tuple[Dict[int, object], Dict[int, BaseException]]:
        results: Dict[int, object] = {}
        task_errors: Dict[int, BaseException] = {}
        pending = dict(tasks)
        killed: List[int] = []
        round_index = 0
        last_cause: Optional[BaseException] = None
        while pending:
            if round_index > self.policy.max_retries:
                self._respawn_killed(killed)
                raise RetriesExhausted(
                    results, last_cause or RuntimeError("shard retries exhausted")
                )
            if round_index > 0:
                delay = self.policy.backoff(round_index - 1)
                if delay > 0:
                    time.sleep(delay)
                self.stats.retried_shards += len(pending)
                telemetry.event(
                    "resilience.retry_round",
                    round=round_index,
                    shards=len(pending),
                )
                for shard_index in sorted(pending):
                    pending[shard_index].attempt += 1
            assignments = self._assign(sorted(pending))
            futures = self._submit_round(pending, assignments)
            outcomes = self._gather(futures, assignments)
            for shard_index in sorted(outcomes):
                status, value = outcomes[shard_index]
                if status == "ok":
                    results[shard_index] = value
                    pending.pop(shard_index)
                    continue
                self.stats.worker_failures += 1
                last_cause = value
                telemetry.event(
                    "resilience.failure",
                    shard=shard_index,
                    classified=classify_failure(value),
                    error=type(value).__name__,
                )
                if classify_failure(value) == INFRASTRUCTURE:
                    if isinstance(value, ShardDeadlineExceeded):
                        self.stats.deadline_timeouts += 1
                    pool_index = assignments[shard_index]
                    if self.pools.slots[pool_index] is not None:
                        self.pools.kill(pool_index)
                    if pool_index not in killed:
                        killed.append(pool_index)
                    # stays pending: retried (possibly rebalanced) next round
                else:
                    task_errors[shard_index] = value
                    pending.pop(shard_index)
            round_index += 1
        self._respawn_killed(killed)
        return results, task_errors

    # -- scheduling internals -------------------------------------------------

    def _assign(self, shard_indices: List[int]) -> Dict[int, int]:
        """Deterministic shard→pool assignment for one round.

        Home pool when usable (healthy, or lazily unspawned — ``ensure``
        spawns it on submit); otherwise the least-loaded surviving pool
        (lowest index as tie-break).  When *every* pool is dead, home pools
        are respawned in place, so whole-generation degradation stays the
        genuine last resort.
        """
        loads: Dict[int, int] = {
            index: 0 for index in self.pools.usable_indices()
        }
        assignments: Dict[int, int] = {}
        for shard_index in shard_indices:
            if shard_index in loads:
                target = shard_index
            elif loads:
                target = min(loads, key=lambda pool: (loads[pool], pool))
                self.stats.rebalanced_shards += 1
            else:
                target = shard_index  # every pool is dead: respawn in place
                loads[target] = 0
            loads[target] = loads.get(target, 0) + 1
            assignments[shard_index] = target
        return assignments

    def _submit_round(
        self, pending: Dict[int, object], assignments: Dict[int, int]
    ) -> Dict[int, "Future | BaseException"]:
        futures: Dict[int, "Future | BaseException"] = {}
        for shard_index in sorted(pending):
            pool_index = assignments[shard_index]
            try:
                executor = self.pools.ensure(pool_index)
                futures[shard_index] = executor.submit(
                    self.run_fn, pending[shard_index]
                )
            except Exception as exc:
                # submit-time failures (pool broken before/while submitting)
                # are infrastructure faults of this shard's round
                futures[shard_index] = exc
        return futures

    def _gather(
        self,
        futures: Dict[int, "Future | BaseException"],
        assignments: Dict[int, int],
    ) -> Dict[int, Tuple[str, object]]:
        outcomes: Dict[int, Tuple[str, object]] = {}
        real: Dict[int, Future] = {}
        for shard_index in sorted(futures):
            value = futures[shard_index]
            if isinstance(value, BaseException):
                outcomes[shard_index] = ("error", value)
            else:
                real[shard_index] = value
        if not real:
            return outcomes
        deadline = self.policy.deadline_seconds
        if deadline is None:
            for shard_index in sorted(real):
                outcomes[shard_index] = self._outcome(real[shard_index])
            return outcomes
        # the watchdog: one bounded wait for the round.  Tasks sharing one
        # pool run serially (max_workers=1), so the budget scales with the
        # busiest pool's queue length instead of punishing rebalanced
        # rounds.
        busiest = max(
            sum(1 for s in real if assignments[s] == pool)
            for pool in sorted(set(assignments[s] for s in real))
        )
        effective = deadline * max(1, busiest)
        started = clock.monotonic()
        done, not_done = wait(list(real.values()), timeout=effective)
        self.stats.watchdog_wait_seconds += clock.monotonic() - started
        for shard_index in sorted(real):
            future = real[shard_index]
            if future in not_done:
                future.cancel()
                telemetry.event(
                    "resilience.deadline_timeout",
                    shard=shard_index,
                    budget_seconds=effective,
                )
                outcomes[shard_index] = (
                    "error",
                    ShardDeadlineExceeded(
                        f"shard {shard_index} exceeded its "
                        f"{deadline:g}s deadline (round budget {effective:g}s); "
                        "killing its worker pool"
                    ),
                )
            else:
                outcomes[shard_index] = self._outcome(future)
        return outcomes

    @staticmethod
    def _outcome(future: Future) -> Tuple[str, object]:
        try:
            return ("ok", future.result())
        except Exception as exc:
            return ("error", exc)

    def _respawn_killed(self, killed: List[int]) -> None:
        for pool_index in killed:
            if self.pools.respawn_in_background(pool_index, self.ping_fn):
                self.stats.respawned_pools += 1
                telemetry.event("resilience.respawn", pool=pool_index)
