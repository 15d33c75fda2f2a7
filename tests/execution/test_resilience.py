"""Unit tests for the resilience substrate and the fault-injection harness.

These cover the pieces below the engines: failure classification, the
``REPRO_FAULTS`` grammar, spec matching semantics, the retry policy, and the
dispatcher's watchdog/retry/rebalance behavior against a real process pool
— no estimator or circuit machinery involved.
"""

from __future__ import annotations

import time

import pytest

from repro.execution.faults import (
    DEFAULT_SLOW_SECONDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.execution.resilience import (
    INFRASTRUCTURE,
    TASK_ERROR,
    ResilientDispatcher,
    RetriesExhausted,
    RetryPolicy,
    ShardDeadlineExceeded,
    WorkerPoolGroup,
    classify_failure,
)


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------


class TestClassifyFailure:
    def test_broken_pool_is_infrastructure(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool("dead")) == INFRASTRUCTURE

    def test_broken_executor_is_infrastructure(self):
        from concurrent.futures import BrokenExecutor

        assert classify_failure(BrokenExecutor("dead")) == INFRASTRUCTURE

    def test_deadline_is_infrastructure(self):
        assert classify_failure(ShardDeadlineExceeded("hung")) == INFRASTRUCTURE

    def test_oserror_is_infrastructure(self):
        assert classify_failure(OSError("pipe")) == INFRASTRUCTURE

    def test_task_exceptions_are_task_errors(self):
        assert classify_failure(ValueError("bad maths")) == TASK_ERROR
        assert classify_failure(InjectedFault("flaky")) == TASK_ERROR
        assert classify_failure(RuntimeError("boom")) == TASK_ERROR


# ---------------------------------------------------------------------------
# REPRO_FAULTS grammar
# ---------------------------------------------------------------------------


class TestFaultPlanParsing:
    def test_empty_and_none_parse_to_empty_plan(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")

    def test_bare_spec(self):
        plan = FaultPlan.parse("crash@task_receive")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert spec.kind == "crash"
        assert spec.point == "task_receive"
        assert spec.shard is None and spec.generation is None
        assert spec.engine == "*" and spec.times == 1

    def test_full_qualifiers(self):
        plan = FaultPlan.parse(
            "slow@mid_evaluation[shard=2,gen=3,engine=gradient,times=4,seconds=0.5]"
        )
        spec = plan.specs[0]
        assert spec == FaultSpec(
            kind="slow", point="mid_evaluation", shard=2, generation=3,
            engine="gradient", times=4, seconds=0.5,
        )

    def test_wildcard_qualifiers(self):
        spec = FaultPlan.parse("hang@result_send[shard=*,gen=*]").specs[0]
        assert spec.shard is None and spec.generation is None

    def test_multiple_specs_keep_order(self):
        plan = FaultPlan.parse(
            "crash@task_receive[shard=0];flaky@result_send[shard=1]"
        )
        assert [s.kind for s in plan.specs] == ["crash", "flaky"]

    def test_round_trips_through_describe(self):
        text = "crash@task_receive[shard=0,gen=1];slow@mid_evaluation[seconds=0.1]"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_from_env_reads_repro_faults(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "flaky@task_receive"})
        assert plan.specs[0].kind == "flaky"
        assert not FaultPlan.from_env({})

    @pytest.mark.parametrize("bad", [
        "explode@task_receive",              # unknown kind
        "crash@lunch_break",                 # unknown point
        "crash@task_receive[engine=carrier]",  # unknown engine
        "crash@task_receive[shard=first]",   # non-int shard
        "crash@task_receive[color=red]",     # unknown qualifier
        "crash@task_receive[shard=0",        # unterminated bracket
        "crash",                             # missing @point
        "crash@task_receive[times=0]",       # times must be >= 1
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


class TestFaultMatching:
    def test_scoped_filters_by_engine(self):
        plan = FaultPlan.parse(
            "crash@task_receive[engine=execution];flaky@task_receive[engine=gradient];"
            "slow@task_receive"
        )
        assert [s.kind for s in plan.scoped("execution").specs] == ["crash", "slow"]
        assert [s.kind for s in plan.scoped("gradient").specs] == ["flaky", "slow"]
        assert plan.injector("execution") is not None
        assert FaultPlan.parse("crash@task_receive[engine=gradient]").injector(
            "execution"
        ) is None

    def test_times_gates_on_attempt(self):
        spec = FaultPlan.parse("crash@task_receive[times=2]").specs[0]
        assert spec.matches("execution", "task_receive", 0, 0, attempt=0)
        assert spec.matches("execution", "task_receive", 0, 0, attempt=1)
        assert not spec.matches("execution", "task_receive", 0, 0, attempt=2)

    def test_shard_and_generation_scope(self):
        spec = FaultPlan.parse("flaky@result_send[shard=1,gen=2]").specs[0]
        assert spec.matches("gradient", "result_send", 1, 2, 0)
        assert not spec.matches("gradient", "result_send", 0, 2, 0)
        assert not spec.matches("gradient", "result_send", 1, 1, 0)
        assert not spec.matches("gradient", "task_receive", 1, 2, 0)

    def test_injector_fire_flaky_raises_and_slow_sleeps(self):
        injector = FaultPlan.parse(
            "slow@task_receive[seconds=0.01];flaky@result_send"
        ).injector("execution")
        start = time.perf_counter()
        injector.fire("task_receive", 0, 0, 0)  # sleeps 0.01s, returns
        assert time.perf_counter() - start >= 0.01
        with pytest.raises(InjectedFault):
            injector.fire("result_send", 0, 0, 0)
        injector.fire("mid_evaluation", 0, 0, 0)  # nothing matches: no-op

    def test_injector_is_picklable(self):
        import pickle

        injector = FaultPlan.parse("flaky@task_receive").injector("execution")
        clone = pickle.loads(pickle.dumps(injector))
        with pytest.raises(InjectedFault):
            clone.fire("task_receive", 0, 0, 0)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_max_seconds=0.5, max_retries=10
        )
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)   # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    def test_zero_backoff_disables_sleeping(self):
        assert RetryPolicy(backoff_seconds=0.0).backoff(5) == 0.0

    def test_from_config_reads_shard_fields(self):
        class Config:
            shard_deadline_seconds = 3.5
            shard_retries = 7
            shard_backoff_seconds = 0.25
            shard_backoff_max_seconds = 1.5

        policy = RetryPolicy.from_config(Config())
        assert policy == RetryPolicy(
            deadline_seconds=3.5, max_retries=7,
            backoff_seconds=0.25, backoff_max_seconds=1.5,
        )

    def test_from_config_defaults_when_fields_missing(self):
        policy = RetryPolicy.from_config(object())
        assert policy == RetryPolicy()


# ---------------------------------------------------------------------------
# Dispatcher against a real pool (plain picklable tasks, no circuits)
# ---------------------------------------------------------------------------


class _Stats:
    """Bare counter bag carrying the resilience counter fields."""

    def __init__(self):
        self.worker_failures = 0
        self.retried_shards = 0
        self.rebalanced_shards = 0
        self.respawned_pools = 0
        self.deadline_timeouts = 0
        self.watchdog_wait_seconds = 0.0


class _Task:
    def __init__(self, shard_index, injector=None):
        self.shard_index = shard_index
        self.attempt = 0
        self.injector = injector


def _noop_init():
    pass


def _run_task(task):
    if task.injector is not None:
        task.injector.fire("task_receive", task.shard_index, 0, task.attempt)
    return ("done", task.shard_index, task.attempt)


def _run_task_mid(task):
    if task.injector is not None:
        task.injector.fire("mid_evaluation", task.shard_index, 0, task.attempt)
    return ("done", task.shard_index, task.attempt)


def _ping(value):
    return value


def make_dispatcher(workers, stats, **policy_kwargs):
    policy_kwargs.setdefault("backoff_seconds", 0.0)
    pools = WorkerPoolGroup(workers, _noop_init, lambda i, a: ())
    return ResilientDispatcher(
        pools, RetryPolicy(**policy_kwargs), _run_task, _ping, stats
    ), pools


class TestResilientDispatcher:
    def test_clean_round_returns_everything(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(2, stats)
        try:
            results, task_errors = dispatcher.run(
                {0: _Task(0), 1: _Task(1)}
            )
            assert results == {0: ("done", 0, 0), 1: ("done", 1, 0)}
            assert task_errors == {}
            assert stats.worker_failures == 0
            assert stats.retried_shards == 0
        finally:
            pools.close()

    def test_task_error_is_returned_not_retried(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(2, stats)
        injector = FaultPlan.parse("flaky@task_receive[shard=0]").injector(
            "execution"
        )
        try:
            results, task_errors = dispatcher.run(
                {0: _Task(0, injector), 1: _Task(1, injector)}
            )
            assert results == {1: ("done", 1, 0)}
            assert isinstance(task_errors[0], InjectedFault)
            assert stats.worker_failures == 1
            assert stats.retried_shards == 0
        finally:
            pools.close()

    def test_crash_retries_and_rebalances_onto_survivor(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(2, stats, max_retries=2)
        injector = FaultPlan.parse("crash@task_receive[shard=0]").injector(
            "execution"
        )
        try:
            results, task_errors = dispatcher.run(
                {0: _Task(0, injector), 1: _Task(1, injector)}
            )
            # shard 0 crashed once (attempt 0), then succeeded on retry
            assert results[0] == ("done", 0, 1)
            assert results[1] == ("done", 1, 0)
            assert task_errors == {}
            assert stats.worker_failures >= 1
            assert stats.retried_shards == 1
            assert stats.rebalanced_shards == 1   # pool 0 was dead
            assert stats.respawned_pools == 1     # and came back afterwards
        finally:
            pools.close()

    def test_exhaustion_raises_with_healthy_results(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(2, stats, max_retries=1)
        injector = FaultPlan.parse("crash@task_receive[shard=0,times=99]").injector(
            "execution"
        )
        try:
            with pytest.raises(RetriesExhausted) as info:
                dispatcher.run({0: _Task(0, injector), 1: _Task(1, injector)})
            # shard 1's completed result travels with the exception so the
            # engine can adopt its cache entries before degrading
            assert 1 in info.value.results
            assert stats.retried_shards >= 1
        finally:
            pools.close()

    def test_hang_detected_within_deadline_budget(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(
            2, stats, deadline_seconds=0.5, max_retries=1
        )
        injector = FaultPlan.parse(
            "hang@task_receive[shard=0,seconds=30]"
        ).injector("execution")
        try:
            start = time.perf_counter()
            results, task_errors = dispatcher.run(
                {0: _Task(0, injector), 1: _Task(1, injector)}
            )
            elapsed = time.perf_counter() - start
            # the hung shard was killed by the watchdog and retried (attempt
            # 1 no longer matches times=1), far faster than the 30s sleep
            assert results[0] == ("done", 0, 1)
            assert elapsed < 10.0
            assert stats.deadline_timeouts == 1
            assert stats.watchdog_wait_seconds > 0.0
            assert task_errors == {}
        finally:
            pools.close()

    def test_all_pools_dead_respawns_in_place(self):
        stats = _Stats()
        dispatcher, pools = make_dispatcher(1, stats, max_retries=2)
        injector = FaultPlan.parse("crash@task_receive").injector("execution")
        try:
            results, task_errors = dispatcher.run({0: _Task(0, injector)})
            # the only pool crashed; a fresh one was spawned in place
            assert results[0] == ("done", 0, 1)
            assert task_errors == {}
        finally:
            pools.close()


class TestWorkerPoolGroup:
    def test_spawn_counts_and_kill(self):
        pools = WorkerPoolGroup(2, _noop_init, lambda i, a: ())
        try:
            assert pools.alive_indices() == []
            pools.ensure(0)
            assert pools.alive_indices() == [0]
            assert pools.spawn_counts == [1, 0]
            pools.kill(0)
            assert pools.alive_indices() == []
            pools.ensure(0)
            assert pools.spawn_counts == [2, 0]
        finally:
            pools.close()

    def test_respawn_in_background_is_nonblocking_and_idempotent(self):
        pools = WorkerPoolGroup(1, _noop_init, lambda i, a: ())
        try:
            assert pools.respawn_in_background(0, _ping)
            # already alive: no double spawn
            assert not pools.respawn_in_background(0, _ping)
            assert pools.ensure(0).submit(_ping, 7).result() == 7
        finally:
            pools.close()

    def test_close_with_hung_worker_is_bounded(self):
        """Regression: close() must not join a worker stuck in a hung task.

        The old ``shutdown(wait=True)`` path blocked until the 30s injected
        hang finished; routing close through ``kill_executor`` terminates
        the stuck worker first, so close returns promptly.
        """
        pools = WorkerPoolGroup(1, _noop_init, lambda i, a: ())
        injector = FaultPlan.parse(
            "hang@mid_evaluation[seconds=30]"
        ).injector("execution")
        executor = pools.ensure(0)
        # prove the worker is up before handing it the hanging task
        assert executor.submit(_ping, 0).result(timeout=30) == 0
        executor.submit(_run_task_mid, _Task(0, injector))
        time.sleep(0.5)  # let the worker enter the hang
        start = time.perf_counter()
        pools.close()
        assert time.perf_counter() - start < 10.0
        assert pools.alive_indices() == []

    def test_respawn_failure_kills_leaked_executor(self, monkeypatch):
        """Regression: a pool constructed by ensure() whose ping submission
        fails must be killed, not abandoned with a live worker process."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.execution import resilience

        pools = WorkerPoolGroup(1, _noop_init, lambda i, a: ())
        killed = []
        real_kill = resilience.kill_executor
        monkeypatch.setattr(
            resilience,
            "kill_executor",
            lambda executor: (killed.append(executor), real_kill(executor))[1],
        )

        def broken_submit(self, *args, **kwargs):
            raise RuntimeError("submit exploded")

        monkeypatch.setattr(ProcessPoolExecutor, "submit", broken_submit)
        try:
            assert not pools.respawn_in_background(0, _ping)
            assert pools.slots[0] is None
            assert pools.dead[0]
            # the half-built pool was torn down instead of leaking
            assert len(killed) == 1
        finally:
            monkeypatch.undo()
            pools.close()
