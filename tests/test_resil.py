"""Fault-tolerance layer (repro.resil): policy units, the fault-decision
units behind the chaos suite, executor crash paths and the bounded
micro-batch queue.

Deterministic by construction: fault decisions are pure hashes, backoff
has no jitter, and every kill uses the sentinel ``KILL_EXIT_CODE`` so a
real crash can never masquerade as an injected one.  None of these tests
needs pytest-timeout locally; the CI chaos job adds ``--timeout`` as a
hang backstop.
"""

import asyncio
import os
import time

import pytest

from faults import KILL_EXIT_CODE, fires
from repro.engine import ArtifactCache, Executor, TaskSpec, register_task
from repro.resil import (
    PoolRebuildLimitError,
    QueueFullError,
    RetryPolicy,
    TaskTimeoutError,
    call_with_retries,
    run_with_timeout,
)
from repro.resil.policy import BACKOFF, MAX_BACKOFF, MULTIPLIER
from repro.serve import MicroBatcher


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_default_is_default(self):
        policy = RetryPolicy()
        assert policy.is_default
        assert policy.attempts == 1

    def test_attempts_counts_first_try(self):
        assert RetryPolicy(retries=3).attempts == 4

    def test_backoff_is_deterministic_exponential_and_capped(self):
        assert (BACKOFF, MULTIPLIER, MAX_BACKOFF) == (0.05, 2.0, 2.0)
        policy = RetryPolicy(retries=9)
        delays = [policy.delay(n) for n in range(1, 9)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        # Pure function of the attempt number: identical on every call.
        assert delays == [policy.delay(n) for n in range(1, 9)]

    def test_delay_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=1).delay(0)

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        {"timeout": 0.0},
        {"timeout": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRunWithTimeout:
    def test_returns_value_within_deadline(self):
        assert run_with_timeout(lambda: 41 + 1, (), timeout=5.0) == 42

    def test_raises_task_timeout(self):
        with pytest.raises(TaskTimeoutError, match="slow"):
            run_with_timeout(time.sleep, (5.0,), timeout=0.05, label="slow")

    def test_propagates_exception(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError, match="inner"):
            run_with_timeout(boom, (), timeout=5.0)


class TestCallWithRetries:
    def test_retry_then_succeed_with_deterministic_backoff(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        policy = RetryPolicy(retries=3)
        result = call_with_retries(flaky, policy, sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert slept == [0.05, 0.1]

    def test_exhausted_retries_reraise_last_error(self):
        def always():
            raise ValueError("permanent")

        policy = RetryPolicy(retries=2)
        with pytest.raises(ValueError, match="permanent"):
            call_with_retries(always, policy, sleep=lambda _: None)

    def test_final_timeout_carries_attempt_count(self):
        policy = RetryPolicy(retries=1, timeout=0.05)
        with pytest.raises(TaskTimeoutError) as info:
            call_with_retries(lambda: time.sleep(5.0), policy,
                              label="sleeper", sleep=lambda _: None)
        assert info.value.attempts == 2

    def test_on_retry_observes_each_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise RuntimeError("again")
            return 7

        policy = RetryPolicy(retries=5)
        result = call_with_retries(
            flaky, policy, on_retry=lambda n, exc: seen.append((n, str(exc))),
            sleep=lambda _: None)
        assert result == 7
        assert seen == [(1, "again"), (2, "again")]


# ---------------------------------------------------------------------------
# Deterministic fault decisions (tests/faults.py, behind the chaos suite)
# ---------------------------------------------------------------------------

class TestChaosFiring:
    def test_rate_one_always_rate_zero_never(self):
        assert all(fires("kill_worker", f"k{i}", 0, 1.0) for i in range(20))
        assert not any(fires("kill_worker", f"k{i}", 0, 0.0)
                       for i in range(20))

    def test_decision_is_pure_function_of_seed_kind_key(self):
        first = [fires("drop_conn", f"key{i}", 7, 0.5) for i in range(64)]
        again = [fires("drop_conn", f"key{i}", 7, 0.5) for i in range(64)]
        assert first == again
        assert any(first) and not all(first)  # rate 0.5 splits the keys

    def test_different_seed_changes_the_schedule(self):
        keys = [f"key{i}" for i in range(64)]
        a = [fires("drop_conn", k, 7, 0.5) for k in keys]
        b = [fires("drop_conn", k, 8, 0.5) for k in keys]
        assert a != b

    def test_once_marker_cross_process_via_dir(self, tmp_path):
        # ``fires`` keeps no process memory: the marker file alone stops
        # the second hit, as it must in a respawned worker.
        assert fires("kill_worker", "site", 0, 1.0, str(tmp_path))
        assert not fires("kill_worker", "site", 0, 1.0, str(tmp_path))
        assert fires("kill_worker", "other-site", 0, 1.0, str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 2


# ---------------------------------------------------------------------------
# Executor crash paths (process-pool kill, deadline, retry-then-succeed)
# ---------------------------------------------------------------------------

@register_task("resil_echo")
def _echo(params, seed, context):
    return seed * 7


@register_task("resil_kill_once")
def _kill_once(params, seed, context):
    """Victim task: dies hard on its first run, succeeds after that."""
    marker = params["marker"]
    if params.get("victim") and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(KILL_EXIT_CODE)
    return seed * 7


@register_task("resil_sleep")
def _sleep(params, seed, context):
    time.sleep(params["seconds"])
    return seed


@register_task("resil_flaky")
def _flaky(params, seed, context):
    """Fails ``params['failures']`` times, then succeeds (file counter,
    so the count survives process-backend attempts under fork)."""
    path = params["counter"]
    n = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as handle:
        handle.write(str(n + 1))
    if n < params["failures"]:
        raise RuntimeError(f"flaky failure {n}")
    return seed + 100


@pytest.fixture
def fork_ctx():
    """Process-backend tests need fork so test-registered tasks exist in
    workers (spawn would re-import only the library registry)."""
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")


class TestExecutorCrashPaths:
    def test_broken_pool_rebuilds_and_preserves_order(self, tmp_path,
                                                      fork_ctx):
        marker = str(tmp_path / "killed")
        specs = [
            TaskSpec(fn="resil_kill_once", seed=s,
                     params={"marker": marker, "victim": s == 2})
            for s in range(6)
        ]
        ex = Executor(backend="process", workers=2)
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [s * 7 for s in range(6)]
        assert ex.stats.pool_rebuilds >= 1
        assert ex.stats.computed == 6
        assert ex.stats.retries == 0  # a pool crash consumes no retries
        assert "pool rebuild" in ex.stats.summary()

    def test_rebuild_limit_raises_typed_error(self, tmp_path, fork_ctx):
        # No marker check: the victim dies on *every* attempt, so the
        # pool breaks until the rebuild cap trips.
        @register_task("resil_kill_always")
        def _kill_always(params, seed, context):  # noqa: F811
            os._exit(KILL_EXIT_CODE)

        specs = [TaskSpec(fn="resil_kill_always", seed=s) for s in range(2)]
        ex = Executor(backend="process", workers=2, max_pool_rebuilds=2)
        with pytest.raises(PoolRebuildLimitError, match="2"):
            ex.map_tasks(specs)
        assert ex.stats.pool_rebuilds == 3  # the limit-tripping attempt

    def test_serial_timeout_raises_and_counts(self):
        ex = Executor(backend="serial", policy=RetryPolicy(timeout=0.1))
        with pytest.raises(TaskTimeoutError):
            ex.map_tasks([TaskSpec(fn="resil_sleep",
                                   params={"seconds": 2.0})])
        assert ex.stats.timeouts == 1
        assert ex.stats.computed == 0

    def test_process_timeout_reclaims_stuck_worker(self, fork_ctx):
        # Two fast tasks plus one hung one: the blown deadline must kill
        # the stuck worker (pool rebuild), fail the task, and leave the
        # finished results intact.
        specs = [
            TaskSpec(fn="resil_echo", seed=0),
            TaskSpec(fn="resil_sleep", params={"seconds": 60.0}),
            TaskSpec(fn="resil_echo", seed=2),
        ]
        # The deadline now covers every task, so it leaves the fast
        # tasks ample room on a loaded machine.
        ex = Executor(backend="process", workers=2,
                      policy=RetryPolicy(timeout=2.0))
        began = time.perf_counter()
        with pytest.raises(TaskTimeoutError, match="resil_sleep"):
            ex.map_tasks(specs)
        assert time.perf_counter() - began < 30.0  # not 60: worker killed
        assert ex.stats.timeouts == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_retry_then_succeed_all_backends(self, backend, tmp_path,
                                             fork_ctx):
        counter = str(tmp_path / f"count-{backend}")
        specs = [
            TaskSpec(fn="resil_echo", seed=0),
            TaskSpec(fn="resil_flaky", seed=1,
                     params={"counter": counter, "failures": 2}),
            TaskSpec(fn="resil_echo", seed=2),
        ]
        ex = Executor(backend=backend, workers=2,
                      policy=RetryPolicy(retries=3))
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [0, 101, 14]
        assert ex.stats.retries == 2
        assert ex.stats.computed == 3
        assert ex.stats.timeouts == 0
        assert "2 retries" in ex.stats.summary()

    def test_retries_exhausted_propagates_task_error(self, tmp_path):
        counter = str(tmp_path / "count-exhausted")
        spec = TaskSpec(fn="resil_flaky",
                        params={"counter": counter, "failures": 99})
        ex = Executor(backend="serial", policy=RetryPolicy(retries=2))
        with pytest.raises(RuntimeError, match="flaky failure 2"):
            ex.map_tasks([spec])
        assert ex.stats.retries == 2

    def test_default_policy_unchanged_failure_semantics(self, tmp_path):
        counter = str(tmp_path / "count-default")
        spec = TaskSpec(fn="resil_flaky",
                        params={"counter": counter, "failures": 1})
        ex = Executor(backend="serial")
        with pytest.raises(RuntimeError, match="flaky failure 0"):
            ex.map_tasks([spec])
        assert ex.stats.retries == 0


@register_task("resil_pid")
def _pid(params, seed, context):
    return os.getpid()


class TestKeptPool:
    """``Executor(keep_pool=True)``: one worker pool across calls."""

    def _pid(self, ex, seed=0):
        (result,) = ex.map_tasks([TaskSpec(fn="resil_pid", seed=seed)])
        return result.value

    def test_pool_survives_calls_until_close(self, fork_ctx):
        ex = Executor(backend="process", workers=1, keep_pool=True)
        try:
            first = self._pid(ex, 0)
            assert first != os.getpid()  # a lone task still goes to the pool
            assert self._pid(ex, 1) == first
        finally:
            ex.close()
        ex.close()  # idempotent
        assert ex.pools_discarded == 0

    def test_lone_task_runs_inline_without_a_kept_pool(self):
        # The one inline rule: a single pending task skips the pool
        # unless the pool is kept (then it goes there, as above).
        ex = Executor(backend="process", workers=2)
        assert self._pid(ex) == os.getpid()
        assert ex.pools_discarded == 0

    def test_crashed_pool_replaced_and_task_resubmitted(self, tmp_path,
                                                        fork_ctx):
        ex = Executor(backend="process", workers=1, keep_pool=True)
        try:
            before = self._pid(ex)
            spec = TaskSpec(fn="resil_kill_once", seed=3,
                            params={"marker": str(tmp_path / "killed"),
                                    "victim": True})
            (result,) = ex.map_tasks([spec])
            assert result.value == 21
            assert ex.pools_discarded == 1
            assert self._pid(ex) != before
        finally:
            ex.close()

    def test_task_failure_keeps_pool(self, tmp_path, fork_ctx):
        ex = Executor(backend="process", workers=1, keep_pool=True)
        try:
            before = self._pid(ex)
            spec = TaskSpec(fn="resil_flaky",
                            params={"counter": str(tmp_path / "count"),
                                    "failures": 99})
            with pytest.raises(RuntimeError, match="flaky failure 0"):
                ex.map_tasks([spec])
            assert self._pid(ex) == before
            assert ex.pools_discarded == 0
        finally:
            ex.close()

    def test_context_rejected(self):
        ex = Executor(backend="process", keep_pool=True)
        with pytest.raises(ValueError, match="context"):
            ex.map_tasks([TaskSpec(fn="resil_echo")], context=object())


# ---------------------------------------------------------------------------
# Bounded micro-batch queue
# ---------------------------------------------------------------------------

class TestMicroBatcherBound:
    def test_overflow_raises_queue_full(self):
        async def run():
            release = asyncio.Event()

            async def handler(items):
                await release.wait()
                return [item for item in items]

            batcher = MicroBatcher(handler, max_batch=1, maxsize=2)
            batcher.start()
            try:
                # First item is pulled into the (blocked) batch; the next
                # two fill the queue; the fourth must be refused loudly.
                tasks = [asyncio.ensure_future(batcher.submit(0))]
                await asyncio.sleep(0.05)  # consumer now blocked in handler
                tasks += [asyncio.ensure_future(batcher.submit(i))
                          for i in (1, 2)]
                await asyncio.sleep(0.05)
                assert batcher.queue_depth == 2
                with pytest.raises(QueueFullError, match="micro-batch"):
                    await batcher.submit(99)
                release.set()
                assert await asyncio.gather(*tasks) == [0, 1, 2]
            finally:
                release.set()
                await batcher.stop()

        asyncio.run(run())

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, maxsize=0)
