"""Task executors: an in-process loop or a process pool.

One API — :meth:`Executor.map_tasks` — fans a list of
:class:`~repro.engine.task.TaskSpec` out over the chosen backend and
returns :class:`~repro.engine.task.TaskResult` objects **in submission
order**, regardless of completion order.  Results are bit-identical
across the two backends because every source of randomness travels
inside the spec (the seed) and each task builds its own generators
from it.

Cache integration: when an :class:`~repro.engine.cache.ArtifactCache` is
attached, hits are served without dispatching and misses are persisted
as they complete, so a re-run of the same grid is pure cache replay —
and a re-run of a killed grid recomputes only its unfinished cells.

The optional ``context`` argument to :meth:`map_tasks` ships one live
object (e.g. a trained :class:`~repro.rl.agent.FloorplanAgent`) to every
task; under the process backend it is pickled once per worker via the
pool initializer rather than once per task.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs import (
    OBS,
    adopt_trace,
    drain_worker,
    get_logger,
    merge_worker,
    phase,
    trace_context,
)
from ..resil import (
    PoolRebuildLimitError,
    RetryPolicy,
    TaskTimeoutError,
    call_with_retries,
)
from .cache import ArtifactCache
from .task import TaskResult, TaskSpec, run_task

BACKENDS = ("serial", "process")

#: Worker start method: fork where the platform has it, else spawn.
START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")

logger = get_logger("engine")


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_threads() -> Optional[ctypes.c_int]:
    """numpy's bundled OpenBLAS thread count (``blas_cpu_number``).

    ``None`` where numpy ships no OpenBLAS or the library lacks the
    symbol; the worker cap is then a no-op.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
        except (OSError, ValueError):
            continue
    return None


#: Resolved once, in the parent; forked workers inherit the handle.
_BLAS_THREADS = _openblas_threads()


def lower_blas_threads(count: int) -> Optional[int]:
    """Lower, never raise, the thread count OpenBLAS reads per call.

    Returns the count found (``None`` without a handle), for
    :func:`restore_blas_threads`.  The write starts and stops no thread:
    at one thread OpenBLAS runs every call on the caller's thread, and a
    process that has no BLAS server thread yet (a forked worker: the
    fork handler stopped it) never starts one.
    """
    if _BLAS_THREADS is None:
        return None
    found = _BLAS_THREADS.value
    if found > count:
        _BLAS_THREADS.value = count
    return found


def restore_blas_threads(count: Optional[int]) -> None:
    """Put back a count :func:`lower_blas_threads` found."""
    if _BLAS_THREADS is not None and count is not None:
        _BLAS_THREADS.value = count


#: Per-worker shared context under the process backend (set by initializer).
_WORKER_CONTEXT: Any = None


def _init_worker(
    context: Any, obs_enabled: bool = False, trace_ctx: Any = None,
    blas_threads: Optional[int] = None,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    if blas_threads is not None:
        lower_blas_threads(blas_threads)
    # Telemetry state does not survive a spawn (and a forked child holds a
    # copy of the parent's registry *and trace buffer*): (re)arm recording
    # explicitly when the parent had it on, clear both sinks, and join the
    # parent's trace so worker spans land on the same logical timeline.
    OBS.enabled = obs_enabled
    if obs_enabled:
        OBS.registry.reset()
        OBS.tracer.reset()
        adopt_trace(trace_ctx)
    # Populate the task registry in spawned workers up front.
    from . import tasks  # noqa: F401


def _process_run(spec: TaskSpec, flow_id: Optional[str] = None) -> TaskResult:
    if not OBS.enabled:
        return run_task(spec, _WORKER_CONTEXT)
    # Ship this task's telemetry delta to the parent: tasks run serially
    # within a worker, so reset-before / drain-after is exactly the delta.
    OBS.registry.reset()
    if flow_id is not None:
        # Close the parent's dispatch flow arrow at task pickup.
        OBS.tracer.flow_end("engine.task", flow_id)
    with phase("engine.task.worker", label=spec.label):
        result = run_task(spec, _WORKER_CONTEXT)
    result.obs = drain_worker()
    return result


@dataclass
class ExecutorStats:
    """Bookkeeping for the most recent :meth:`Executor.map_tasks` call."""

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0   # sum of per-task compute time
    retries: int = 0            # attempts beyond the first, all causes
    timeouts: int = 0           # attempts that blew their deadline
    pool_rebuilds: int = 0      # worker pools torn down and rebuilt

    def summary(self) -> str:
        base = (
            f"{self.total} tasks: {self.computed} computed, "
            f"{self.cache_hits} cache hits, wall {self.wall_seconds:.2f} s, "
            f"cpu {self.task_seconds:.2f} s"
        )
        faults = []
        if self.retries:
            faults.append(f"{self.retries} retries")
        if self.timeouts:
            faults.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            faults.append(f"{self.pool_rebuilds} pool rebuilds")
        return base + (f" ({', '.join(faults)})" if faults else "")


class Executor:
    """Maps task specs over a backend with ordered results and caching.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-process loop, the default) or ``"process"``
        (:class:`~concurrent.futures.ProcessPoolExecutor` — true
        multi-core scaling for the CPU-bound solvers).
    workers:
        Pool size for the process backend; defaults to
        :func:`available_cores`.  Each worker lowers numpy's OpenBLAS
        thread count to ``max(1, cores // pool size)``, so workers ×
        BLAS threads ≤ cores.  The parent keeps its own count, which
        ``train`` uses; a started
        :class:`~repro.serve.server.SolveServer` lowers it to one, since
        its pool already takes every core.  The cap writes
        OpenBLAS's ``blas_cpu_number`` directly: calling
        ``openblas_set_num_threads`` in a worker starts a spinning BLAS
        server thread (perfbench ``sweep`` ``setup_s`` rose about 60%),
        and setting the count in the parent around the fork restarts
        the parent's server thread on every pool start.
    cache:
        Optional :class:`ArtifactCache`; pass ``None`` to always compute.
    policy:
        :class:`~repro.resil.RetryPolicy` applied to every task.  The
        default — no retries, no deadline — reproduces
        pre-fault-tolerance behavior exactly; backoff is deterministic
        (no RNG), so enabling retries cannot perturb seeded results.
    max_pool_rebuilds:
        How many times a crashed worker pool (``BrokenProcessPool``, or
        a deadline-blown worker that had to be killed) is rebuilt before
        :class:`~repro.resil.PoolRebuildLimitError` is raised.  Rebuilds
        resubmit only unfinished tasks and do **not** consume per-task
        retries — a pool crash cannot be attributed to one task.
    keep_pool:
        Keep one worker pool alive across :meth:`map_tasks` calls, for a
        long-lived caller such as the solve server; :meth:`close` shuts
        it down.  Concurrent calls share the pool, every task goes to it
        (no in-process shortcut for a lone task), and tasks get no
        ``context``.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        policy: Optional[RetryPolicy] = None,
        max_pool_rebuilds: int = 5,
        keep_pool: bool = False,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.backend = backend
        self.workers = workers if workers is not None else available_cores()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache
        self.policy = policy or RetryPolicy()
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        self.max_pool_rebuilds = max_pool_rebuilds
        self.keep_pool = keep_pool
        self.stats = ExecutorStats()
        #: The kept pool (``keep_pool``); the lock makes one caller the
        #: one that replaces it when it breaks under concurrent calls.
        self._pool = None
        self._pool_lock = threading.Lock()
        #: Kept pools discarded after a crash or a stuck worker, over the
        #: executor's lifetime (``stats`` covers only the latest call).
        self.pools_discarded = 0

    # -- fault-tolerance plumbing --------------------------------------
    def _note_timeout(self) -> None:
        self.stats.timeouts += 1
        if OBS.enabled:
            OBS.registry.inc("resil.timeouts")

    def _note_retry(self, retry_number: int, exc: BaseException) -> None:
        self.stats.retries += 1
        if isinstance(exc, TaskTimeoutError):
            self._note_timeout()
        if OBS.enabled:
            OBS.registry.inc("resil.retries")
        logger.warning("retry %d after %s: %s", retry_number,
                       type(exc).__name__, exc)

    # ------------------------------------------------------------------
    def map_tasks(
        self, specs: Sequence[TaskSpec], context: Any = None
    ) -> List[TaskResult]:
        """Run every spec; returns results aligned with ``specs`` order."""
        if self.keep_pool and context is not None:
            raise ValueError("an executor that keeps its pool takes no context")
        specs = list(specs)
        start = time.perf_counter()
        self.stats = ExecutorStats(total=len(specs))
        results: List[Optional[TaskResult]] = [None] * len(specs)
        # Cache hit accounting is read back from the cache's own metrics
        # registry (the single counting site) as a per-call delta.
        hits_before = self.cache.hits if self.cache is not None else 0
        telemetry = OBS.enabled
        if telemetry:
            OBS.registry.inc("engine.map_tasks")
            OBS.registry.inc("engine.tasks.total", len(specs))

        # Serve cache hits first so only misses hit the pool.
        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
            else:
                pending.append(i)
        self.stats.cache_hits = (self.cache.hits - hits_before
                                 if self.cache is not None else 0)

        #: submission perf_counter per pending index (queue-time metric).
        submitted: Dict[int, float] = {}

        def finish(index: int, result: TaskResult) -> None:
            results[index] = result
            self.stats.computed += 1
            self.stats.task_seconds += result.seconds
            if self.cache is not None:
                self.cache.put(result)
            if telemetry:
                now = time.perf_counter()
                began = submitted.get(index, now - result.seconds)
                reg = OBS.registry
                reg.inc("engine.tasks.computed")
                reg.observe("engine.task.run_seconds", result.seconds)
                # Queue time: waiting for a pool slot (plus result
                # shipping); zero-ish on the serial backend.
                reg.observe("engine.task.queue_seconds",
                            max(0.0, now - began - result.seconds))
                OBS.tracer.add_complete(
                    "engine.task", began, now,
                    {"label": result.spec.label, "backend": self.backend,
                     "run_s": round(result.seconds, 6)},
                )
                if result.obs is not None:
                    merge_worker(result.obs, label="engine-worker")
                    result.obs = None

        inline = self.backend == "serial" or (
            len(pending) <= 1 and not self.keep_pool
        )
        if inline:
            for i in pending:
                submitted[i] = time.perf_counter()
                finish(i, self._run_serial(specs[i], context))
        else:
            self._run_pool(specs, pending, context, finish, submitted,
                           telemetry)

        self.stats.wall_seconds = time.perf_counter() - start
        if telemetry:
            OBS.tracer.add_complete(
                "engine.map_tasks", start, time.perf_counter(),
                {"backend": self.backend, "tasks": len(specs),
                 "cache_hits": self.stats.cache_hits},
            )
        logger.debug("map_tasks: %s", self.stats.summary())
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_serial(self, spec: TaskSpec, context: Any) -> TaskResult:
        """One task in-process, under the executor's retry/timeout policy."""
        if self.policy.is_default:
            # Exactly the pre-fault-tolerance call — no wrapper thread,
            # no policy machinery on the default path.
            return run_task(spec, context)
        try:
            return call_with_retries(
                lambda: run_task(spec, context), self.policy,
                label=spec.label, on_retry=self._note_retry,
            )
        except TaskTimeoutError:
            self._note_timeout()  # the final (unretried) timed-out attempt
            raise

    # ------------------------------------------------------------------
    def _make_pool(self, context: Any, telemetry: bool, n_pending: int):
        ctx = multiprocessing.get_context(START_METHOD)
        size = min(self.workers, max(1, n_pending))
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=size, mp_context=ctx, initializer=_init_worker,
            initargs=(context, telemetry, trace_context(),
                      max(1, available_cores() // size)),
        )

    def _teardown_pool(self, pool, kill: bool = False) -> None:
        """Shut a pool down without waiting; optionally kill stuck workers."""
        if kill:
            # A worker past its deadline never returns; terminate so the
            # executor's shutdown doesn't join a process that won't exit.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _acquire_pool(self, context: Any, telemetry: bool, n_pending: int):
        """A fresh pool for this call, or the kept pool (``keep_pool``)."""
        if not self.keep_pool:
            return self._make_pool(context, telemetry, n_pending)
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool(context, telemetry, self.workers)
            return self._pool

    def _discard_pool(self, pool) -> None:
        """Kill a broken pool (or one holding a stuck worker).

        A kept pool is forgotten first, so the next :meth:`_acquire_pool`
        starts its replacement; a concurrent caller that reports the same
        pool later finds it already gone and just picks up the new one.
        """
        with self._pool_lock:
            if pool is self._pool:
                self._pool = None
                self.pools_discarded += 1
        self._teardown_pool(pool, kill=True)

    def close(self) -> None:
        """Shut the kept pool down (``keep_pool``); idempotent."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            self._teardown_pool(pool)

    def _run_pool(
        self,
        specs: Sequence[TaskSpec],
        pending: List[int],
        context: Any,
        finish: Callable[[int, TaskResult], None],
        submitted: Dict[int, float],
        telemetry: bool,
    ) -> None:
        """The process pool with retries, deadlines, and crash recovery.

        Replaces the plain submit/as_completed loop with a coordinator
        that (a) retries failed attempts under the executor's policy,
        with deterministic backoff served by resubmit-not-before
        timestamps instead of blocking sleeps; (b) enforces per-task
        wall deadlines from submission time; and (c) survives a broken
        pool (crashed worker, or a deadline-blown worker that had to be
        killed) by rebuilding it and resubmitting only unfinished tasks
        — without consuming their retry budgets, since a pool crash has
        no attributable culprit.  ``finish`` still delivers results into
        their submission-order slots, so ordering is unaffected.
        """
        policy = self.policy
        attempts = {i: 0 for i in pending}    # failed attempts consumed
        ready_at = {i: 0.0 for i in pending}  # backoff: no resubmit before
        unfinished = set(pending)
        pool = self._acquire_pool(context, telemetry, len(pending))
        inflight: Dict[concurrent.futures.Future, int] = {}
        deadlines: Dict[concurrent.futures.Future, Optional[float]] = {}
        rebuilds = 0
        failure: Optional[BaseException] = None
        broken = False

        def submit_one(index: int) -> None:
            spec = specs[index]
            flow_id = (OBS.tracer.flow_start("engine.task")
                       if telemetry else None)
            now = time.perf_counter()
            future = pool.submit(_process_run, spec, flow_id)
            submitted[index] = now
            inflight[future] = index
            deadlines[future] = (now + policy.timeout
                                 if policy.timeout is not None else None)

        try:
            while unfinished and failure is None:
                broken = False
                now = time.perf_counter()
                for i in sorted(unfinished - set(inflight.values())):
                    if ready_at[i] > now:
                        continue  # still backing off
                    try:
                        submit_one(i)
                    except concurrent.futures.BrokenExecutor:
                        broken = True
                        break

                if not broken:
                    # Block until a completion, the nearest deadline, or
                    # the nearest backoff expiry — whichever is first.
                    wake_at: Optional[float] = None
                    for future, deadline in deadlines.items():
                        if deadline is not None:
                            wake_at = (deadline if wake_at is None
                                       else min(wake_at, deadline))
                    for i in unfinished - set(inflight.values()):
                        wake_at = (ready_at[i] if wake_at is None
                                   else min(wake_at, ready_at[i]))
                    timeout = (None if wake_at is None
                               else max(0.0, wake_at - time.perf_counter()))
                    if inflight:
                        done, _ = concurrent.futures.wait(
                            set(inflight), timeout=timeout,
                            return_when=concurrent.futures.FIRST_COMPLETED)
                    else:
                        done = set()
                        if timeout:
                            time.sleep(min(timeout, 0.05))

                    for future in done:
                        i = inflight.pop(future)
                        deadlines.pop(future, None)
                        try:
                            result = future.result()
                        except (concurrent.futures.BrokenExecutor,
                                concurrent.futures.CancelledError):
                            # The pool died under this task — resubmit
                            # after rebuild, no retry consumed.
                            broken = True
                        except Exception as exc:  # the task's own failure
                            attempts[i] += 1
                            if attempts[i] > policy.retries:
                                failure = exc
                            else:
                                self._note_retry(attempts[i], exc)
                                ready_at[i] = (time.perf_counter()
                                               + policy.delay(attempts[i]))
                        else:
                            unfinished.discard(i)
                            finish(i, result)

                    # Deadlines blown by still-running futures.
                    now = time.perf_counter()
                    for future, deadline in list(deadlines.items()):
                        if deadline is None or now < deadline or future.done():
                            continue
                        i = inflight.pop(future)
                        deadlines.pop(future)
                        future.cancel()
                        attempts[i] += 1
                        self._note_timeout()
                        # The worker under this future is stuck; the only
                        # way to reclaim the slot is a pool rebuild.
                        broken = True
                        if attempts[i] > policy.retries:
                            failure = TaskTimeoutError(
                                specs[i].label, policy.timeout or 0.0,
                                attempts=attempts[i])
                        else:
                            self.stats.retries += 1
                            if telemetry:
                                OBS.registry.inc("resil.retries")
                            ready_at[i] = now + policy.delay(attempts[i])

                if broken and failure is None and unfinished:
                    rebuilds += 1
                    self.stats.pool_rebuilds += 1
                    if telemetry:
                        OBS.registry.inc("engine.pool_rebuilds")
                    if rebuilds > self.max_pool_rebuilds:
                        failure = PoolRebuildLimitError(
                            rebuilds, self.max_pool_rebuilds)
                        break
                    logger.warning(
                        "worker pool broke with %d unfinished tasks; "
                        "rebuilding (%d/%d)",
                        len(unfinished), rebuilds, self.max_pool_rebuilds)
                    self._discard_pool(pool)
                    inflight.clear()
                    deadlines.clear()
                    pool = self._acquire_pool(context, telemetry,
                                              len(unfinished))
        finally:
            if self.keep_pool and not broken:
                # The pool is healthy and stays; only this call's
                # leftovers (after a task failure) are dropped.
                for future in inflight:
                    future.cancel()
            elif failure is None and not inflight and not self.keep_pool:
                pool.shutdown(wait=True)
            else:
                self._discard_pool(pool)
        if failure is not None:
            raise failure
