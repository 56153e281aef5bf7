"""Floorplan-as-a-service: the async micro-batched solve server.

One long-lived :class:`SolveServer` turns the one-circuit-at-a-time
paper pipeline into a service (ROADMAP item 2).  The request path, in
order of preference:

1. **Cache** — the request is hashed into the engine's content-addressed
   key space (:meth:`~repro.serve.protocol.SolveRequest.task_spec`);
   repeat requests answer from the :class:`ArtifactCache` without
   recomputation, across restarts and alongside CLI sweeps.
2. **Single-flight** — identical requests already being computed are
   coalesced onto the in-flight result instead of duplicating work.
3. **Micro-batched RL solve** — a cold ``method="rl"`` request runs
   :func:`~repro.rl.agent.solve_session`, the episode loop offline
   solves run too, with its per-step policy calls funneled through the
   :class:`MicroBatcher`, so N concurrent sessions share one
   ``MaskedPPO.act`` over ``stack_observations`` + the batched R-GCN
   forward per step wave.  Sessions step their envs on the loop and
   re-submit within one loop turn, so the batcher dispatches each wave
   as soon as it is whole, with no timer.  Each session samples from
   its own seed-derived generator via the per-row ``act`` entry, so
   answers are bit-identical whether a request runs alone or coalesced
   (``tests/test_determinism.py::TestServingDeterminism``).
4. **Sharded cold solves** — baseline methods (SA/GA/...) are full
   CPU-bound searches; they run as engine tasks on the server's
   :class:`~repro.engine.executor.Executor`, which keeps one worker pool
   for the server's lifetime, so the event loop never blocks.

Telemetry goes through ``repro.obs`` shapes only: a per-server
always-on :class:`MetricsRegistry` (the ``stats`` op and the load
benchmark read it) mirrored into the global ``OBS`` registry/tracer when
the CLI enables ``--metrics``/``--trace`` — request latency histograms
(p50/p99), ``serve.batch_size``, cache hit counters, and a trace span
per request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..baselines.common import FloorplanResult
from ..circuits.library import available_circuits, get_circuit
from ..circuits.netlist import Circuit
from ..config import TrainConfig
from ..engine.cache import ArtifactCache, floorplan_result_to_dict
from ..engine.executor import BACKENDS, Executor
from ..engine.task import TaskResult, TaskSpec
from ..engine.tasks import agent_fingerprint
from ..floorplan.env import FloorplanEnv, Observation
from ..floorplan.vecenv import stack_observations
from ..graph.hetero import HeteroGraph
from ..obs import OBS, drain_worker, get_logger
from ..obs.metrics import MetricsRegistry
from ..resil import OverloadedError, QueueFullError
from ..rl.agent import FloorplanAgent, solve_session
from .batcher import MicroBatcher
from .protocol import (
    PROTOCOL_VERSION,
    RL_METHOD,
    MAX_LINE_BYTES,
    ProtocolError,
    SolveRequest,
    error_response,
    ok_response,
    parse_request,
    parse_solve,
)

logger = get_logger("serve")

#: Crashed baseline-pool rebuilds allowed per request.
POOL_REBUILDS = 2


@dataclass
class ServeConfig:
    """Knobs of one :class:`SolveServer` instance.

    ``port=0`` binds an ephemeral port (the bound address is available
    as :attr:`SolveServer.address` after :meth:`SolveServer.start`), so
    tests and benchmarks parallelize without port collisions.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 8                  #: micro-batch size cap
    workers: Optional[int] = None       #: cold-solve pool size
    backend: str = "process"            #: cold-solve backend (process/serial)
    cache: bool = True                  #: serve repeats from the artifact cache
    cache_dir: Optional[str] = None     #: cache root override
    agent_prefix: Optional[str] = None  #: checkpoint prefix to load
    agent_seed: int = 0                 #: fresh-agent init seed (no checkpoint)
    # -- fault tolerance (repro.resil) ---------------------------------
    max_inflight: int = 64              #: admission cap on concurrent solves
    deadline_ms: Optional[float] = None  #: server-default per-request deadline
    queue_size: int = 1024              #: micro-batcher queue bound
    drain_timeout: float = 5.0          #: close(): grace for in-flight solves

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


@dataclass
class _StepItem:
    """One pending policy step of a solve session (micro-batcher item)."""

    observation: Observation
    deterministic: bool
    rng: np.random.Generator


class SolveServer:
    """Asyncio solve service over the line-delimited JSON protocol."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        agent: Optional[FloorplanAgent] = None,
    ):
        self.config = config or ServeConfig()
        if agent is None:
            agent = FloorplanAgent(config=TrainConfig(seed=self.config.agent_seed))
            if self.config.agent_prefix:
                agent.load(self.config.agent_prefix)
        self.agent = agent
        #: Weight digest folded into every RL cache key: a retrained or
        #: differently-seeded agent can never replay another's artifacts.
        self.agent_digest = agent_fingerprint(agent)
        self.cache = (
            ArtifactCache(root=self.config.cache_dir) if self.config.cache else None
        )
        #: Always-on request telemetry (the ``stats`` op and the serving
        #: benchmark read this); mirrored into the global ``OBS``
        #: registry when CLI telemetry is enabled — same shapes, no
        #: second metrics stack.
        self.metrics = MetricsRegistry()
        self._batcher: MicroBatcher = MicroBatcher(
            self._act_batch,
            max_batch=self.config.max_batch,
            maxsize=self.config.queue_size,
        )
        #: Runs baseline solves on one worker pool kept for the server's
        #: lifetime (rebuilt when a worker crashes).
        self.executor = Executor(
            backend=self.config.backend, workers=self.config.workers,
            max_pool_rebuilds=POOL_REBUILDS, keep_pool=True,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: Solve requests currently being processed (admission control).
        self._admitted = 0
        #: Live compute tasks, so close() can drain them gracefully.
        self._active_tasks: set = set()
        #: Single-flight table: spec hash -> future of (result, seconds).
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Shared immutable per-request-shape state: circuit objects,
        #: canonical graphs (one uid per shape => embedding-cache hits
        #: across sessions), and a free-list of reusable envs.
        self._circuits: Dict[Tuple[str, bool], Circuit] = {}
        self._graphs: Dict[Tuple, HeteroGraph] = {}
        self._free_envs: Dict[Tuple, List[FloorplanEnv]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the micro-batcher."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        logger.info("serving on %s (max_batch=%d, cache=%s)",
                    self.endpoint, self.config.max_batch,
                    "off" if self.cache is None else self.cache.root)

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` — resolves ephemeral ``port=0`` binds."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def endpoint(self) -> str:
        if self._server is not None:
            host, port = self.address
            return f"{host}:{port}"
        return f"{self.config.host}:{self.config.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def close(self, drain: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down.

        In-flight solves get up to ``drain`` seconds (default:
        ``config.drain_timeout``) to finish — their clients receive real
        responses instead of reset connections — before the batcher and
        pool are stopped.  Solves still running after the grace period
        are cancelled and counted in ``serve.drain_abandoned``.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        timeout = self.config.drain_timeout if drain is None else drain
        pending = {task for task in self._active_tasks if not task.done()}
        if pending and timeout > 0:
            logger.info("draining %d in-flight solves (up to %.1fs)",
                        len(pending), timeout)
            _, still_running = await asyncio.wait(pending, timeout=timeout)
            self._count("serve.drained", len(pending) - len(still_running))
            if still_running:
                self._count("serve.drain_abandoned", len(still_running))
                logger.warning("drain timeout: cancelling %d solves",
                               len(still_running))
                for task in still_running:
                    task.cancel()
        elif pending:
            for task in pending:
                task.cancel()
        await self._batcher.stop()
        self.executor.close()

    # ------------------------------------------------------------------
    # Telemetry: the per-server registry, mirrored into ``OBS`` when on
    # ------------------------------------------------------------------
    def _count(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)
        if OBS.enabled:
            OBS.registry.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        if OBS.enabled:
            OBS.registry.observe(name, value)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count("serve.connections")
        try:
            await self._conn_loop(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancels handler tasks mid-read; exiting
            # quietly (the connection dies with the loop) beats asyncio's
            # "exception in callback" noise for a cancelled handler.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _conn_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                # Oversized line: the stream is no longer framed; report
                # and drop the connection.
                writer.write(error_response(
                    None, f"request line exceeds {MAX_LINE_BYTES} bytes"))
                await writer.drain()
                return
            except (ConnectionResetError, BrokenPipeError):
                return
            if not line:
                return  # EOF: client closed
            if not line.strip():
                continue
            response = await self._dispatch(line.strip())
            try:
                writer.write(response)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return

    async def _dispatch(self, line: bytes) -> bytes:
        """One request line -> one response line; errors never propagate."""
        request_id: Any = None
        t0 = time.perf_counter()
        try:
            payload = parse_request(line)
            request_id = payload.get("id")
            op = payload.get("op", "solve")
            if op == "ping":
                return ok_response(request_id, pong=True,
                                   version=PROTOCOL_VERSION)
            if op == "stats":
                return ok_response(
                    request_id,
                    stats=self.stats(drain=bool(payload.get("drain"))),
                )
            if op == "solve":
                if self._admitted >= self.config.max_inflight:
                    # Admission control: answer *now* with an explicit
                    # shed instead of queueing into unbounded latency.
                    return self._shed(request_id, OverloadedError(
                        self._admitted, self.config.max_inflight))
                self._admitted += 1
                try:
                    return await self._solve(parse_solve(payload), t0)
                except QueueFullError as exc:
                    return self._shed(request_id, exc)
                finally:
                    self._admitted -= 1
            raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError as exc:
            self._count("serve.errors")
            return error_response(request_id, str(exc))
        except Exception as exc:  # noqa: BLE001 — respond, don't die
            logger.exception("request failed")
            self._count("serve.errors")
            return error_response(
                request_id, f"internal error: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # The solve path
    # ------------------------------------------------------------------
    def _shed(self, request_id: Any, exc: Exception) -> bytes:
        """Explicit load-shed response + counters (never an exception)."""
        self._count("serve.shed")
        logger.warning("shedding request: %s", exc)
        return error_response(request_id, str(exc), shed=True)

    async def _solve(self, request: SolveRequest, t0: float) -> bytes:
        circuit = self._circuit_for(request)
        spec = request.task_spec(circuit, self.agent_digest)
        key = spec.content_hash()
        cached = coalesced = False
        result: Optional[FloorplanResult] = None
        seconds = 0.0
        #: Per-request deadline: the client's, else the server default.
        deadline_ms = (request.deadline_ms
                       if request.deadline_ms is not None
                       else self.config.deadline_ms)

        if self.cache is not None:
            hit = await asyncio.to_thread(self.cache.get, spec)
            if hit is not None:
                result, seconds, cached = hit.value, hit.seconds, True

        if result is None:
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Identical request already computing: piggyback on it.
                awaitable = inflight
                coalesced = True
            else:
                # The compute runs as its own task so a blown deadline
                # abandons only *this request's wait*: the solve keeps
                # going, still lands in the cache, and still feeds any
                # coalesced waiters (shield + task, not cancellation).
                # The single-flight future must be registered *before*
                # this coroutine next yields — create_task defers the
                # compute body to the next tick, and an identical
                # request checking the table in that window would start
                # a second compute.
                loop = asyncio.get_running_loop()
                future: asyncio.Future = loop.create_future()
                self._inflight[key] = future
                task = loop.create_task(
                    self._compute(request, circuit, spec, key, future))
                task.add_done_callback(self._reap_task)
                self._active_tasks.add(task)
                awaitable = task
            if deadline_ms is None:
                result, seconds = await asyncio.shield(awaitable)
            else:
                remaining = deadline_ms / 1000.0 - (time.perf_counter() - t0)
                try:
                    result, seconds = await asyncio.wait_for(
                        asyncio.shield(awaitable), max(0.0, remaining))
                except asyncio.TimeoutError:
                    self._count("serve.deadline_exceeded")
                    return error_response(
                        request.request_id,
                        f"deadline exceeded after {deadline_ms:g}ms",
                        deadline_exceeded=True,
                    )

        now = time.perf_counter()
        self._observe("serve.request.seconds", now - t0)
        self._count("serve.requests")
        self._count("serve.cache.hit" if cached else "serve.cache.miss")
        if OBS.enabled:
            OBS.tracer.add_complete(
                "serve.request", t0, now,
                {"circuit": request.circuit, "method": request.method,
                 "seed": request.seed, "cached": cached,
                 "coalesced": coalesced},
            )
        return ok_response(
            request.request_id,
            result=floorplan_result_to_dict(result),
            cached=cached,
            coalesced=coalesced,
            seconds=seconds,
        )

    def _reap_task(self, task: "asyncio.Task") -> None:
        """Done-callback for compute tasks: untrack + mark errors seen.

        A deadline-abandoned task has no awaiter left; retrieving its
        exception here keeps asyncio from logging "exception was never
        retrieved" (the error already went to every request that was
        still waiting via the single-flight future).
        """
        self._active_tasks.discard(task)
        if not task.cancelled():
            task.exception()

    async def _compute(
        self,
        request: SolveRequest,
        circuit: Circuit,
        spec: TaskSpec,
        key: str,
        future: asyncio.Future,
    ) -> Tuple[FloorplanResult, float]:
        """Run one cold solve, publishing it to coalesced waiters + cache.

        ``future`` is the single-flight entry the caller already put in
        ``self._inflight`` (registration must be synchronous with the
        table check; see :meth:`_solve`)."""
        try:
            run_t0 = time.perf_counter()
            if request.method == RL_METHOD:
                result = await self._solve_rl(request, circuit)
            else:
                result = await self._solve_baseline(spec)
            seconds = time.perf_counter() - run_t0
            if self.cache is not None:
                await asyncio.to_thread(
                    self.cache.put,
                    TaskResult(spec=spec, value=result, seconds=seconds),
                )
            future.set_result((result, seconds))
            return result, seconds
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            future.exception()  # mark retrieved when nobody coalesced
            raise
        finally:
            self._inflight.pop(key, None)

    async def _solve_rl(
        self, request: SolveRequest, circuit: Circuit
    ) -> FloorplanResult:
        """One :func:`~repro.rl.agent.solve_session` whose policy steps go
        through the micro-batcher.

        Bit-identical to the offline :meth:`FloorplanAgent.solve`: the
        episode loop is the same code, every session owns its
        seed-derived generator, and the per-row ``act`` entry consumes it
        exactly as a batch-of-one call would.
        """
        env_key = (request.circuit, request.unconstrained, request.target_aspect)
        env = self._acquire_env(env_key, circuit, request.target_aspect)
        rng = np.random.default_rng(request.seed)
        session = solve_session(env, request.deterministic, request.attempts)
        action = None
        try:
            while True:
                obs, greedy = session.send(action)
                action = await self._batcher.submit(_StepItem(obs, greedy, rng))
        except StopIteration as finished:
            return finished.value
        finally:
            session.close()
            self._release_env(env_key, env)

    async def _act_batch(self, items: List[_StepItem]) -> List[int]:
        """Micro-batcher handler: one policy forward for a step wave."""
        stacked = stack_observations([item.observation for item in items])
        deterministic = np.array([item.deterministic for item in items],
                                 dtype=bool)
        rngs = [item.rng for item in items]
        self._observe("serve.batch_size", len(items))
        # numpy GEMMs release the GIL; running the forward off-loop keeps
        # the server accepting connections during inference.
        actions, _, _ = await asyncio.to_thread(
            self.agent.ppo.act, stacked, deterministic, rngs
        )
        return [int(action) for action in actions]

    async def _solve_baseline(self, spec: TaskSpec) -> FloorplanResult:
        """Run a cold full solve on the server's executor, off the loop.

        The executor's kept pool survives between requests; when a
        worker crashes it is rebuilt and the solve resubmitted, up to
        :data:`POOL_REBUILDS` times per request.
        """
        (result,) = await asyncio.to_thread(self.executor.map_tasks, [spec])
        return result.value

    # ------------------------------------------------------------------
    # Shared state helpers
    # ------------------------------------------------------------------
    def _circuit_for(self, request: SolveRequest) -> Circuit:
        key = (request.circuit, request.unconstrained)
        circuit = self._circuits.get(key)
        if circuit is None:
            if request.circuit not in available_circuits():
                raise ProtocolError(
                    f"unknown circuit {request.circuit!r}; available: "
                    f"{', '.join(available_circuits())}"
                )
            circuit = get_circuit(request.circuit)
            if request.unconstrained:
                circuit = circuit.with_constraints([])
            self._circuits[key] = circuit
        return circuit

    def _acquire_env(
        self,
        key: Tuple,
        circuit: Circuit,
        target_aspect: Optional[float],
    ) -> FloorplanEnv:
        free = self._free_envs.setdefault(key, [])
        if free:
            return free.pop()
        env = FloorplanEnv(circuit, target_aspect=target_aspect)
        canonical = self._graphs.get(key)
        if canonical is None:
            self._graphs[key] = env.graph
        else:
            # All sessions of one request shape observe the same graph
            # object (same uid), so the policy's embedding LRU hits
            # instead of re-encoding per session.
            env.graph = canonical
        return env

    def _release_env(self, key: Tuple, env: FloorplanEnv) -> None:
        self._free_envs.setdefault(key, []).append(env)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, drain: bool = False) -> Dict[str, Any]:
        """JSON-safe service metrics (the ``stats`` op's payload).

        With ``drain=True`` (``SolveClient.stats(drain=True)``) and CLI
        telemetry enabled in this server process, the payload also
        carries an ``"obs"`` worker payload — the server's global
        registry delta plus its trace (already merged with its own pool
        workers') — so a remote benchmark or training parent can fold
        the *service's* spans onto its own wall-clock axis with
        :func:`repro.obs.merge_worker`.
        """
        requests = self.metrics.counters.get("serve.requests", 0)
        hits = self.metrics.counters.get("serve.cache.hit", 0)
        data: Dict[str, Any] = {
            "requests": int(requests),
            "errors": int(self.metrics.counters.get("serve.errors", 0)),
            "connections": int(self.metrics.counters.get("serve.connections", 0)),
            "cache_hits": int(hits),
            "cache_misses": int(self.metrics.counters.get("serve.cache.miss", 0)),
            "hit_rate": float(hits / requests) if requests else 0.0,
            "batches": self._batcher.batches_dispatched,
            "batched_steps": self._batcher.items_dispatched,
            "queue_depth": self._batcher.queue_depth,
            "shed": int(self.metrics.counters.get("serve.shed", 0)),
            "deadline_exceeded": int(
                self.metrics.counters.get("serve.deadline_exceeded", 0)),
            "pool_rebuilds": self.executor.pools_discarded,
            "agent": self.agent_digest,
            "endpoint": self.endpoint,
        }
        for name, label in (("serve.request.seconds", "latency"),
                            ("serve.batch_size", "batch_size")):
            summary = self.metrics.histogram_summary(name)
            if summary.get("count"):
                data[label] = summary
        if self.cache is not None:
            data["cache"] = self.cache.stats()
        if drain and OBS.enabled:
            data["obs"] = drain_worker()
            data["trace_id"] = OBS.tracer.trace_id
        return data
