"""Asyncio micro-batcher: coalesce concurrent awaits into one call.

The serving hot loop is policy inference; one forward over a batch of B
observations costs far less than B forwards over single observations
(PR 7's batched R-GCN path).  :class:`MicroBatcher` is the generic
coalescing primitive behind that win: producers ``await submit(item)``,
a single consumer task takes the first queued item, yields the event
loop once, drains the queue up to ``max_batch`` (default 8), invokes the
handler once with the whole batch and fans results back out to the
per-item futures.

No timer holds a batch open: producers that do synchronous work on the
loop between submissions (the server's solve sessions run ``env.step``
there) have re-submitted by the time the consumer resumes, so one turn
keeps step waves whole.  Under load, items pile up while the handler
runs; a lone item goes out after one turn.

Failure semantics: a handler exception rejects every future of that
batch (callers see the error); items whose future was cancelled in the
meantime (client disconnected mid-flight) are silently dropped — the
handler still runs for the remaining items and the consumer loop never
dies.

Backpressure: the queue is bounded (``maxsize``, default 1024 — generous
for the ~max_batch×sessions depth a healthy service sees).  When the
consumer cannot keep up, :meth:`submit` fails fast with
:class:`~repro.resil.QueueFullError` instead of letting the queue grow
without limit; the server maps that onto an explicit load-shed response.
Depth is published as the ``serve.queue_depth`` gauge when telemetry is
on.
"""

from __future__ import annotations

import asyncio
from typing import (
    Any, Awaitable, Callable, Generic, List, Optional, Sequence, Tuple, TypeVar,
)

from ..obs import OBS
from ..resil import QueueFullError

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Handler signature: a batch of items -> one result per item, aligned.
BatchHandler = Callable[[List[ItemT]], Awaitable[Sequence[ResultT]]]


def _fail(pairs: List[Tuple[Any, asyncio.Future]],
          exc: Optional[BaseException] = None) -> None:
    """Reject every still-awaited future of ``(item, future)`` pairs with
    ``exc`` (default: a "micro-batcher stopped" error)."""
    exc = exc or RuntimeError("micro-batcher stopped")
    for _, future in pairs:
        if not future.done():
            future.set_exception(exc)


class MicroBatcher(Generic[ItemT, ResultT]):
    """Single-consumer, work-conserving batching queue capped at ``max_batch``."""

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 8,
        maxsize: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._handler = handler
        self.max_batch = max_batch
        self.maxsize = maxsize
        self._queue: "asyncio.Queue[Tuple[ItemT, asyncio.Future]]" = (
            asyncio.Queue(maxsize=maxsize)
        )
        self._task: "asyncio.Task | None" = None
        #: Batch sizes actually dispatched (read by server telemetry).
        self.batches_dispatched = 0
        self.items_dispatched = 0

    @property
    def queue_depth(self) -> int:
        """Items currently waiting for a batch slot."""
        return self._queue.qsize()

    def _publish_depth(self) -> None:
        if OBS.enabled:
            OBS.registry.set_gauge("serve.queue_depth", self._queue.qsize())

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the consumer task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the consumer; pending submissions are rejected."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        queued = [self._queue.get_nowait() for _ in range(self._queue.qsize())]
        _fail(queued)

    async def submit(self, item: ItemT) -> ResultT:
        """Enqueue ``item`` and await its result from a batched call.

        Raises :class:`~repro.resil.QueueFullError` when the bounded
        queue is at capacity — fail fast so the caller can shed load,
        rather than queueing into unbounded memory and latency.
        """
        if self._task is None or self._task.done():
            raise RuntimeError("micro-batcher is not running (call start())")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((item, future))
        except asyncio.QueueFull:
            raise QueueFullError(self._queue.qsize(), self.maxsize,
                                 what="micro-batch queue") from None
        self._publish_depth()
        return await future

    # ------------------------------------------------------------------
    async def _gather(self) -> List[Tuple[ItemT, asyncio.Future]]:
        """Block for the first item, yield one loop turn, drain the queue."""
        batch = [await self._queue.get()]
        try:
            await asyncio.sleep(0)
        except asyncio.CancelledError:
            # stop() landed mid-gather: these items are in neither the
            # queue nor a dispatched batch, so reject them here.
            _fail(batch)
            raise
        while len(batch) < self.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        self._publish_depth()
        return batch

    async def _run(self) -> None:
        while True:
            batch = await self._gather()
            # Drop entries whose awaiter vanished (disconnect mid-flight).
            live = [(item, fut) for item, fut in batch if not fut.done()]
            if not live:
                continue
            self.batches_dispatched += 1
            self.items_dispatched += len(live)
            try:
                results = await self._handler([item for item, _ in live])
            except asyncio.CancelledError:
                _fail(live)
                raise
            except Exception as exc:  # noqa: BLE001 — fan out to callers
                _fail(live, exc)
                continue
            if len(results) != len(live):
                _fail(live, RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(live)} items"
                ))
                continue
            for (_, fut), result in zip(live, results):
                if not fut.done():
                    fut.set_result(result)
