"""Typed fault-tolerance errors shared across the engine and serve.

Every recoverable-failure path in the execution layer raises (or
catches) one of these instead of a bare ``RuntimeError``, so callers can
distinguish "the task's own code raised" from "the execution substrate
failed" (worker killed, deadline blown, queue full) and apply the right
policy — retry, resubmit or shed.
"""

from __future__ import annotations


class FaultToleranceError(RuntimeError):
    """Base class: a failure of the execution substrate, not of task code."""


class TaskTimeoutError(FaultToleranceError):
    """A task exceeded its per-task ``timeout`` (all retries included)."""

    def __init__(self, label: str, timeout: float, attempts: int = 1):
        self.label = label
        self.timeout = timeout
        self.attempts = attempts
        suffix = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(
            f"task {label!r} exceeded its {timeout:g}s timeout{suffix}"
        )


class PoolRebuildLimitError(FaultToleranceError):
    """The executor's process pool crashed more times than allowed."""

    def __init__(self, rebuilds: int, limit: int):
        self.rebuilds = rebuilds
        self.limit = limit
        super().__init__(
            f"process pool crashed {rebuilds} times "
            f"(max_pool_rebuilds={limit}); giving up"
        )


class QueueFullError(FaultToleranceError):
    """A bounded queue rejected an item (backpressure, not a crash)."""

    def __init__(self, depth: int, maxsize: int, what: str = "queue"):
        self.depth = depth
        self.maxsize = maxsize
        super().__init__(
            f"{what} is full ({depth}/{maxsize} pending); shedding load"
        )


class OverloadedError(FaultToleranceError):
    """The server's admission limit was hit; the request was shed."""

    def __init__(self, inflight: int, limit: int):
        self.inflight = inflight
        self.limit = limit
        super().__init__(
            f"server overloaded: {inflight} requests in flight "
            f"(max_inflight={limit}); request shed"
        )
