"""Fault tolerance for the execution layer — retries and deadlines.

The package splits into two small pieces, consumed across the engine
and the solve server:

- :mod:`repro.resil.errors` — typed substrate failures
  (:class:`TaskTimeoutError`, :class:`PoolRebuildLimitError`, …) so callers
  can tell "task code raised" from "the machinery under it broke".
- :mod:`repro.resil.policy` — :class:`RetryPolicy` (retries, per-attempt
  timeout, deterministic exponential backoff — no RNG, preserving the
  bit-identical-when-quiet contract) plus the retry/timeout runners.

The seeded fault injection that proves all of the above recovers lives
in the test suite, not in the package.
"""

from .errors import (
    FaultToleranceError,
    OverloadedError,
    PoolRebuildLimitError,
    QueueFullError,
    TaskTimeoutError,
)
from .policy import RetryPolicy, call_with_retries, run_with_timeout

__all__ = [
    "FaultToleranceError",
    "OverloadedError",
    "PoolRebuildLimitError",
    "QueueFullError",
    "RetryPolicy",
    "TaskTimeoutError",
    "call_with_retries",
    "run_with_timeout",
]
