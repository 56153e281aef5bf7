"""Retry/timeout/backoff policy — deterministic by construction.

A :class:`RetryPolicy` bundles the two execution knobs the engine
exposes: how many times to retry a failed attempt and how long one
attempt may run.  Between attempts it pauses by a fixed exponential
backoff (:data:`BACKOFF` seconds, times :data:`MULTIPLIER` per further
retry, capped at :data:`MAX_BACKOFF`).  The delays are a pure function
of the attempt number — **no jitter, no RNG** — so enabling retries
cannot perturb the program's seeded generators and a run with fault
handling configured but no faults occurring is bit-identical to a run
without it (the determinism contract pinned by
``tests/test_determinism.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import TaskTimeoutError

#: Delay before the first retry, in seconds.
BACKOFF = 0.05
#: Growth factor of the delay per further retry.
MULTIPLIER = 2.0
#: Cap on any single delay, in seconds.
MAX_BACKOFF = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Execution policy for one unit of work.

    Attributes
    ----------
    retries:
        Extra attempts after the first failure (``0`` — the default —
        means fail fast, exactly the pre-fault-tolerance behavior).
    timeout:
        Wall-clock seconds one attempt may take; ``None`` disables the
        deadline.  Under the process backend a blown deadline costs a
        pool rebuild (the stuck worker must be killed); under the
        serial backend the runaway call keeps running in a leaked
        thread while the caller moves on.
    """

    retries: int = 0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    @property
    def attempts(self) -> int:
        """Total attempts this policy allows (first try + retries)."""
        return self.retries + 1

    @staticmethod
    def delay(retry_number: int) -> float:
        """Backoff before retry ``retry_number`` (1-based), in seconds.

        Deterministic: ``BACKOFF * MULTIPLIER**(n-1)`` capped at
        ``MAX_BACKOFF`` — no randomness, so retries never touch RNG.
        """
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        return min(BACKOFF * MULTIPLIER ** (retry_number - 1), MAX_BACKOFF)

    @property
    def is_default(self) -> bool:
        """True when this policy changes nothing (fail fast, no deadline)."""
        return self.retries == 0 and self.timeout is None


def run_with_timeout(
    fn: Callable[..., Any],
    args: tuple,
    timeout: float,
    label: str = "task",
) -> Any:
    """Call ``fn(*args)`` with a wall-clock deadline, in-process.

    The call runs on a daemon helper thread; on deadline the caller gets
    :class:`TaskTimeoutError` while the runaway call keeps running in
    the abandoned (daemon) thread — Python offers no safe way to kill
    it.  Used by the serial executor path; pool backends enforce
    deadlines on the future instead.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 — re-raised in caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True,
                              name=f"repro-timeout-{label}")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TaskTimeoutError(label, timeout)
    if "error" in box:
        raise box["error"]
    return box["result"]


def call_with_retries(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    label: str = "call",
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``fn`` under ``policy``: timeout per attempt, backoff between.

    ``on_retry(retry_number, exc)`` fires before each backoff sleep —
    the executor uses it to bump ``resil.retries`` telemetry.  The last
    failure propagates unchanged (a timeout propagates as
    :class:`TaskTimeoutError` carrying the attempt count).
    """
    for attempt in range(1, policy.attempts + 1):
        try:
            if policy.timeout is not None:
                return run_with_timeout(fn, (), policy.timeout, label=label)
            return fn()
        except Exception as exc:  # noqa: BLE001 — policy decides
            if attempt >= policy.attempts:
                if isinstance(exc, TaskTimeoutError):
                    raise TaskTimeoutError(
                        label, policy.timeout or 0.0, attempts=attempt
                    ) from None
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
