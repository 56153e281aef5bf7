"""``repro.obs`` — zero-overhead metrics, trace spans, and run reports.

One process-global switch governs every instrumented code path in the
repo (engine, env hot path, PPO, encoder, baselines):

* **disabled** (the default): instrumentation is a strict no-op.  Hot
  paths guard on the single :data:`OBS.enabled` attribute (the same
  pattern as ``nn.no_grad()``'s grad-mode flag) and helper entry points
  return shared null singletons, so nothing is allocated and nothing is
  recorded — the env-step and collect hot paths are unaffected, and the
  (weights, params, seed) determinism contract cannot be perturbed.
* **enabled** (``obs.enable()``; the CLI's ``--metrics``/``--trace``
  flags): counters/gauges/histograms accumulate in the process-local
  :class:`~repro.obs.metrics.MetricsRegistry` and coarse operations emit
  Chrome-trace spans via the :class:`~repro.obs.trace.Tracer`.

Workers under the engine's process backend (sweeps and the solve
server's baseline pool alike) record into their own registries *and
tracers*, adopt the parent's trace context (:func:`trace_context` /
:func:`adopt_trace`), and ship combined payloads back to the parent
(through ``TaskResult.obs``; a remote server ships its own through the
``stats`` op); :func:`merge_worker` folds metrics into the registry and
rebases the worker spans onto the parent's wall-clock axis, so one
report — and one Perfetto-loadable trace — covers the whole fleet.
``repro report`` renders the JSONL files written by
:func:`write_metrics` / :func:`write_trace` into a summary table.

:func:`phase` is the one timing primitive for the flow's coarse phases
(R-GCN encode, PPO collect/update, solve, engine worker tasks)::

    with phase("ppo.update"):            # null singleton when off
        ...
    if OBS.enabled:                      # per-step sites: one flag read
        OBS.registry.observe("env.step.seconds", dt)

Per-env-step sites (``env.step``, ``env.hpwl``) keep the flag-guarded
histogram: a null ``with`` block costs about ten times the bare flag
read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Mapping, Optional

from .log import LEVEL_ENV_VAR, get_logger, resolve_level, setup_logging
from .metrics import (
    HIST_CAP_ENV,
    PERCENTILES,
    MetricsRegistry,
    percentile,
    summarize_values,
)
from .report import (
    load_jsonl,
    render_metrics,
    render_report,
    render_trace,
)
from .trace import Tracer, perfetto_json

__all__ = [
    "OBS",
    "MetricsRegistry",
    "Tracer",
    "NULL_PHASE",
    "PERCENTILES",
    "HIST_CAP_ENV",
    "percentile",
    "summarize_values",
    "enable",
    "disable",
    "is_enabled",
    "enabled_scope",
    "reset",
    "phase",
    "inc",
    "observe",
    "set_gauge",
    "record",
    "snapshot",
    "trace_context",
    "adopt_trace",
    "drain_worker",
    "merge_worker",
    "write_metrics",
    "write_trace",
    "perfetto_json",
    "get_logger",
    "setup_logging",
    "resolve_level",
    "LEVEL_ENV_VAR",
    "load_jsonl",
    "render_metrics",
    "render_trace",
    "render_report",
]


class _ObsState:
    """The process-global telemetry switch plus its sinks.

    ``enabled`` is the *only* thing hot paths read; the registry and
    tracer objects exist permanently (never ``None``) so instrumented
    code inside an ``if OBS.enabled:`` block needs no further checks.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


OBS = _ObsState()


def is_enabled() -> bool:
    return OBS.enabled


def enable() -> None:
    """Turn telemetry recording on (idempotent; keeps accumulated data)."""
    OBS.enabled = True


def disable() -> None:
    """Turn telemetry recording off (keeps accumulated data for writes)."""
    OBS.enabled = False


def reset() -> None:
    """Clear all accumulated metrics, records and trace events."""
    OBS.registry.reset()
    OBS.tracer.reset()


@contextmanager
def enabled_scope(fresh: bool = True):
    """Enable telemetry within a block (tests); optionally from a clean slate."""
    previous = OBS.enabled
    if fresh:
        reset()
    OBS.enabled = True
    try:
        yield OBS
    finally:
        OBS.enabled = previous


# ---------------------------------------------------------------------------
# Recording helpers.  Safe to call unconditionally — they no-op (returning
# shared singletons, allocating nothing) while telemetry is disabled.  Hot
# paths should still guard on ``OBS.enabled`` to skip the call entirely.
# ---------------------------------------------------------------------------

class _Phase:
    """One live :func:`phase`: a histogram observation plus a span."""

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: Optional[Dict[str, Any]]):
        self.name = name
        self.args = args

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        args = self.args
        if exc_type is not None:
            args = dict(args or {}, error=exc_type.__name__)
        OBS.registry.observe(f"{self.name}.seconds", end - self._start)
        OBS.tracer.add_complete(self.name, self._start, end, args)
        return False


class _NullPhase:
    """Shared no-op phase while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_PHASE = _NullPhase()


def phase(name: str, **args: Any):
    """Time one phase of the flow (``with obs.phase("ppo.update"):``).

    Telemetry on: observes ``<name>.seconds`` and records one ``<name>``
    span carrying ``args`` (plus ``error`` if the block raises).  Off:
    returns the shared :data:`NULL_PHASE`.
    """
    if not OBS.enabled:
        return NULL_PHASE
    return _Phase(name, args or None)


def inc(name: str, value: float = 1) -> None:
    if OBS.enabled:
        OBS.registry.inc(name, value)


def observe(name: str, value: float) -> None:
    if OBS.enabled:
        OBS.registry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    if OBS.enabled:
        OBS.registry.set_gauge(name, value)


def record(name: str, data: Mapping[str, Any]) -> None:
    if OBS.enabled:
        OBS.registry.record(name, data)


# ---------------------------------------------------------------------------
# Aggregation / persistence
# ---------------------------------------------------------------------------

def snapshot(reset: bool = False) -> Dict[str, Any]:
    """JSON-safe copy of the global registry (see ``MetricsRegistry``)."""
    return OBS.registry.snapshot(reset=reset)


def trace_context() -> Optional[Dict[str, Any]]:
    """Trace context to ship into a worker (``None`` while disabled)."""
    if not OBS.enabled:
        return None
    return OBS.tracer.context()


def adopt_trace(ctx: Optional[Mapping[str, Any]]) -> None:
    """Join a parent's logical trace (worker side; no-op on ``None``)."""
    if ctx:
        OBS.tracer.adopt(ctx)


def drain_worker() -> Dict[str, Any]:
    """Ship-and-clear this process's telemetry (metrics + trace).

    The returned payload is a plain metrics snapshot with an optional
    ``"trace"`` key — :meth:`MetricsRegistry.merge` ignores the extra
    key, so legacy metrics-only consumers keep working, while
    :func:`merge_worker` rebases the spans too.
    """
    payload = OBS.registry.drain()
    trace = OBS.tracer.drain()
    if trace:
        payload["trace"] = trace
    return payload


def merge_worker(
    payload: Optional[Mapping[str, Any]], label: Optional[str] = None
) -> None:
    """Fold a :func:`drain_worker` payload into the global sinks.

    Metrics merge into the registry; the ``"trace"`` payload (if any) is
    rebased from the worker's wall-clock anchor onto the parent tracer's
    axis, so the merged trace is one timeline (``label`` names the
    worker's lane in the Perfetto output).
    """
    if not payload:
        return
    OBS.registry.merge(payload)
    trace = payload.get("trace")
    if trace:
        OBS.tracer.merge_remote(trace, label=label)


def write_metrics(path: str) -> str:
    """Write the global registry as metrics JSONL; returns ``path``."""
    OBS.registry.write_jsonl(path)
    return path


def write_trace(path: str) -> str:
    """Write buffered trace events as Chrome-trace JSONL; returns ``path``."""
    OBS.tracer.write_jsonl(path)
    return path
