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

Two further layers share the zero-overhead contract:

* :mod:`repro.obs.prof` — a sampling profiler
  (:func:`start_profiler` / :func:`stop_profiler`, CLI ``--profile``);
  :func:`profile_scope` tags samples by phase and is a single attribute
  read returning :data:`NULL_SPAN` while no profiler is active.
* :mod:`repro.obs.bench` — the append-only perf ledger behind
  ``repro bench record`` / ``repro report --bench``.

Typical instrumentation::

    from ..obs import OBS, span

    with span("ppo.update"):            # null singleton when disabled
        ...
    if OBS.enabled:                      # hot path: one attribute read
        OBS.registry.inc("env.steps")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Mapping, Optional

from . import bench
from .bench import load_history, record_bench, render_bench
from .log import LEVEL_ENV_VAR, get_logger, resolve_level, setup_logging
from .metrics import (
    HIST_CAP_ENV,
    NULL_TIMER,
    PERCENTILES,
    MetricsRegistry,
    percentile,
    summarize_values,
)
from .prof import SamplingProfiler
from .report import (
    load_jsonl,
    render_metrics,
    render_profile,
    render_report,
    render_trace,
)
from .trace import NULL_SPAN, Span, Tracer, perfetto_json

__all__ = [
    "OBS",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "SamplingProfiler",
    "NULL_SPAN",
    "NULL_TIMER",
    "PERCENTILES",
    "HIST_CAP_ENV",
    "percentile",
    "summarize_values",
    "enable",
    "disable",
    "is_enabled",
    "enabled_scope",
    "reset",
    "span",
    "timer",
    "inc",
    "observe",
    "set_gauge",
    "record",
    "snapshot",
    "merge",
    "trace_context",
    "adopt_trace",
    "drain_worker",
    "merge_worker",
    "profile_scope",
    "start_profiler",
    "stop_profiler",
    "write_metrics",
    "write_trace",
    "perfetto_json",
    "bench",
    "record_bench",
    "load_history",
    "render_bench",
    "get_logger",
    "setup_logging",
    "resolve_level",
    "LEVEL_ENV_VAR",
    "load_jsonl",
    "render_metrics",
    "render_trace",
    "render_profile",
    "render_report",
]


class _ObsState:
    """The process-global telemetry switch plus its sinks.

    ``enabled`` is the *only* thing hot paths read; the registry and
    tracer objects exist permanently (never ``None``) so instrumented
    code inside an ``if OBS.enabled:`` block needs no further checks.
    ``profiler`` is ``None`` until :func:`start_profiler` — the inactive
    :func:`profile_scope` guard is likewise one attribute read.
    """

    __slots__ = ("enabled", "registry", "tracer", "profiler")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.profiler: Optional[SamplingProfiler] = None


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

def span(name: str, **args: Any):
    """Trace span context manager (``with obs.span("ppo.update"):``)."""
    if not OBS.enabled:
        return NULL_SPAN
    return OBS.tracer.span(name, args or None)


def timer(name: str):
    """Histogram timer context manager (seconds under ``name``)."""
    if not OBS.enabled:
        return NULL_TIMER
    return OBS.registry.timer(name)


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
# Sampling profiler (repro.obs.prof)
# ---------------------------------------------------------------------------

def profile_scope(name: str):
    """Tag this thread's profiler samples with a phase label.

    A strict no-op (one attribute read, shared :data:`NULL_SPAN`) while
    no profiler is active — safe on the collect/update/solve paths.
    """
    prof = OBS.profiler
    if prof is None:
        return NULL_SPAN
    return prof._scope(name)


def start_profiler(hz: Optional[float] = None) -> SamplingProfiler:
    """Start (and install as ``OBS.profiler``) a sampling profiler."""
    if OBS.profiler is not None:
        raise RuntimeError("a profiler is already running")
    from .prof import DEFAULT_HZ

    prof = SamplingProfiler(hz=hz or DEFAULT_HZ)
    prof.start()
    OBS.profiler = prof
    return prof


def stop_profiler() -> Optional[SamplingProfiler]:
    """Stop and uninstall the active profiler (returns it, or ``None``)."""
    prof = OBS.profiler
    OBS.profiler = None
    if prof is not None:
        prof.stop()
    return prof


# ---------------------------------------------------------------------------
# Aggregation / persistence
# ---------------------------------------------------------------------------

def snapshot(reset: bool = False) -> Dict[str, Any]:
    """JSON-safe copy of the global registry (see ``MetricsRegistry``)."""
    return OBS.registry.snapshot(reset=reset)


def merge(snap: Optional[Mapping[str, Any]]) -> None:
    """Fold a worker registry snapshot into the global registry."""
    if snap:
        OBS.registry.merge(snap)


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
