"""Render metrics/trace/profile JSONL files into a human-readable report.

``repro report --metrics run_metrics.jsonl --trace run_trace.jsonl``
prints counters, histogram percentiles, per-iteration training records
(the ``train.iteration`` fold of ``IterationStats``), and — for the
merged cross-process trace — a per-span aggregation plus a per-process
table built from the metadata ("M") events.  ``--profile`` adds the
sampling profiler's self/cumulative attribution — everything a
post-mortem needs without opening the raw files.  Cross-commit perf
comparison lives in ``perfbench/``, not here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .metrics import summarize_values


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL file, skipping blank lines."""
    entries: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def _rows(header: List[str], rows: List[List[str]]) -> List[str]:
    """Left-aligned fixed-width table lines (no external deps)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: List[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return [fmt(header), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows]


#: Counter/gauge name prefixes that describe fault handling rather than
#: steady-state work; ``render_metrics`` folds them into a dedicated
#: "resilience" section so retries/sheds/crashes stand out in a post-mortem.
_RESIL_PREFIXES = (
    "resil.", "engine.pool_rebuilds", "serve.shed",
    "serve.deadline_exceeded", "serve.queue_depth", "serve.drained",
    "serve.drain_abandoned",
)


def _is_resil(name: str) -> bool:
    return name.startswith(_RESIL_PREFIXES)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def render_metrics(entries: Iterable[Dict[str, Any]]) -> str:
    """Summary of one metrics JSONL file (counters/gauges/hists/records)."""
    entries = list(entries)
    resil = [e for e in entries if e.get("type") in ("counter", "gauge")
             and _is_resil(e.get("name", ""))]
    counters = [e for e in entries if e.get("type") == "counter"
                and not _is_resil(e.get("name", ""))]
    gauges = [e for e in entries if e.get("type") == "gauge"
              and not _is_resil(e.get("name", ""))]
    histograms = [e for e in entries if e.get("type") == "histogram"]
    records = [e for e in entries if e.get("type") == "record"]
    sections: List[str] = []

    if resil:
        rows = [[e["name"], e["type"], f"{e['value']:g}"]
                for e in sorted(resil, key=lambda e: e["name"])]
        sections.append("\n".join(
            ["== resilience =="] + _rows(["name", "type", "value"], rows)))
    if counters:
        rows = [[e["name"], f"{e['value']:g}"] for e in counters]
        sections.append("\n".join(["== counters =="] + _rows(["name", "value"], rows)))
    if gauges:
        rows = [[e["name"], f"{e['value']:g}"] for e in gauges]
        sections.append("\n".join(["== gauges =="] + _rows(["name", "value"], rows)))
    if histograms:
        rows = []
        for e in histograms:
            rows.append([
                e["name"], f"{e.get('count', 0):g}",
                _fmt_seconds(e["p50"]) if "p50" in e else "-",
                _fmt_seconds(e["p95"]) if "p95" in e else "-",
                _fmt_seconds(e["p99"]) if "p99" in e else "-",
                _fmt_seconds(e["sum"]) if "sum" in e else "-",
                f"{e['overflow']:g}" if e.get("overflow") else "-",
            ])
        sections.append("\n".join(
            ["== histograms =="]
            + _rows(["name", "count", "p50", "p95", "p99", "total",
                     "overflow"], rows)))

    iterations = [e["data"] for e in records if e.get("name") == "train.iteration"]
    if iterations:
        rows = []
        for it in iterations:
            rows.append([
                f"{it.get('iteration', '?')}",
                f"{it.get('episode_reward_mean', float('nan')):.3f}",
                f"{it.get('approx_kl', float('nan')):.4f}",
                f"{it.get('policy_loss', float('nan')):.4f}",
                f"{it.get('value_loss', float('nan')):.3f}",
                f"{it.get('entropy', float('nan')):.3f}",
                f"{it.get('episodes_completed', '?')}",
            ])
        sections.append("\n".join(
            ["== training iterations =="]
            + _rows(["iter", "reward", "kl", "policy_loss", "value_loss",
                     "entropy", "episodes"], rows)))

    other = [e for e in records if e.get("name") != "train.iteration"]
    if other:
        lines = ["== records =="]
        for e in other:
            lines.append(f"{e['name']}: {json.dumps(e['data'], sort_keys=True)}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"


def render_trace(events: Iterable[Dict[str, Any]]) -> str:
    """Merged-trace aggregation: per-span table plus a per-process table.

    Consumes the metadata ("M") events the tracer writes to label worker
    processes, so a cross-process run reads as one fleet report.
    """
    events = list(events)
    labels: Dict[Any, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            labels[event.get("pid")] = event.get("args", {}).get("name", "?")

    durations: Dict[str, List[float]] = {}
    workers: Dict[str, set] = {}
    per_pid: Dict[Any, Dict[str, Any]] = {}
    flows = 0
    for event in events:
        ph = event.get("ph")
        if ph in ("s", "f"):
            flows += 1
            continue
        if ph != "X":
            continue
        name = event.get("name", "?")
        seconds = float(event.get("dur", 0.0)) * 1e-6
        durations.setdefault(name, []).append(seconds)
        pid = event.get("pid")
        workers.setdefault(name, set()).add((pid, event.get("tid")))
        agg = per_pid.setdefault(pid, {"events": 0, "busy": 0.0, "tids": set()})
        agg["events"] += 1
        agg["busy"] += seconds
        agg["tids"].add(event.get("tid"))
    if not durations:
        return "(no trace events)"
    rows = []
    for name in sorted(durations, key=lambda n: -sum(durations[n])):
        summary = summarize_values(durations[name])
        rows.append([
            name, f"{summary['count']:g}",
            _fmt_seconds(summary["sum"]),
            _fmt_seconds(summary["p50"]),
            _fmt_seconds(summary["p95"]),
            _fmt_seconds(summary["p99"]),
            f"{len(workers[name])}",
        ])
    sections = ["\n".join(
        ["== spans =="]
        + _rows(["name", "count", "total", "p50", "p95", "p99", "workers"],
                rows))]
    if len(per_pid) > 1 or labels:
        pid_rows = []
        for pid in sorted(per_pid, key=lambda p: (p is None, p)):
            agg = per_pid[pid]
            pid_rows.append([
                str(pid), labels.get(pid, "?"), f"{agg['events']}",
                f"{len(agg['tids'])}", _fmt_seconds(agg["busy"]),
            ])
        section = ["== processes =="] + _rows(
            ["pid", "process", "spans", "threads", "busy"], pid_rows)
        if flows:
            section.append(f"({flows} parent->worker flow events)")
        sections.append("\n".join(section))
    return "\n\n".join(sections)


def render_profile(stacks: Dict[tuple, int], limit: int = 25) -> str:
    """Self/cumulative attribution table over collapsed profiler stacks."""
    from .prof import attribution

    total = sum(stacks.values())
    if not total:
        return "(no profile samples)"
    rows = [
        [row["frame"], f"{row['self']}", f"{row['self_pct']:.1f}%",
         f"{row['cum']}", f"{row['cum_pct']:.1f}%"]
        for row in attribution(stacks, limit=limit)
    ]
    return "\n".join(
        [f"== profile ({total} samples) =="]
        + _rows(["frame", "self", "self%", "cum", "cum%"], rows))


def render_report(
    metrics_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> str:
    """Full report over the given files (any subset may be omitted)."""
    sections: List[str] = []
    if metrics_path:
        sections.append(f"# metrics: {metrics_path}")
        sections.append(render_metrics(load_jsonl(metrics_path)))
    if trace_path:
        sections.append(f"# trace: {trace_path}")
        sections.append(render_trace(load_jsonl(trace_path)))
    if profile_path:
        from .prof import load_collapsed

        sections.append(f"# profile: {profile_path}")
        sections.append(render_profile(load_collapsed(profile_path)))
    if not sections:
        return "nothing to report (pass --metrics, --trace and/or --profile)"
    return "\n\n".join(sections)
