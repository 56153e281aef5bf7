"""Metrics registry: counters, gauges, and histograms.

The registry is deliberately simple — plain dicts behind one re-entrant
lock — because the cost model matters more than features here: when
telemetry is disabled (the default) instrumented hot paths only pay a
single attribute read on the :data:`~repro.obs.OBS` flag, and when it is
enabled the per-event cost is dominated by ``time.perf_counter``.

Cross-process aggregation is explicit rather than shared-memory: each
worker records into its own process-local registry, ships a
:meth:`MetricsRegistry.snapshot` back to the parent (inside a
``TaskResult`` under the engine's process backend), and the parent folds it in with
:meth:`MetricsRegistry.merge`.  Every merge commutes, so aggregate
reports are independent of worker completion order — serial and process
runs of the same workload report identical counters and gauges
(``tests/test_obs.py``):

* **counters** add;
* **gauges** resolve last-write-wins *by wall-clock write time* (each
  ``set_gauge`` stamps ``time.time()``; the later stamp wins, ties
  broken toward the larger value) — not by merge arrival order;
* **histograms** concatenate; percentiles are computed over sorted
  values, so order never matters.

Histogram memory is unbounded by default (exact percentiles).  For
long-running processes (the solve server) set ``$REPRO_OBS_HIST_CAP`` —
each histogram then keeps a fixed-size uniform reservoir (Vitter's
Algorithm R over a private, seeded ``random.Random``; the program's
numpy RNG streams are untouched) and counts every discarded observation
in an ``overflow`` ledger so truncation is visible in snapshots,
summaries and reports, never silent.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Percentiles reported for every histogram.
PERCENTILES = (50.0, 95.0, 99.0)

#: Env var bounding per-histogram memory (reservoir size; 0/unset = exact).
HIST_CAP_ENV = "REPRO_OBS_HIST_CAP"


def _env_hist_cap() -> Optional[int]:
    raw = os.environ.get(HIST_CAP_ENV, "").strip()
    if not raw:
        return None
    cap = int(raw)
    return cap if cap > 0 else None


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values.

    Matches ``numpy.percentile(values, q)`` (the default ``"linear"``
    method) without materializing an ndarray for every report; pinned
    against the numpy reference in ``tests/test_obs.py``.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


def summarize_values(values: Iterable[float]) -> Dict[str, float]:
    """Count/sum/min/max/percentile summary of a value series."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0, "sum": 0.0}
    summary: Dict[str, float] = {
        "count": len(ordered),
        "sum": float(sum(ordered)),
        "min": float(ordered[0]),
        "max": float(ordered[-1]),
        "mean": float(sum(ordered) / len(ordered)),
    }
    for q in PERCENTILES:
        summary[f"p{q:g}"] = percentile(ordered, q)
    return summary


class MetricsRegistry:
    """Thread-safe store of counters, gauges, histograms and records.

    ``records`` is the free-form event channel (e.g. one entry per PPO
    iteration); everything else is scalar telemetry.  All state is
    process-local — see the module docstring for the merge protocol.

    ``hist_cap`` bounds per-histogram memory with a uniform reservoir
    (default: ``$REPRO_OBS_HIST_CAP``, unset = unbounded/exact).
    """

    def __init__(self, hist_cap: Optional[int] = None):
        self._lock = threading.RLock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.records: List[Dict[str, Any]] = []
        #: Wall-clock stamp of the latest ``set_gauge`` per gauge — the
        #: merge tiebreaker (see module docstring).
        self._gauge_ts: Dict[str, float] = {}
        #: Observations dropped from capped histograms (per histogram).
        self.hist_overflow: Dict[str, int] = {}
        self._hist_cap = hist_cap if hist_cap is not None else _env_hist_cap()
        if self._hist_cap is not None and self._hist_cap < 1:
            self._hist_cap = None
        # Telemetry-private RNG: reservoir sampling must not touch the
        # program's (seeded numpy) randomness or the global `random`.
        self._rand = random.Random(0x0B5)

    @property
    def hist_cap(self) -> Optional[int]:
        return self._hist_cap

    # -- recording -----------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)
            self._gauge_ts[name] = time.time()

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            values = self.histograms.setdefault(name, [])
            cap = self._hist_cap
            if cap is None or len(values) < cap:
                values.append(float(value))
                return
            # Reservoir replacement (Algorithm R): every observation —
            # kept or not — had probability cap/seen of being in the
            # sample; the overflow ledger makes the truncation visible.
            overflow = self.hist_overflow.get(name, 0) + 1
            self.hist_overflow[name] = overflow
            j = self._rand.randrange(cap + overflow)
            if j < cap:
                values[j] = float(value)

    def record(self, name: str, data: Mapping[str, Any]) -> None:
        with self._lock:
            self.records.append({"name": name, "data": dict(data)})

    # -- aggregation ---------------------------------------------------
    def snapshot(self, reset: bool = False) -> Dict[str, Any]:
        """JSON-safe copy of the registry contents (optionally draining)."""
        with self._lock:
            snap = {
                "pid": os.getpid(),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "gauge_ts": dict(self._gauge_ts),
                "histograms": {k: list(v) for k, v in self.histograms.items()},
                "records": [dict(r) for r in self.records],
            }
            if self.hist_overflow:
                snap["hist_overflow"] = dict(self.hist_overflow)
            if reset:
                self.reset()
        return snap

    def drain(self) -> Dict[str, Any]:
        """Snapshot-and-reset in one locked step (worker shipping)."""
        return self.snapshot(reset=True)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Commutative in every channel: counters add, histograms extend
        (summaries sort), records append (free-form), and gauges resolve
        by ``(write timestamp, value)`` — the *latest write* wins no
        matter which worker snapshot arrives first.  Snapshots without
        timestamps (legacy) merge at stamp 0, i.e. they lose to any
        stamped write.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            stamps = snapshot.get("gauge_ts", {})
            for name, value in snapshot.get("gauges", {}).items():
                theirs = (float(stamps.get(name, 0.0)), float(value))
                if name not in self.gauges or theirs > (
                    self._gauge_ts.get(name, 0.0), self.gauges[name]
                ):
                    self.gauges[name] = float(value)
                    self._gauge_ts[name] = theirs[0]
            for name, values in snapshot.get("histograms", {}).items():
                # Merge is concatenation; the observe-time cap bounds
                # worker memory, the parent aggregate keeps every
                # shipped value (documented, not silent).
                self.histograms.setdefault(name, []).extend(values)
            for name, count in snapshot.get("hist_overflow", {}).items():
                self.hist_overflow[name] = self.hist_overflow.get(name, 0) + count
            self.records.extend(dict(r) for r in snapshot.get("records", []))

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.records.clear()
            self._gauge_ts.clear()
            self.hist_overflow.clear()

    @property
    def empty(self) -> bool:
        with self._lock:
            return not (self.counters or self.gauges or self.histograms
                        or self.records)

    # -- reporting -----------------------------------------------------
    def histogram_summary(self, name: str) -> Dict[str, float]:
        with self._lock:
            values = list(self.histograms.get(name, ()))
            overflow = self.hist_overflow.get(name, 0)
        summary = summarize_values(values)
        if overflow:
            summary["overflow"] = overflow
        return summary

    def write_jsonl(self, path: str) -> None:
        """Persist the registry as metrics JSONL (``repro report`` input).

        One JSON object per line: a ``meta`` header, then ``counter`` /
        ``gauge`` / ``histogram`` (percentile summary, raw values
        dropped; capped histograms carry their ``overflow`` count) /
        ``record`` entries.
        """
        snap = self.snapshot()
        lines = [json.dumps({"type": "meta", "kind": "metrics",
                             "created": time.time()})]
        for name in sorted(snap["counters"]):
            lines.append(json.dumps(
                {"type": "counter", "name": name,
                 "value": snap["counters"][name]}))
        for name in sorted(snap["gauges"]):
            lines.append(json.dumps(
                {"type": "gauge", "name": name, "value": snap["gauges"][name]}))
        overflow = snap.get("hist_overflow", {})
        for name in sorted(snap["histograms"]):
            entry = {"type": "histogram", "name": name}
            entry.update(summarize_values(snap["histograms"][name]))
            if overflow.get(name):
                entry["overflow"] = overflow[name]
            lines.append(json.dumps(entry))
        for rec in snap["records"]:
            lines.append(json.dumps(
                {"type": "record", "name": rec["name"], "data": rec["data"]}))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
