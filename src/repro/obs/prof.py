"""``repro.obs.prof`` — a stdlib sampling profiler for the hot paths.

A background daemon thread wakes ``hz`` times per second, reads
``sys._current_frames()``, and accumulates collapsed call stacks for
every application thread.  No tracing hooks, no interpreter slowdown on
the profiled code beyond the sampling thread's own (tiny) CPU share —
and **strictly zero overhead when off**, the same contract as the rest
of ``repro.obs``: nothing is constructed until a profiler is started,
and :func:`repro.obs.phase` returns its shared null singleton while
neither a profiler nor telemetry is on.

Output formats:

* :meth:`SamplingProfiler.collapsed` — Brendan-Gregg collapsed-stack
  lines (``frame;frame;frame count``), directly consumable by
  ``flamegraph.pl`` / speedscope; written by ``repro <cmd> --profile
  PATH``.
* :meth:`SamplingProfiler.attribution` — a self/cumulative table per
  frame, rendered into ``repro report --profile PATH``.

Labels: while a profiler runs, ``with obs.phase("ppo.update"):`` pushes
``ppo.update`` onto that thread's label stack, and samples taken
meanwhile gain a synthetic root frame ``<ppo.update>``, so the
flamegraph and the attribution table split hot-path time by phase
(collect vs update vs solve).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default sampling rate; prime, so it cannot lock step with periodic work.
DEFAULT_HZ = 97

#: Stack frames deeper than this are truncated (guards recursion blowups).
MAX_DEPTH = 128


class SamplingProfiler:
    """Background-thread stack sampler over ``sys._current_frames()``."""

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = MAX_DEPTH):
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        #: collapsed stack tuple (root..leaf) -> sample count.
        self._samples: Dict[Tuple[str, ...], int] = {}
        #: thread ident -> stack of active phase labels.
        self._labels: Dict[int, List[str]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.sample_count = 0
        self.started_wall: Optional[float] = None
        self.stopped_wall: Optional[float] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self.started_wall = time.time()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self._thread = None
        self.stopped_wall = time.time()
        return self

    def push_label(self, name: str) -> int:
        """Label the calling thread's samples; returns its ident for
        :meth:`pop_label` (driven by :func:`repro.obs.phase`)."""
        ident = threading.get_ident()
        with self._lock:
            self._labels.setdefault(ident, []).append(name)
        return ident

    def pop_label(self, ident: int) -> None:
        with self._lock:
            stack = self._labels.get(ident)
            if stack:
                stack.pop()
                if not stack:
                    del self._labels[ident]

    # -- sampling ------------------------------------------------------
    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        while not self._stop.wait(interval):
            self._sample_once(own)

    def _sample_once(self, skip_ident: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    code = frame.f_code
                    stack.append(
                        f"{os.path.basename(code.co_filename)}:{code.co_name}"
                    )
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                labels = self._labels.get(ident)
                if labels:
                    stack = [f"<{name}>" for name in labels] + stack
                key = tuple(stack)
                self._samples[key] = self._samples.get(key, 0) + 1
                self.sample_count += 1

    # -- output --------------------------------------------------------
    def stacks(self) -> Dict[Tuple[str, ...], int]:
        with self._lock:
            return dict(self._samples)

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c 42``), flamegraph.pl format."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks().items())
        ]

    def write_collapsed(self, path: str) -> str:
        with open(path, "w") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")
        return path

    def attribution(self, limit: int = 0) -> List[Dict[str, Any]]:
        """Self/cumulative sample attribution per frame (sorted by self)."""
        return attribution(self.stacks(), limit=limit)


# ---------------------------------------------------------------------------
# Pure functions over collapsed stacks (reused by `repro report --profile`).
# ---------------------------------------------------------------------------

def parse_collapsed(lines: Iterable[str]) -> Dict[Tuple[str, ...], int]:
    """Parse collapsed-stack lines back into ``{stack_tuple: count}``."""
    stacks: Dict[Tuple[str, ...], int] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        body, _, count = line.rpartition(" ")
        if not body or not count.isdigit():
            continue
        key = tuple(body.split(";"))
        stacks[key] = stacks.get(key, 0) + int(count)
    return stacks


def load_collapsed(path: str) -> Dict[Tuple[str, ...], int]:
    with open(path) as handle:
        return parse_collapsed(handle)


def attribution(
    stacks: Dict[Tuple[str, ...], int], limit: int = 0
) -> List[Dict[str, Any]]:
    """Self/cumulative attribution table from collapsed stacks.

    ``self`` counts samples where the frame was the leaf (actually
    executing); ``cum`` counts samples where it appeared anywhere on the
    stack (at most once per sample, so recursion does not overcount).
    """
    total = sum(stacks.values())
    self_counts: Dict[str, int] = {}
    cum_counts: Dict[str, int] = {}
    for stack, count in stacks.items():
        if not stack:
            continue
        leaf = stack[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for frame in set(stack):
            cum_counts[frame] = cum_counts.get(frame, 0) + count
    rows = [
        {
            "frame": frame,
            "self": self_counts.get(frame, 0),
            "cum": cum,
            "self_pct": 100.0 * self_counts.get(frame, 0) / total if total else 0.0,
            "cum_pct": 100.0 * cum / total if total else 0.0,
        }
        for frame, cum in cum_counts.items()
    ]
    rows.sort(key=lambda r: (-r["self"], -r["cum"], r["frame"]))
    if limit and limit > 0:
        rows = rows[:limit]
    return rows
