"""Hierarchical trace spans in Chrome-trace event form — unified across
processes.

Each :func:`repro.obs.phase` (and each result-data timing reported
through :meth:`Tracer.add_complete`) records one complete (``"ph": "X"``)
event with microsecond start/duration, process id and a *stable display
thread id*.  Events are buffered in memory and written as JSONL — one
event per line — which ``repro report`` aggregates per span name and per
process, and which :func:`perfetto_json` wraps into a single
Perfetto/``chrome://tracing``-loadable file (``repro report
--trace-out``).

Nesting needs no bookkeeping: overlapping ``(ts, dur)`` intervals on the
same thread *are* the hierarchy, exactly as Chrome renders them.

Cross-process unification
-------------------------
Every :class:`Tracer` stamps events against its own ``perf_counter``
epoch, so raw worker timestamps are meaningless to the parent.  Each
tracer therefore also captures a **wall-clock anchor**
(:attr:`Tracer.epoch_wall`, ``time.time()`` read at the same instant as
the epoch): worker payloads ship their anchor alongside their buffered
events (:meth:`Tracer.drain`), and :meth:`Tracer.merge_remote` rebases
them onto the parent's axis — ``ts' = ts + (worker_wall - parent_wall) *
1e6`` — so one merged trace covers the whole fleet on a single timeline.
A :meth:`Tracer.context` (``trace_id`` + originating pid) propagates to
workers so every process tags the same logical run, and parent→child
**flow events** (``ph: "s"``/``"f"``) draw dispatch arrows in Perfetto.

Display tids: raw ``threading.get_ident()`` values are huge, reused
after thread death, and render as garbage lanes — the tracer maps each
ident to a small per-process integer (main thread is 0) at record time.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional


def _anchor() -> tuple:
    """(perf_counter epoch, wall-clock epoch) captured at one instant.

    The wall read is bracketed by two perf reads and attributed to their
    midpoint, so the pair describes the same moment to within half the
    ``time.time()`` call cost (sub-microsecond on Linux).
    """
    t0 = time.perf_counter()
    wall = time.time()
    t1 = time.perf_counter()
    return (t0 + t1) / 2.0, wall


class Tracer:
    """Buffer of Chrome-trace events for the current process."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events: List[Dict[str, Any]] = []
        #: perf_counter origin; event timestamps are relative to it.
        self.epoch, self.epoch_wall = _anchor()
        #: Logical-run id shared by every process of one traced run.
        self.trace_id = uuid.uuid4().hex[:16]
        #: thread ident -> small stable display tid (main thread is 0).
        self._tids: Dict[int, int] = {threading.get_ident(): 0}
        self._flow_counter = 0
        #: Worker pid -> display label, learned from merged payloads.
        self._remote_pids: Dict[int, str] = {}

    def _display_tid(self, ident: int) -> int:
        # Caller holds self._lock.  Idents reused after thread death map
        # to the lane they had before — lanes stay small either way.
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids)
            self._tids[ident] = tid
        return tid

    def add_complete(
        self,
        name: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a complete ("X") event from perf_counter endpoints."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "cat": "repro",
            "ts": round((start - self.epoch) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": os.getpid(),
        }
        if args:
            event["args"] = args
        with self._lock:
            event["tid"] = self._display_tid(threading.get_ident())
            self.events.append(event)

    # -- cross-process propagation -------------------------------------
    def context(self) -> Dict[str, Any]:
        """Trace context to hand a worker process (see :meth:`adopt`)."""
        return {"trace_id": self.trace_id, "parent_pid": os.getpid()}

    def adopt(self, ctx: Optional[Mapping[str, Any]]) -> None:
        """Join the parent's logical trace (worker side)."""
        if ctx and ctx.get("trace_id"):
            self.trace_id = str(ctx["trace_id"])

    def flow_start(self, name: str) -> str:
        """Emit a flow-start ("s") event here; returns the flow id.

        Pass the id to the worker, whose :meth:`flow_end` closes the
        arrow — Perfetto then draws parent→child dispatch edges.
        """
        with self._lock:
            self._flow_counter += 1
            flow_id = f"{os.getpid()}.{self._flow_counter}"
            self.events.append({
                "name": name, "ph": "s", "cat": "repro.flow", "id": flow_id,
                "ts": round((time.perf_counter() - self.epoch) * 1e6, 3),
                "pid": os.getpid(),
                "tid": self._display_tid(threading.get_ident()),
            })
        return flow_id

    def flow_end(self, name: str, flow_id: Optional[str]) -> None:
        """Terminate a parent-created flow at the current time (worker)."""
        if not flow_id:
            return
        with self._lock:
            self.events.append({
                "name": name, "ph": "f", "bp": "e", "cat": "repro.flow",
                "id": flow_id,
                "ts": round((time.perf_counter() - self.epoch) * 1e6, 3),
                "pid": os.getpid(),
                "tid": self._display_tid(threading.get_ident()),
            })

    def drain(self) -> Optional[Dict[str, Any]]:
        """Ship-and-clear the buffered events (worker -> parent payload).

        Returns ``None`` when nothing was recorded; otherwise a payload
        carrying the events plus this process's wall-clock anchor so the
        parent can rebase them (:meth:`merge_remote`).
        """
        with self._lock:
            if not self.events:
                return None
            events, self.events = self.events, []
        return {
            "pid": os.getpid(),
            "trace_id": self.trace_id,
            "epoch_wall": self.epoch_wall,
            "events": events,
        }

    def merge_remote(
        self, payload: Optional[Mapping[str, Any]], label: Optional[str] = None
    ) -> None:
        """Fold a worker :meth:`drain` payload onto this tracer's axis.

        Worker timestamps are relative to the worker's own perf_counter
        epoch; the shipped wall anchor turns them into offsets from *our*
        anchor, so merged events share one wall-clock axis.  Same-host
        processes read the same ``CLOCK_REALTIME``, so the residual error
        is the anchor capture skew (sub-microsecond), far below the
        real parent-dispatch → worker-start gaps.
        """
        if not payload:
            return
        shift = (float(payload.get("epoch_wall", self.epoch_wall))
                 - self.epoch_wall) * 1e6
        pid = payload.get("pid")
        with self._lock:
            for event in payload.get("events", ()):
                event = dict(event)
                event["ts"] = round(event.get("ts", 0.0) + shift, 3)
                self.events.append(event)
            if pid is not None and pid != os.getpid():
                self._remote_pids.setdefault(int(pid), label or "worker")

    # -- persistence ---------------------------------------------------
    def metadata_events(self) -> List[Dict[str, Any]]:
        """Chrome metadata ("M") events naming processes and threads."""
        with self._lock:
            remote = dict(self._remote_pids)
        pid = os.getpid()
        meta: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"repro parent (pid {pid})"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": "main"}},
        ]
        for rpid, label in sorted(remote.items()):
            meta.append({"name": "process_name", "ph": "M", "pid": rpid,
                         "tid": 0, "args": {"name": f"{label} (pid {rpid})"}})
        return meta

    def reset(self) -> None:
        with self._lock:
            self.events.clear()
            self.epoch, self.epoch_wall = _anchor()
            self.trace_id = uuid.uuid4().hex[:16]
            self._tids = {threading.get_ident(): 0}
            self._flow_counter = 0
            self._remote_pids.clear()

    def write_jsonl(self, path: str) -> None:
        """One Chrome-trace event per line (see module docstring).

        The first lines are metadata ("M") events labelling processes;
        ``repro report`` uses them for the per-process table and skips
        them in the span aggregation.
        """
        meta = self.metadata_events()
        with self._lock:
            events = list(self.events)
        with open(path, "w") as handle:
            for event in meta + events:
                handle.write(json.dumps(event) + "\n")


def perfetto_json(events: List[Dict[str, Any]],
                  trace_id: Optional[str] = None) -> str:
    """Wrap trace events into the Perfetto JSON object format."""
    payload: Dict[str, Any] = {"traceEvents": list(events),
                               "displayTimeUnit": "ms"}
    if trace_id:
        payload["otherData"] = {"trace_id": trace_id}
    return json.dumps(payload)
