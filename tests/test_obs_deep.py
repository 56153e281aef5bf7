"""Tests for cross-process trace unification.

Engine process workers and the solve server buffer spans locally, ship
them with the existing metrics payloads, and the parent rebases them
onto one wall-clock axis: one merged trace per run, worker span count
> 0, parent/child wall-clock containment after normalization.
"""

import os

import pytest

from repro import obs
from repro.engine import Executor, SweepSpec, run_sweep

#: Wall-clock containment tolerance (us).  Same-host anchors agree to
#: sub-microsecond; 2ms absorbs scheduling jitter around the endpoints.
CLOCK_TOLERANCE_US = 2_000.0

SWEEP = SweepSpec(
    methods=["sa"],
    circuits=["ota_small"],
    seeds=[0, 1, 2],
    config={"moves_per_temperature": 4},
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _events_by_name(events):
    grouped = {}
    for event in events:
        if event.get("ph") == "X":
            grouped.setdefault(event["name"], []).append(event)
    return grouped


def _contained(child, parents, tolerance=CLOCK_TOLERANCE_US):
    """True if some parent interval contains the child's (ts, ts+dur)."""
    c0, c1 = child["ts"], child["ts"] + child["dur"]
    return any(
        p["ts"] - tolerance <= c0 and c1 <= p["ts"] + p["dur"] + tolerance
        for p in parents
    )


class TestEngineTraceUnification:
    def test_process_sweep_produces_one_merged_trace(self):
        parent_pid = os.getpid()
        obs.enable()
        try:
            run_sweep(SWEEP, executor=Executor(backend="process", workers=2))
            events = list(obs.OBS.tracer.events)
        finally:
            obs.disable()
        grouped = _events_by_name(events)

        # Worker spans survived the round trip into the parent buffer.
        worker_spans = grouped.get("engine.task.worker", [])
        assert len(worker_spans) == 3
        assert all(e["pid"] != parent_pid for e in worker_spans)
        # Task bodies (baseline.sa) recorded in the workers came too.
        assert len(grouped.get("baseline.sa", [])) == 3

        # Parent-side dispatch spans exist for the same tasks.
        parent_spans = grouped.get("engine.task", [])
        assert len(parent_spans) == 3
        assert all(e["pid"] == parent_pid for e in parent_spans)

        # After wall-clock normalization every worker execution sits
        # inside some parent dispatch span (dispatch covers queue + run).
        for span in worker_spans:
            assert _contained(span, parent_spans), (
                f"worker span not contained after rebasing: {span}"
            )

        # The parent's map_tasks span brackets everything.
        (outer,) = grouped["engine.map_tasks"]
        for span in worker_spans + parent_spans:
            assert _contained(span, [outer])

        # Flow events: one dispatch arrow per task, started in the
        # parent ("s") and terminated in a worker ("f"), sharing ids.
        starts = {e["id"] for e in events if e.get("ph") == "s"}
        ends = {e["id"] for e in events if e.get("ph") == "f"}
        assert len(starts) == 3
        assert starts == ends

    def test_merged_timestamps_on_one_axis(self):
        obs.enable()
        try:
            run_sweep(SWEEP, executor=Executor(backend="process", workers=2))
            events = [e for e in obs.OBS.tracer.events if e.get("ph") == "X"]
        finally:
            obs.disable()
        # Rebased worker timestamps land within the run's wall span —
        # not at raw per-process perf_counter offsets (which would be
        # wildly negative/positive relative to the parent epoch).
        (outer,) = [e for e in events if e["name"] == "engine.map_tasks"]
        lo = outer["ts"] - CLOCK_TOLERANCE_US
        hi = outer["ts"] + outer["dur"] + CLOCK_TOLERANCE_US
        for event in events:
            assert lo <= event["ts"] <= hi

    def test_report_renders_worker_processes(self, tmp_path, capsys):
        from repro.cli import main

        obs.enable()
        try:
            run_sweep(SWEEP, executor=Executor(backend="process", workers=2))
            trace = str(tmp_path / "t.jsonl")
            obs.write_trace(trace)
        finally:
            obs.disable()
        assert main(["report", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "engine.task.worker" in out
        assert "engine-worker" in out      # per-process table, labeled
        assert "flow events" in out

    def test_disabled_process_sweep_records_nothing(self):
        run_sweep(SWEEP, executor=Executor(backend="process", workers=2))
        assert not obs.OBS.tracer.events
        assert obs.OBS.registry.empty


class TestServeTraceUnification:
    def test_stats_drain_ships_server_telemetry(self):
        import asyncio

        from repro.serve import ServeConfig, SolveServer
        from repro.serve.client import SolveClient

        async def scenario():
            server = SolveServer(config=ServeConfig(
                port=0, cache=False, backend="serial",
            ))
            await server.start()
            address = server.address
            try:
                def client_calls():
                    with SolveClient(address) as client:
                        client.solve("ota_small", method="sa", seed=0,
                                     config={"moves_per_temperature": 4})
                        return client.stats(drain=True)
                return await asyncio.to_thread(client_calls)
            finally:
                await server.close()

        obs.enable()
        try:
            stats = asyncio.run(scenario())
            # The drained payload folds into a (fresh) local registry the
            # way a remote training parent would consume it.
            obs.reset()
            obs.merge_worker(stats["obs"], label="solve-server")
            counters = dict(obs.OBS.registry.counters)
            events = list(obs.OBS.tracer.events)
        finally:
            obs.disable()
        assert stats["trace_id"]
        assert counters.get("serve.requests") == 1
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "serve.request" in names

    def test_stats_without_drain_has_no_obs_payload(self):
        import asyncio

        from repro.serve import ServeConfig, SolveServer
        from repro.serve.client import SolveClient

        async def scenario():
            server = SolveServer(config=ServeConfig(
                port=0, cache=False, backend="serial",
            ))
            await server.start()
            address = server.address
            try:
                def client_calls():
                    with SolveClient(address) as client:
                        client.ping()
                        return client.stats()
                return await asyncio.to_thread(client_calls)
            finally:
                await server.close()

        stats = asyncio.run(scenario())
        assert "obs" not in stats
