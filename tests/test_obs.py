"""Tests for the ``repro.obs`` telemetry layer.

Covers the four contracts the subsystem makes:

* **strict no-op when disabled** — nothing recorded, nothing allocated;
* **numeric fidelity** — the pure-python percentile matches the numpy
  reference;
* **phase semantics** — nesting, re-entrancy, exception safety, one
  histogram observation and one span per instrumented phase;
* **aggregation** — worker registries merge into the parent so serial
  and process runs of the same workload report identical counters.
"""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.circuits import get_circuit
from repro.engine import ArtifactCache, Executor, SweepSpec, run_sweep
from repro.floorplan import FloorplanEnv

#: One tiny fixed sweep reused by the aggregation tests: 2 methods x 1
#: circuit x 2 seeds, SA/GA budgets cut to tens of milliseconds.
SWEEP = SweepSpec(
    methods=["sa", "ga"],
    circuits=["ota_small"],
    seeds=[0, 1],
    config={"moves_per_temperature": 4, "generations": 2, "population": 6},
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with telemetry disabled and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _first_valid_action(observation) -> int:
    return int(np.nonzero(observation.action_mask)[0][0])


class TestDisabledNoOp:
    def test_span_and_timer_return_shared_singletons(self):
        # No per-call allocation on the disabled path: every call hands
        # back the same null object.
        assert obs.phase("a") is obs.phase("b", key=1)
        assert obs.phase("a") is obs.NULL_PHASE

    def test_helpers_record_nothing(self):
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)
        obs.record("r", {"x": 1})
        with obs.phase("s", key="value"):
            pass
        assert obs.OBS.registry.empty
        assert not obs.OBS.tracer.events

    def test_env_steps_record_nothing(self):
        env = FloorplanEnv(get_circuit("ota1"))
        observation = env.reset()
        for _ in range(3):
            observation, _, done, _ = env.step(_first_valid_action(observation))
            if done:
                observation = env.reset()
        assert obs.OBS.registry.empty
        assert not obs.OBS.tracer.events


class TestPercentiles:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 101])
    @pytest.mark.parametrize("q", [0.0, 50.0, 95.0, 99.0, 100.0])
    def test_matches_numpy_reference(self, size, q):
        rng = np.random.default_rng(size * 1000 + int(q))
        values = rng.normal(size=size).tolist()
        expected = float(np.percentile(values, q))
        assert obs.percentile(sorted(values), q) == pytest.approx(expected)

    def test_summary_fields(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        summary = obs.summarize_values(values)
        assert summary["count"] == 5
        assert summary["min"] == 1.0
        assert summary["max"] == 5.0
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["p50"] == pytest.approx(np.percentile(values, 50))
        assert summary["p95"] == pytest.approx(np.percentile(values, 95))
        assert summary["p99"] == pytest.approx(np.percentile(values, 99))

    def test_empty_summary(self):
        assert obs.summarize_values([]) == {"count": 0, "sum": 0.0}


class TestSpans:
    def test_nesting_records_both_levels(self):
        with obs.enabled_scope():
            with obs.phase("outer"):
                with obs.phase("inner"):
                    pass
        events = {e["name"]: e for e in obs.OBS.tracer.events}
        assert set(events) == {"outer", "inner"}
        inner, outer = events["inner"], events["outer"]
        # Chrome-trace hierarchy is interval containment on one thread.
        assert inner["tid"] == outer["tid"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_reentrant_same_name(self):
        with obs.enabled_scope():
            with obs.phase("ppo.update"):
                with obs.phase("ppo.update"):
                    pass
        assert len(obs.OBS.tracer.events) == 2

    def test_exception_recorded_and_propagated(self):
        with obs.enabled_scope():
            with pytest.raises(ValueError):
                with obs.phase("failing", attempt=1):
                    raise ValueError("boom")
        (event,) = obs.OBS.tracer.events
        assert event["args"]["error"] == "ValueError"
        assert event["args"]["attempt"] == 1

    def test_timer_feeds_histogram(self):
        with obs.enabled_scope():
            with obs.phase("op"):
                pass
        summary = obs.OBS.registry.histogram_summary("op.seconds")
        assert summary["count"] == 1
        assert summary["min"] >= 0.0
        (event,) = obs.OBS.tracer.events
        assert event["name"] == "op" and "args" not in event

    def test_display_tids_are_small_and_stable(self):
        # Raw threading.get_ident() values are huge; Chrome-trace output
        # maps each thread to a small per-process lane (main thread = 0).
        import threading

        with obs.enabled_scope():
            with obs.phase("main-span"):
                pass

            def worker():
                with obs.phase("worker-span"):
                    pass

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with obs.phase("main-span-2"):
                pass
        events = {e["name"]: e for e in obs.OBS.tracer.events}
        assert events["main-span"]["tid"] == 0
        assert events["main-span-2"]["tid"] == 0  # stable across records
        assert all(0 <= e["tid"] < 4 for e in events.values())


class TestPhaseSites:
    def test_one_observation_and_span_per_phase(self):
        from repro.config import TrainConfig
        from repro.floorplan import VecEnv
        from repro.rl import FloorplanAgent

        agent = FloorplanAgent(config=TrainConfig(
            num_envs=2, rollout_steps=4, ppo_epochs=1, minibatch_size=8,
            seed=0,
        ))
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        with obs.enabled_scope():
            buffer, _, _ = agent.ppo.collect(vec, vec.reset())
            agent.ppo.update(buffer)
            agent.solve(get_circuit("ota_small"))
        registry = obs.OBS.registry
        spans = [e["name"] for e in obs.OBS.tracer.events]
        for name in ("ppo.collect", "ppo.update", "agent.solve"):
            assert len(registry.histograms[f"{name}.seconds"]) == 1, name
            assert spans.count(name) == 1, name
        assert registry.counters["ppo.collects"] == 1
        assert registry.counters["ppo.updates"] == 1

    def test_oarsmt_phases(self):
        from repro.routing import Obstacle, Point, oarsmt

        with obs.enabled_scope():
            oarsmt("n", [Point(0, 1), Point(6, 1), Point(3, 4)], [Obstacle(2, 0, 4, 2)])
        registry = obs.OBS.registry
        spans = [e["name"] for e in obs.OBS.tracer.events]
        for name in ("routing.escape_graph", "routing.steiner"):
            assert len(registry.histograms[f"{name}.seconds"]) == 1, name
            assert spans.count(name) == 1, name


class TestRegistry:
    def test_merge_commutes(self):
        a = obs.MetricsRegistry()
        b = obs.MetricsRegistry()
        a.inc("x", 2); a.observe("h", 1.0)
        b.inc("x", 3); b.inc("y"); b.observe("h", 2.0)
        left = obs.MetricsRegistry()
        left.merge(a.snapshot()); left.merge(b.snapshot())
        right = obs.MetricsRegistry()
        right.merge(b.snapshot()); right.merge(a.snapshot())
        assert left.counters == right.counters == {"x": 5, "y": 1}
        assert sorted(left.histograms["h"]) == sorted(right.histograms["h"])
        assert left.histogram_summary("h") == right.histogram_summary("h")

    def test_gauge_merge_is_order_independent(self):
        # Satellite fix: gauges used to resolve by merge arrival order
        # (completion-order-dependent under the process backend).  Now the
        # latest *write timestamp* wins no matter which snapshot merges
        # first.
        early = obs.MetricsRegistry()
        early.set_gauge("reward", 1.0)
        late = obs.MetricsRegistry()
        late.set_gauge("reward", 2.0)
        # Force a strictly later stamp regardless of clock resolution.
        late._gauge_ts["reward"] = early._gauge_ts["reward"] + 1.0

        forward = obs.MetricsRegistry()
        forward.merge(early.snapshot()); forward.merge(late.snapshot())
        backward = obs.MetricsRegistry()
        backward.merge(late.snapshot()); backward.merge(early.snapshot())
        assert forward.gauges == backward.gauges == {"reward": 2.0}

    def test_gauge_merge_tie_breaks_on_value(self):
        a = obs.MetricsRegistry(); a.set_gauge("g", 1.0)
        b = obs.MetricsRegistry(); b.set_gauge("g", 2.0)
        b._gauge_ts["g"] = a._gauge_ts["g"]  # identical stamps
        left = obs.MetricsRegistry()
        left.merge(a.snapshot()); left.merge(b.snapshot())
        right = obs.MetricsRegistry()
        right.merge(b.snapshot()); right.merge(a.snapshot())
        # (ts, value) lexicographic: the larger value wins the tie, both ways.
        assert left.gauges == right.gauges == {"g": 2.0}

    def test_legacy_snapshot_without_stamps_merges(self):
        registry = obs.MetricsRegistry()
        registry.merge({"counters": {"x": 1}, "gauges": {"g": 5.0}})
        assert registry.gauges == {"g": 5.0}
        # A stamped write beats the unstamped (stamp-0) legacy value.
        fresh = obs.MetricsRegistry(); fresh.set_gauge("g", 1.0)
        registry.merge(fresh.snapshot())
        assert registry.gauges == {"g": 1.0}

    def test_drain_empties_registry(self):
        registry = obs.MetricsRegistry()
        registry.inc("x")
        snap = registry.drain()
        assert snap["counters"] == {"x": 1}
        assert registry.empty

    def test_write_jsonl_roundtrips(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.inc("runs", 4)
        registry.set_gauge("reward", -1.5)
        registry.observe("seconds", 0.25)
        registry.record("train.iteration", {"iteration": 0, "reward": -1.5})
        path = tmp_path / "metrics.jsonl"
        registry.write_jsonl(str(path))
        entries = obs.load_jsonl(str(path))
        by_type = {}
        for entry in entries:
            by_type.setdefault(entry["type"], []).append(entry)
        assert by_type["meta"][0]["kind"] == "metrics"
        assert by_type["counter"] == [{"type": "counter", "name": "runs", "value": 4}]
        assert by_type["gauge"][0]["value"] == -1.5
        assert by_type["histogram"][0]["count"] == 1
        assert by_type["record"][0]["data"]["iteration"] == 0


class TestHistogramCap:
    def test_unbounded_by_default(self):
        registry = obs.MetricsRegistry()
        for i in range(1000):
            registry.observe("h", float(i))
        assert len(registry.histograms["h"]) == 1000
        assert registry.hist_overflow == {}

    def test_cap_bounds_memory_and_counts_overflow(self):
        registry = obs.MetricsRegistry(hist_cap=16)
        for i in range(100):
            registry.observe("h", float(i))
        assert len(registry.histograms["h"]) == 16
        assert registry.hist_overflow["h"] == 84
        summary = registry.histogram_summary("h")
        assert summary["count"] == 16
        assert summary["overflow"] == 84
        # Reservoir keeps a sample of the stream, not just the head.
        assert max(registry.histograms["h"]) >= 16.0

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv(obs.HIST_CAP_ENV, "8")
        registry = obs.MetricsRegistry()
        assert registry.hist_cap == 8
        for i in range(20):
            registry.observe("h", float(i))
        assert len(registry.histograms["h"]) == 8
        assert registry.hist_overflow["h"] == 12

    def test_env_var_unset_or_zero_means_unbounded(self, monkeypatch):
        monkeypatch.delenv(obs.HIST_CAP_ENV, raising=False)
        assert obs.MetricsRegistry().hist_cap is None
        monkeypatch.setenv(obs.HIST_CAP_ENV, "0")
        assert obs.MetricsRegistry().hist_cap is None

    def test_overflow_visible_in_snapshot_write_and_merge(self, tmp_path):
        registry = obs.MetricsRegistry(hist_cap=4)
        for i in range(10):
            registry.observe("h", float(i))
        snap = registry.snapshot()
        assert snap["hist_overflow"] == {"h": 6}
        path = tmp_path / "m.jsonl"
        registry.write_jsonl(str(path))
        hist = [e for e in obs.load_jsonl(str(path))
                if e["type"] == "histogram"][0]
        assert hist["overflow"] == 6
        # Overflow counts add across worker merges.
        parent = obs.MetricsRegistry()
        parent.merge(snap)
        parent.merge(snap)
        assert parent.hist_overflow == {"h": 12}

    def test_reservoir_rng_is_private(self):
        import random as stdlib_random

        stdlib_random.seed(1234)
        before = stdlib_random.getstate()
        registry = obs.MetricsRegistry(hist_cap=4)
        for i in range(100):
            registry.observe("h", float(i))
        # Telemetry must never perturb program randomness (determinism
        # contract): the global `random` state is untouched.
        assert stdlib_random.getstate() == before


class TestAggregation:
    def _sweep_state(self, backend: str, workers=2) -> dict:
        obs.reset()
        obs.enable()
        try:
            run_sweep(SWEEP, executor=Executor(backend=backend, workers=workers))
            return {
                "counters": dict(obs.OBS.registry.counters),
                "gauges": dict(obs.OBS.registry.gauges),
            }
        finally:
            obs.disable()

    def test_serial_and_process_counters_identical(self):
        serial = self._sweep_state("serial")
        process = self._sweep_state("process")
        # Counter merges commute, so the fleet's aggregate is exactly the
        # serial run's ledger regardless of which worker ran what — and
        # the gauge channel (timestamped last-write-wins) matches too.
        assert process["counters"] == serial["counters"]
        assert process["gauges"] == serial["gauges"]
        assert serial["counters"]["engine.tasks.total"] == 4
        assert serial["counters"]["engine.tasks.computed"] == 4
        assert serial["counters"]["baseline.runs"] == 4
        assert serial["counters"]["baseline.evaluations"] > 0

class TestCacheMetrics:
    def test_registry_is_single_source_of_truth(self, tmp_path):
        from repro.engine import TaskSpec

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="baseline", params={
            "circuit": "ota_small", "method": "sa",
            "config": {"moves_per_temperature": 4},
        }, seed=0)
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)
        from repro.engine import run_task
        cache.put(run_task(spec))
        assert cache.puts == 1
        assert cache.get(spec) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1

    def test_global_mirror_only_when_enabled(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        from repro.engine import TaskSpec

        spec = TaskSpec(fn="baseline", params={
            "circuit": "ota_small", "method": "sa",
            "config": {"moves_per_temperature": 4},
        }, seed=0)
        cache.get(spec)  # miss, telemetry off
        assert obs.OBS.registry.empty
        obs.enable()
        try:
            cache.get(spec)  # miss, telemetry on
        finally:
            obs.disable()
        assert obs.OBS.registry.counters == {"cache.miss": 1}
        assert cache.misses == 2  # instance ledger counted both


class TestLogging:
    def test_logger_namespace(self):
        assert obs.get_logger().name == "repro"
        assert obs.get_logger("engine").name == "repro.engine"

    def test_resolve_level_precedence(self, monkeypatch):
        monkeypatch.delenv(obs.LEVEL_ENV_VAR, raising=False)
        assert obs.resolve_level(None, quiet=False) == logging.INFO
        assert obs.resolve_level(None, quiet=True) == logging.WARNING
        monkeypatch.setenv(obs.LEVEL_ENV_VAR, "DEBUG")
        assert obs.resolve_level(None, quiet=False) == logging.DEBUG
        # Quiet and explicit levels both beat the environment.
        assert obs.resolve_level(None, quiet=True) == logging.WARNING
        assert obs.resolve_level("ERROR", quiet=True) == logging.ERROR

    def test_setup_logging_idempotent(self):
        first = obs.setup_logging(level="INFO")
        second = obs.setup_logging(level="DEBUG")
        assert first is second
        named = [h for h in first.handlers if h.get_name() == "repro-obs-handler"]
        assert len(named) == 1


class TestReport:
    def _write_run(self, tmp_path):
        with obs.enabled_scope():
            obs.inc("env.steps", 10)
            obs.observe("env.step.seconds", 2e-4)
            obs.set_gauge("train.episode_reward_mean", -3.0)
            obs.record("train.iteration", {
                "iteration": 0, "episode_reward_mean": -3.0, "approx_kl": 0.01,
                "policy_loss": -0.1, "value_loss": 4.2, "entropy": 6.1,
                "episodes_completed": 2, "clip_fraction": 0.2,
            })
            with obs.phase("ppo.update"):
                pass
            metrics = str(tmp_path / "m.jsonl")
            trace = str(tmp_path / "t.jsonl")
            obs.write_metrics(metrics)
            obs.write_trace(trace)
        return metrics, trace

    def test_render_report(self, tmp_path):
        metrics, trace = self._write_run(tmp_path)
        text = obs.render_report(metrics_path=metrics, trace_path=trace)
        assert "env.steps" in text
        assert "env.step.seconds" in text
        assert "training iterations" in text
        assert "ppo.update" in text

    def test_resilience_section_folds_fault_counters(self, tmp_path):
        fault_counters = ("resil.retries", "engine.pool_rebuilds",
                          "serve.shed")
        with obs.enabled_scope():
            obs.inc("env.steps", 10)
            for name in fault_counters:
                obs.inc(name)
            path = obs.write_metrics(str(tmp_path / "m.jsonl"))
        with open(path) as handle:
            entries = [json.loads(line) for line in handle]
        sections = {}
        for block in obs.render_metrics(entries).split("\n\n"):
            header, _, body = block.partition("\n")
            sections[header] = body
        assert "env.steps" in sections["== counters =="]
        for name in fault_counters:
            assert name in sections["== resilience =="]
            assert name not in sections["== counters =="]

    def test_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        metrics, trace = self._write_run(tmp_path)
        assert main(["report", "--metrics", metrics, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "env.steps" in out
        assert "ppo.update" in out

    def test_report_requires_an_input(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report"])

    def test_trace_lines_are_chrome_events(self, tmp_path):
        _, trace = self._write_run(tmp_path)
        with open(trace) as handle:
            events = [json.loads(line) for line in handle]
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert spans, "trace must contain the recorded span"
        for event in spans:
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        # Metadata events label the processes for Perfetto and the report.
        assert any(e["name"] == "process_name" for e in meta)
        assert all(e["ph"] in ("X", "M", "s", "f") for e in events)

    def test_trace_out_writes_perfetto_json(self, tmp_path, capsys):
        from repro.cli import main

        metrics, trace = self._write_run(tmp_path)
        out_path = str(tmp_path / "perfetto.json")
        assert main(["report", "--trace", trace, "--trace-out", out_path]) == 0
        with open(out_path) as handle:
            payload = json.load(handle)
        assert isinstance(payload["traceEvents"], list)
        assert any(e.get("name") == "ppo.update" for e in payload["traceEvents"])
