"""Tests for the parallel execution & artifact-cache engine (repro.engine)."""

import json
import os
import pickle
import sys

import numpy as np
import pytest

from repro.engine import executor as executor_mod
from repro.engine import (
    ArtifactCache,
    Executor,
    SweepSpec,
    TaskSpec,
    canonical_json,
    get_task,
    register_task,
    registered_tasks,
    run_sweep,
    run_task,
)

#: Small SA budget so each task runs in tens of milliseconds.
FAST_SA = {"circuit": "ota_small", "method": "sa",
           "config": {"moves_per_temperature": 4}}


class TestTaskSpec:
    def test_hash_is_stable_across_param_ordering(self):
        a = TaskSpec(fn="baseline", params={"x": 1, "y": 2}, seed=3)
        b = TaskSpec(fn="baseline", params={"y": 2, "x": 1}, seed=3)
        assert a.content_hash() == b.content_hash()

    def test_hash_sensitive_to_fn_params_seed(self):
        base = TaskSpec(fn="baseline", params={"x": 1}, seed=0)
        assert base.content_hash() != TaskSpec(fn="other", params={"x": 1}, seed=0).content_hash()
        assert base.content_hash() != TaskSpec(fn="baseline", params={"x": 2}, seed=0).content_hash()
        assert base.content_hash() != TaskSpec(fn="baseline", params={"x": 1}, seed=1).content_hash()

    def test_hash_is_pinned(self):
        # The artifact-cache key: a change here orphans every cached cell.
        spec = TaskSpec(fn="baseline", seed=3, tag="x", params={
            "circuit": "ota1", "method": "sa",
            "config": {"moves_per_temperature": 4}})
        assert spec.content_hash() == (
            "930ace189c0c2d2a0e728937daafdb4a55a65fc2ba2f5accf95fb2c7d6430fbf")

    def test_tag_excluded_from_hash(self):
        a = TaskSpec(fn="baseline", params={}, seed=0, tag="a")
        b = TaskSpec(fn="baseline", params={}, seed=0, tag="b")
        assert a.content_hash() == b.content_hash()

    def test_spec_is_picklable(self):
        spec = TaskSpec(fn="baseline", params=FAST_SA, seed=1, tag="t")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_live_objects_rejected_in_params(self):
        spec = TaskSpec(fn="baseline", params={"obj": object()})
        with pytest.raises(TypeError):
            spec.content_hash()

    def test_canonical_json_handles_numpy_and_tuples(self):
        text = canonical_json({"a": np.int64(3), "b": (1, 2)})
        assert json.loads(text) == {"a": 3, "b": [1, 2]}


class TestRegistry:
    def test_builtin_tasks_registered(self):
        get_task("baseline")  # loads builtins lazily
        names = registered_tasks()
        assert {"baseline", "table1_rl", "pipeline"} <= set(names)

    def test_unknown_task_raises_with_hint(self):
        with pytest.raises(KeyError, match="unknown task"):
            get_task("does-not-exist")

    def test_register_and_run(self):
        @register_task("test_square")
        def _square(params, seed, context):
            return params["x"] ** 2 + seed

        result = run_task(TaskSpec(fn="test_square", params={"x": 3}, seed=1))
        assert result.value == 10
        assert result.seconds >= 0.0
        assert not result.cached


class TestExecutor:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            Executor(backend="gpu")

    def test_serial_results_ordered_and_timed(self):
        specs = [TaskSpec(fn="baseline", params=FAST_SA, seed=s) for s in range(3)]
        results = Executor().map_tasks(specs)
        assert [r.spec.seed for r in results] == [0, 1, 2]
        assert all(r.seconds > 0 for r in results)
        assert all(r.value.method == "SA" for r in results)

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match_serial(self, backend):
        specs = [TaskSpec(fn="baseline", params=FAST_SA, seed=s) for s in range(3)]
        serial = Executor().map_tasks(specs)
        parallel = Executor(backend=backend, workers=2).map_tasks(specs)
        for a, b in zip(serial, parallel):
            assert a.value.rects == b.value.rects
            assert a.value.reward == b.value.reward

    def test_stats_accounting(self):
        ex = Executor()
        ex.map_tasks([TaskSpec(fn="baseline", params=FAST_SA, seed=0)])
        assert ex.stats.total == 1
        assert ex.stats.computed == 1
        assert ex.stats.cache_hits == 0
        assert ex.stats.wall_seconds > 0


def _os_threads() -> int:
    return (len(os.listdir("/proc/self/task")) if sys.platform == "linux"
            else 0)


@register_task("test_blas_probe")
def _blas_probe(params, seed, context):
    """The worker's BLAS thread count, and its OS threads around a GEMM."""
    before = _os_threads()
    a = np.random.default_rng(seed).standard_normal((512, 512))
    a @ a
    after = _os_threads()
    handle = executor_mod._BLAS_THREADS
    return {"blas": None if handle is None else handle.value,
            "threads_before": before, "threads_after": after}


@pytest.mark.skipif(executor_mod._BLAS_THREADS is None,
                    reason="numpy ships no OpenBLAS")
class TestBlasCap:
    """Pool workers cap numpy's OpenBLAS at cores // pool size."""

    def _probe(self):
        specs = [TaskSpec(fn="test_blas_probe", seed=s) for s in range(2)]
        return [r.value for r in Executor(backend="process",
                                          workers=2).map_tasks(specs)]

    def test_worker_capped_parent_untouched(self):
        parent = executor_mod._BLAS_THREADS.value
        cap = max(1, executor_mod.available_cores() // 2)
        for value in self._probe():
            assert value["blas"] == min(parent, cap)
        assert executor_mod._BLAS_THREADS.value == parent

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_capped_worker_starts_no_blas_thread(self):
        if max(1, executor_mod.available_cores() // 2) > 1:
            pytest.skip("workers keep a threaded BLAS on this many cores")
        # A forked worker runs on its one thread: the initializer started
        # no BLAS server thread, and neither did the GEMM.
        for value in self._probe():
            assert value["threads_before"] == value["threads_after"] == 1


@pytest.mark.skipif(executor_mod._BLAS_THREADS is None,
                    reason="numpy ships no OpenBLAS")
class TestServerBlasHold:
    """A started solve server runs its process's OpenBLAS on one thread
    and puts the count back when the last started server closes."""

    @pytest.fixture(scope="class")
    def agent(self):
        from repro.config import TrainConfig
        from repro.rl import FloorplanAgent

        return FloorplanAgent(config=TrainConfig(seed=0))

    @staticmethod
    def _server(agent, **overrides):
        from repro.serve import ServeConfig, ServerThread

        config = dict(backend="serial", cache=False)
        config.update(overrides)
        return ServerThread(ServeConfig(**config), agent=agent)

    def test_overlapping_servers_restore_the_count_found(self, agent):
        handle = executor_mod._BLAS_THREADS
        before = handle.value
        with self._server(agent) as first:
            assert handle.value == 1
            with self._server(agent):
                assert handle.value == 1
                first.stop()
                assert handle.value == 1
            assert handle.value == before
        assert handle.value == before

    def test_pool_worker_inherits_one_thread(self, agent):
        # One worker alone would be capped at every core; forked from a
        # serving process it keeps that process's single thread.
        with self._server(agent, backend="process", workers=1) as handle:
            (result,) = handle.server.executor.map_tasks(
                [TaskSpec(fn="test_blas_probe", seed=0)])
        assert result.value["blas"] == 1


def test_blas_handle_resolves_with_numpy_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy is built against {blas['name']}")
    assert executor_mod._BLAS_THREADS is not None
    assert executor_mod._BLAS_THREADS.value >= 1


def test_grid_runs_without_blas_handle(monkeypatch):
    specs = [TaskSpec(fn="baseline", params=FAST_SA, seed=s) for s in range(2)]
    capped = Executor(backend="process", workers=2).map_tasks(specs)
    monkeypatch.setattr(executor_mod, "_BLAS_THREADS", None)
    plain = Executor(backend="process", workers=2).map_tasks(specs)
    for a, b in zip(capped, plain):
        assert a.value.rects == b.value.rects
        assert a.value.reward == b.value.reward


def test_available_cores_follows_affinity():
    cores = executor_mod.available_cores()
    assert 1 <= cores <= (os.cpu_count() or 1)
    if hasattr(os, "sched_getaffinity"):
        assert cores == len(os.sched_getaffinity(0))
    assert Executor().workers == cores


class TestArtifactCache:
    def test_roundtrip_floorplan_result_as_json(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="baseline", params=FAST_SA, seed=0)
        result = run_task(spec)
        cache.put(result)
        # FloorplanResult artifacts are stored as human-readable JSON.
        meta_files = list(tmp_path.rglob("*.json"))
        assert len(meta_files) == 1
        meta = json.loads(meta_files[0].read_text())
        assert meta["format"] == "floorplan_result"
        loaded = cache.get(spec)
        assert loaded is not None and loaded.cached
        assert loaded.value.rects == result.value.rects
        assert loaded.value.reward == result.value.reward
        assert loaded.seconds == result.seconds

    def test_miss_on_different_seed(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put(run_task(TaskSpec(fn="baseline", params=FAST_SA, seed=0)))
        assert cache.get(TaskSpec(fn="baseline", params=FAST_SA, seed=1)) is None

    def test_array_dicts_stored_as_npz(self, tmp_path):
        @register_task("test_array_dict")
        def _mk(params, seed, context):
            return {"array": np.arange(3), "grid": np.eye(2)}

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_array_dict")
        cache.put(run_task(spec))
        assert list(tmp_path.rglob("*.npz"))
        loaded = cache.get(spec)
        assert np.array_equal(loaded.value["array"], np.arange(3))
        assert np.array_equal(loaded.value["grid"], np.eye(2))

    def test_pickle_fallback_for_arbitrary_values(self, tmp_path):
        @register_task("test_unjsonable")
        def _mk(params, seed, context):
            return {"array": np.arange(3), "count": 3}  # mixed dict -> pickle

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_unjsonable")
        cache.put(run_task(spec))
        assert list(tmp_path.rglob("*.pkl"))
        loaded = cache.get(spec)
        assert np.array_equal(loaded.value["array"], np.arange(3))
        assert loaded.value["count"] == 3

    def test_tuple_payloads_round_trip_with_exact_types(self, tmp_path):
        """Cold and warm reads must be ``==``: tuples used to come back as
        lists because json encodes them as arrays (the timed-RL-cell shape
        ``(FloorplanResult-with-tuple-extra, float)`` hit this)."""
        @register_task("test_tuple_extra")
        def _mk(params, seed, context):
            return {"pair": (1, 2), "nested": [{"xy": (0.5, 1.5)}]}

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_tuple_extra")
        cold = run_task(spec)
        cache.put(cold)
        # Tuples are not JSON-stable -> the entry must go through pickle.
        assert list(tmp_path.rglob("*.pkl"))
        warm = cache.get(spec)
        assert warm.value == cold.value
        assert isinstance(warm.value["pair"], tuple)
        assert isinstance(warm.value["nested"][0]["xy"], tuple)

    def test_timed_result_with_tuple_extra_round_trips(self, tmp_path):
        from repro.baselines.common import FloorplanResult

        @register_task("test_timed_tuple")
        def _mk(params, seed, context):
            result = FloorplanResult(
                circuit_name="x", method="m", rects=[], area=1.0, hpwl=2.0,
                dead_space=0.1, reward=0.5, runtime=0.0,
                extra={"span": (3, 4)},
            )
            return result, 1.25

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_timed_tuple")
        cold = run_task(spec)
        cache.put(cold)
        warm = cache.get(spec)
        assert warm.value == cold.value
        assert isinstance(warm.value[0].extra["span"], tuple)

    def test_truncated_meta_evicted_not_sticky(self, tmp_path):
        """A corrupt entry must be deleted and recomputable — previously
        every ``get`` re-raised the JSON parse error forever."""
        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="baseline", params=FAST_SA, seed=0)
        cache.put(run_task(spec))
        meta_path = next(tmp_path.rglob("*.json"))
        meta_path.write_text(meta_path.read_text()[: 20])  # truncate meta
        assert cache.get(spec) is None          # evicted, not an exception
        assert cache.corrupt == 1
        assert cache.stats()["corrupt"] == 1
        assert not meta_path.exists()
        cache.put(run_task(spec))               # recompute overwrites
        assert cache.get(spec) is not None

    def test_corrupt_blob_evicted(self, tmp_path):
        @register_task("test_corrupt_blob")
        def _mk(params, seed, context):
            return object()  # pickle-only payload

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_corrupt_blob")
        cache.put(run_task(spec))
        blob = next(tmp_path.rglob("*.pkl"))
        blob.write_bytes(b"\x80\x05garbage")
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert not blob.exists()

    def test_missing_blob_counts_corrupt_not_miss(self, tmp_path):
        @register_task("test_missing_blob")
        def _mk(params, seed, context):
            return object()

        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="test_missing_blob")
        cache.put(run_task(spec))
        next(tmp_path.rglob("*.pkl")).unlink()
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert cache.misses == 0

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        spec = TaskSpec(fn="baseline", params=FAST_SA, seed=0)
        cache.put(run_task(spec))
        assert cache.clear() > 0
        assert cache.get(spec) is None

    def test_executor_warm_cache_recomputes_nothing(self, tmp_path):
        specs = [TaskSpec(fn="baseline", params=FAST_SA, seed=s) for s in range(2)]
        cold = Executor(cache=ArtifactCache(root=tmp_path))
        first = cold.map_tasks(specs)
        assert cold.stats.computed == 2

        warm = Executor(cache=ArtifactCache(root=tmp_path))
        second = warm.map_tasks(specs)
        assert warm.stats.computed == 0
        assert warm.stats.cache_hits == 2
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            assert a.value.rects == b.value.rects
            assert a.value.runtime == b.value.runtime  # replayed, not re-timed

    def test_reused_executor_reports_per_call_hit_deltas(self, tmp_path):
        # stats.cache_hits must describe the *last* map_tasks call, not
        # the cache's lifetime totals — the two disagreed when one
        # executor (and its cache) served several calls.
        spec = [TaskSpec(fn="baseline", params=FAST_SA, seed=0)]
        ex = Executor(cache=ArtifactCache(root=tmp_path))
        ex.map_tasks(spec)
        assert ex.stats.cache_hits == 0
        ex.map_tasks(spec)
        assert ex.stats.cache_hits == 1
        ex.map_tasks(spec)
        assert ex.stats.cache_hits == 1  # delta, not the running total
        assert ex.cache.stats()["hits"] == 2  # the cache keeps the total


class TestSweep:
    def test_expand_grid_size_and_order(self):
        spec = SweepSpec(methods=["sa", "ga"], circuits=["ota1", "ota2"], seeds=[0, 1])
        tasks = spec.expand()
        assert len(tasks) == 8
        # Circuit-major, then method, then seed.
        assert tasks[0].params["circuit"] == "ota1"
        assert tasks[0].params["method"] == "sa"
        assert [t.seed for t in tasks[:2]] == [0, 1]

    def test_config_overrides_filtered_per_method(self):
        spec = SweepSpec(methods=["sa"], circuits=["ota1"], seeds=[0],
                         config={"moves_per_temperature": 7, "not_a_field": 1})
        task = spec.expand()[0]
        assert task.params["config"] == {"moves_per_temperature": 7}

    def test_run_sweep_aggregates_cells(self):
        spec = SweepSpec(methods=["sa"], circuits=["ota_small"], seeds=[0, 1],
                         config={"moves_per_temperature": 4})
        result = run_sweep(spec)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.circuit == "ota_small" and cell.method == "sa"
        assert len(cell.runs) == 2
        assert cell.reward[0] != 0.0
        assert "ota_small" in result.table()
        assert "2 cells" in result.summary()


class TestPipelineBatch:
    def test_batch_matches_single_run_shape(self):
        from repro.pipeline import run_pipeline_batch

        results = run_pipeline_batch(
            ["ota_small"], config={"moves_per_temperature": 4})
        assert len(results) == 1
        assert results[0].circuit.name == "OTA-small"
        assert results[0].layout.area > 0
        assert "floorplan" in results[0].timings
