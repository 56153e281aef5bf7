"""Seeded fault-injection matrix (repro.resil.chaos) across the process
boundaries: engine pools and the solve service (connections and its
baseline pool) — plus the crash-resumable-sweep regression.

Every test derives its injector seed from ``$REPRO_CHAOS_SEED`` (the CI
chaos job runs a small seed matrix; locally it defaults to 0), and every
assertion about "did a fault fire" is computed from the same pure hash
the injector uses — so these tests are deterministic per seed, never
probabilistic.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import obs
from repro.config import TrainConfig
from repro.engine import (
    ArtifactCache,
    Executor,
    SweepSpec,
    TaskSpec,
    register_task,
    run_sweep,
)
from repro.resil import RetryPolicy
from repro.resil import chaos
from repro.resil.chaos import KILL_EXIT_CODE, _fraction
from repro.rl import FloorplanAgent
from repro.serve import ServeConfig, ServerThread, SolveClient

#: CI matrix leg: shifts every injector seed so each leg exercises a
#: different deterministic fault schedule.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(scope="module", autouse=True)
def chaos_artifacts():
    """CI post-mortem artifact: when the chaos job sets
    ``$REPRO_CHAOS_TRACE`` / ``$REPRO_CHAOS_METRICS``, record telemetry
    across this module and write it out at the end (uploaded on
    failure).  A no-op locally."""
    trace_path = os.environ.get("REPRO_CHAOS_TRACE")
    if trace_path:
        obs.enable()
    yield
    if trace_path:
        try:
            obs.write_trace(trace_path)
            metrics_path = os.environ.get("REPRO_CHAOS_METRICS")
            if metrics_path:
                obs.write_metrics(metrics_path)
        except Exception:
            pass
        obs.disable()


@pytest.fixture
def chaos_env(monkeypatch, tmp_path):
    """Arm chaos via the environment (so forked workers inherit it) and
    guarantee a clean slate before and after."""
    marker_dir = tmp_path / "chaos-markers"

    def arm(spec: str) -> None:
        monkeypatch.setenv(chaos.ENV_VAR, spec)
        monkeypatch.setenv(chaos.DIR_ENV_VAR, str(marker_dir))

    chaos.uninstall()
    yield arm
    chaos.uninstall()


@pytest.fixture
def fork_ctx():
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")


def small_agent(seed: int = 0) -> FloorplanAgent:
    return FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8,
        seed=seed,
    ))


@register_task("chaos_echo")
def _chaos_echo(params, seed, context):
    return seed * 7


# ---------------------------------------------------------------------------
# Engine under injected faults
# ---------------------------------------------------------------------------

class TestEngineChaos:
    @pytest.mark.parametrize("leg", range(2))
    def test_kill_worker_matrix_ordered_results_survive(self, leg,
                                                        chaos_env, fork_ctx):
        """Seeded kills across the task grid: whatever subset the hash
        selects, results come back complete and ordered."""
        seed = CHAOS_SEED * 100 + leg
        specs = [TaskSpec(fn="chaos_echo", seed=s) for s in range(8)]
        victims = [s.content_hash() for s in specs
                   if _fraction(seed, "kill_worker", s.content_hash()) < 0.5]
        chaos_env(f"kill_worker:rate=0.5,seed={seed}")
        ex = Executor(backend="process", workers=2)
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [s * 7 for s in range(8)]
        if victims:
            assert ex.stats.pool_rebuilds >= 1
        else:
            assert ex.stats.pool_rebuilds == 0

    def test_hang_task_recovered_by_timeout_and_retry_process(self,
                                                              chaos_env,
                                                              fork_ctx):
        chaos_env(f"hang_task:rate=1,value=60,seed={CHAOS_SEED}")
        specs = [TaskSpec(fn="chaos_echo", seed=s) for s in range(2)]
        ex = Executor(backend="process", workers=2,
                      policy=RetryPolicy(retries=1, timeout=1.0))
        began = time.perf_counter()
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [0, 7]
        assert time.perf_counter() - began < 30.0  # not 60: hang reclaimed
        # At least one deadline blew; the rebuild it triggers may rescue
        # the other hung task before its own deadline expires.
        assert ex.stats.timeouts >= 1
        assert ex.stats.pool_rebuilds >= 1

    def test_hang_task_recovered_serial(self, chaos_env):
        chaos_env(f"hang_task:rate=1,value=5,seed={CHAOS_SEED}")
        ex = Executor(backend="serial",
                      policy=RetryPolicy(retries=1, timeout=0.3))
        results = ex.map_tasks([TaskSpec(fn="chaos_echo", seed=3)])
        assert results[0].value == 21
        assert ex.stats.timeouts == 1
        assert ex.stats.retries == 1

    def test_delay_task_slows_but_never_fails(self, chaos_env):
        chaos_env(f"delay_task:rate=1,value=20,seed={CHAOS_SEED},once=0")
        specs = [TaskSpec(fn="chaos_echo", seed=s) for s in range(3)]
        with obs.enabled_scope():
            ex = Executor(backend="serial")
            results = ex.map_tasks(specs)
            fired = obs.OBS.registry.counters.get("chaos.fired.delay_task", 0)
        assert [r.value for r in results] == [0, 7, 14]
        assert fired == 3
        assert ex.stats.wall_seconds >= 3 * 0.020

    def test_corrupt_cache_entry_evicted_and_recomputed(self, chaos_env,
                                                        tmp_path):
        spec = TaskSpec(fn="chaos_echo", seed=4)
        root = str(tmp_path / "cache")
        warm = Executor(backend="serial", cache=ArtifactCache(root=root))
        warm.map_tasks([spec])
        assert ArtifactCache(root=root).get(spec) is not None

        chaos_env(f"corrupt_cache:rate=1,seed={CHAOS_SEED}")
        ex = Executor(backend="serial", cache=ArtifactCache(root=root))
        results = ex.map_tasks([spec])
        assert results[0].value == 28   # recomputed, not poisoned
        assert ex.stats.cache_hits == 0
        assert ex.stats.computed == 1

        # The once-marker is claimed and the entry was rewritten: the
        # next read is a clean hit even with chaos still armed.
        again = Executor(backend="serial", cache=ArtifactCache(root=root))
        again.map_tasks([spec])
        assert again.stats.cache_hits == 1


# ---------------------------------------------------------------------------
# Serving under injected faults & overload
# ---------------------------------------------------------------------------

class TestServeChaos:
    def test_drop_conn_recovered_by_client_retry(self, chaos_env, tmp_path):
        chaos_env(f"drop_conn:rate=1,seed={CHAOS_SEED}")
        config = ServeConfig(backend="serial", cache=True,
                             cache_dir=str(tmp_path / "cache"))
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address, retries=1) as client:
                # First send is dropped mid-request; the resent line is
                # byte-identical, so its once-marker is already claimed
                # and the retry goes through.
                response = client.solve("ota_small", seed=0)
                assert response["result"]["area"] > 0

    def test_drop_conn_without_retries_surfaces(self, chaos_env, tmp_path):
        chaos_env(f"drop_conn:rate=1,seed={CHAOS_SEED + 1}")
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address, retries=0) as client:
                with pytest.raises(OSError):
                    client.solve("ota_small", seed=0)

    def test_admission_control_sheds_past_max_inflight(self):
        config = ServeConfig(backend="serial", cache=False, max_inflight=1)
        with ServerThread(config, agent=small_agent()) as handle:
            handle.server._admitted = 1  # one solve already admitted
            with SolveClient(handle.address) as client:
                response = client.request(
                    {"op": "solve", "circuit": "ota_small", "seed": 0})
                assert response["ok"] is False
                assert response["shed"] is True
                stats = client.stats()
                assert stats["shed"] == 1
            handle.server._admitted = 0
            with SolveClient(handle.address) as client:
                assert client.solve("ota_small", seed=0)["result"]["area"] > 0

    def test_deadline_exceeded_does_not_poison_the_compute(self, tmp_path):
        config = ServeConfig(backend="serial", cache=True,
                             cache_dir=str(tmp_path / "cache"))
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                hurried = client.request(
                    {"op": "solve", "circuit": "ota_small", "seed": 1,
                     "deadline_ms": 0.01})
                assert hurried["ok"] is False
                assert hurried["deadline_exceeded"] is True
                # The shielded compute kept running and filled the
                # cache; an unhurried ask gets the real answer.
                patient = client.solve("ota_small", seed=1)
                assert patient["result"]["area"] > 0
                stats = client.stats()
                assert stats["deadline_exceeded"] == 1

    def test_invalid_deadline_rejected(self):
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                response = client.request(
                    {"op": "solve", "circuit": "ota_small",
                     "deadline_ms": -5})
                assert response["ok"] is False

    def test_shutdown_drains_inflight_solve(self):
        config = ServeConfig(backend="serial", cache=False,
                             drain_timeout=30.0)
        results = []
        with ServerThread(config, agent=small_agent()) as handle:
            def work():
                with SolveClient(handle.address) as client:
                    results.append(client.solve("ota_small", seed=9))

            worker = threading.Thread(target=work)
            worker.start()
            time.sleep(0.2)  # let the request get in flight
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert results and results[0]["result"]["area"] > 0

    def test_kill_worker_in_baseline_pool_rebuilt_and_resubmitted(
            self, chaos_env, fork_ctx):
        """A killed baseline-pool worker costs one pool rebuild, not the
        request: the executor resubmits the solve on the new pool, and
        the pool then stays up for the next request."""
        chaos_env(f"kill_worker:rate=1,seed={CHAOS_SEED}")
        config = ServeConfig(backend="process", workers=1, cache=False)
        sa = dict(method="sa", config={"moves_per_temperature": 4})
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                assert client.solve("ota_small", seed=0, **sa)["ok"]
                assert client.stats()["pool_rebuilds"] == 1
                # A new site: the rebuilt pool absorbs one more kill.
                assert client.solve("ota_small", seed=1, **sa)["ok"]
                assert client.stats()["pool_rebuilds"] == 2

    def test_stats_exposes_resilience_counters(self):
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                stats = client.stats()
        for key in ("queue_depth", "shed", "deadline_exceeded",
                    "pool_rebuilds"):
            assert key in stats


# ---------------------------------------------------------------------------
# Crash-resumable sweeps: mid-sweep kill, then a bit-identical rerun
# ---------------------------------------------------------------------------

_SWEEP_SCRIPT = textwrap.dedent("""
    import sys
    from repro.engine import ArtifactCache, Executor, SweepSpec, run_sweep
    spec = SweepSpec(methods=["sa"], circuits=["ota_small"],
                     seeds=range(4), config={"moves_per_temperature": 4})
    ex = Executor(backend="serial", cache=ArtifactCache(root=sys.argv[1]))
    run_sweep(spec, executor=ex)
    print("completed-without-kill")
""")


class TestSweepResume:
    def _spec(self):
        return SweepSpec(methods=["sa"], circuits=["ota_small"],
                         seeds=range(4),
                         config={"moves_per_temperature": 4})

    def _kill_seed(self, keys, victim_index):
        """The first chaos seed whose schedule kills exactly one cell —
        ``victim_index`` — at rate 0.25 (a pure-hash search, so the CI
        seed matrix shifts which schedule is exercised)."""
        rate = 0.25
        for seed in range(CHAOS_SEED * 1000, CHAOS_SEED * 1000 + 5000):
            fired = [k for k in keys
                     if _fraction(seed, "kill_worker", k) < rate]
            if fired == [keys[victim_index]]:
                return seed
        raise AssertionError("no suitable kill seed found")

    def test_mid_sweep_kill_then_resume_is_bit_identical(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        chaos.uninstall()
        spec = self._spec()
        keys = [s.content_hash() for s in spec.expand()]
        kill_seed = self._kill_seed(keys, victim_index=2)

        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        env["REPRO_CHAOS"] = f"kill_worker:rate=0.25,seed={kill_seed}"
        env["REPRO_CHAOS_DIR"] = str(tmp_path / "markers")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT, cache_dir],
            env=env, capture_output=True, text=True, timeout=300,
        )
        # The serial sweep process itself is the kill_worker victim: it
        # must die mid-sweep with the sentinel code, after cells 0-1.
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        assert "completed-without-kill" not in proc.stdout

        # Rerun on the same cache, no chaos: the two finished cells
        # replay from the cache, only the unfinished two compute.
        ex = Executor(backend="serial",
                      cache=ArtifactCache(root=cache_dir))
        resumed = run_sweep(spec, executor=ex)
        assert ex.stats.cache_hits == 2
        assert ex.stats.computed == 2
        assert [r.cached for r in resumed.results] == [True, True,
                                                       False, False]

        # Bit-identical to an uninterrupted run (fresh cache): every
        # deterministic per-run metric matches exactly.
        ref_ex = Executor(backend="serial",
                          cache=ArtifactCache(root=str(tmp_path / "ref")))
        reference = run_sweep(spec, executor=ref_ex)
        resumed_runs = [(r.value.hpwl, r.value.dead_space, r.value.reward)
                        for r in resumed.results]
        reference_runs = [(r.value.hpwl, r.value.dead_space, r.value.reward)
                          for r in reference.results]
        assert resumed_runs == reference_runs
        assert (resumed.summary().split(" in ")[0]
                == "4 cells (2 from cache)")

        # A second rerun finds every cell cached: nothing computed.
        ex2 = Executor(backend="serial",
                       cache=ArtifactCache(root=cache_dir))
        run_sweep(spec, executor=ex2)
        assert ex2.stats.computed == 0
        assert ex2.stats.cache_hits == 4
