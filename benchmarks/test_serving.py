"""Serving bench: load-generate against the micro-batched solve server.

Drives 16 concurrent clients against an in-process :class:`SolveServer`
(ephemeral port) in three phases:

* **sequential** — ``max_batch=1``: every policy step is its own
  forward; the no-coalescing baseline.
* **micro-batched** — ``max_batch=16``: concurrent solve sessions share
  one batched forward per step wave (PR 7's batched R-GCN path).
* **warm cache** — the same requests again: every answer must replay
  from the artifact cache with zero policy steps.

Prints requests/sec, client-observed latency p50/p99, mean coalesced
batch size, and the warm-phase hit rate.  Nothing is persisted: served
throughput is tracked by the perfbench ``serve`` workload.

The batched-vs-sequential speedup is a regression gate: measured
~3.3x on a 2-vCPU VM (the Amdahl ceiling is set by the env steps and
wire protocol, which coalescing does not parallelize).  The floor
sits below that for host noise — shared CI runners relax it further via
``$REPRO_SERVE_FLOOR``.
"""

import os
import threading
import time

from _util import check

from repro.config import TrainConfig
from repro.obs.metrics import summarize_values
from repro.rl import FloorplanAgent
from repro.serve import ServeConfig, ServerThread, SolveClient

#: 16 concurrent clients, as the acceptance criterion demands.
CLIENTS = 16
REQUESTS_PER_CLIENT = 3
#: Larger Table I circuits: longer episodes give coalescing something to
#: amortize (3-block toys are dominated by wire/env overhead).
CIRCUITS = ("bias2", "driver")

SERVE_SPEEDUP_FLOOR = float(os.environ.get("REPRO_SERVE_FLOOR", "1.5"))


def _small_agent() -> FloorplanAgent:
    return FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8, seed=0,
    ))


def _load_phase(handle, label):
    """16 client threads, each solving its own seed sequence; returns
    (wall seconds, client-side latency summary, server stats).  The
    returned stats carry a per-phase ``phase_hit_rate`` (server counters
    are lifetime-cumulative; phases need the delta)."""
    hits_before = handle.server.stats()["cache_hits"]
    latencies = []
    lock = threading.Lock()

    def work(cid):
        with SolveClient(handle.address) as client:
            for j in range(REQUESTS_PER_CLIENT):
                t0 = time.perf_counter()
                response = client.solve(
                    CIRCUITS[(cid + j) % len(CIRCUITS)],
                    seed=cid * 100 + j,
                    deterministic=False,
                )
                elapsed = time.perf_counter() - t0
                assert response["result"]["area"] > 0
                with lock:
                    latencies.append(elapsed)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    stats = handle.server.stats()
    stats["phase_hit_rate"] = (
        (stats["cache_hits"] - hits_before) / (CLIENTS * REQUESTS_PER_CLIENT)
    )
    return wall, summarize_values(latencies), stats


def _phase_report(label, wall, latency, stats):
    total = CLIENTS * REQUESTS_PER_CLIENT
    mean_batch = stats["batched_steps"] / max(1, stats["batches"])
    return {
        "label": label,
        "requests_per_second": total / wall,
        "latency_p50_ms": latency["p50"] * 1000,
        "latency_p99_ms": latency["p99"] * 1000,
        "mean_batch_size": mean_batch,
        "cache_hit_rate": stats["phase_hit_rate"],
    }


def test_serving_throughput(benchmark, tmp_path):
    def body():
        phases = []

        # --- sequential baseline: no coalescing --------------------------
        config = ServeConfig(max_batch=1, backend="serial",
                             cache=False)
        with ServerThread(config, agent=_small_agent()) as handle:
            wall, latency, stats = _load_phase(handle, "sequential")
        phases.append(_phase_report("sequential (max_batch=1)",
                                    wall, latency, stats))
        t_sequential = wall

        # --- micro-batched, cold cache -----------------------------------
        config = ServeConfig(max_batch=16, backend="serial",
                             cache=True, cache_dir=str(tmp_path))
        with ServerThread(config, agent=_small_agent()) as handle:
            wall, latency, stats = _load_phase(handle, "batched")
            phases.append(_phase_report("micro-batched (max_batch=16)",
                                        wall, latency, stats))
            t_batched = wall
            assert stats["phase_hit_rate"] == 0.0  # all cold
            mean_batch = stats["batched_steps"] / max(1, stats["batches"])
            steps_after_cold = handle.server._batcher.items_dispatched

            # --- warm cache: same requests, zero recomputation -----------
            wall, latency, stats = _load_phase(handle, "warm")
            phases.append(_phase_report("warm cache (repeat)",
                                        wall, latency, stats))
            assert handle.server._batcher.items_dispatched == steps_after_cold, \
                "warm requests must not run policy steps"
            hit_rate = stats["phase_hit_rate"]
            assert hit_rate == 1.0, "every warm request must hit the cache"

        speedup = t_sequential / t_batched
        assert mean_batch > 2.0, (
            f"micro-batcher barely coalesced (mean batch {mean_batch:.1f})"
        )
        assert speedup >= SERVE_SPEEDUP_FLOOR, (
            f"serving speedup regressed: {speedup:.2f}x "
            f"< {SERVE_SPEEDUP_FLOOR}x floor"
        )

        lines = [
            f"solve service load test: {CLIENTS} concurrent clients x "
            f"{REQUESTS_PER_CLIENT} requests, circuits {', '.join(CIRCUITS)}",
            "",
            f"{'phase':<30} {'rps':>6} {'p50 ms':>8} {'p99 ms':>8} "
            f"{'batch':>6} {'hits':>5}",
        ]
        for phase in phases:
            lines.append(
                f"{phase['label']:<30} {phase['requests_per_second']:6.1f} "
                f"{phase['latency_p50_ms']:8.1f} {phase['latency_p99_ms']:8.1f} "
                f"{phase['mean_batch_size']:6.1f} "
                f"{phase['cache_hit_rate']:5.0%}"
            )
        lines += [
            "",
            f"batched vs sequential speedup: {speedup:.2f}x "
            f"(floor {SERVE_SPEEDUP_FLOOR}x)",
            f"warm-phase cache hit rate: {hit_rate:.0%}",
        ]
        print("\n" + "\n".join(lines))

    check(benchmark, body)
