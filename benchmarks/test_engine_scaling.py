"""Engine scaling bench: serial vs process backends, cold vs warm cache.

Runs a moderately sized SA grid through ``repro.engine`` and reports the
wall-clock for each configuration.  On a multi-core machine the process
backend approaches ``serial / workers``; on a single core it shows the
pool overhead.  Either way the artifacts must be bit-identical and the
warm-cache pass must recompute nothing — those invariants are asserted,
while the speedup itself is printed (it depends on the host's cores).
"""

import os
import time

import numpy as np
import pytest

from _util import check
from oracles import (
    escape_graph_reference,
    fold_product_reference,
    ga_reference,
    hpwl,
    linear_primitive_reference,
    nn_kernel_calls,
    oarsmt_calls,
    oarsmt_reference,
    pack_reference,
    pso_reference,
    rl_sa_reference,
    rl_sp_reference,
    state_centers,
    weight_grad_reference,
    wire_mask_reference,
)

from repro.baselines import (
    GAConfig,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SequencePair,
    genetic_algorithm,
    inflated_shapes,
    particle_swarm,
    rl_sequence_pair,
    rl_simulated_annealing,
)
from repro.baselines.seqpair import pair_evaluator
from repro.circuits import get_circuit
from repro.config import NUM_SHAPES
from repro.engine import ArtifactCache, Executor, TaskSpec
from repro.floorplan import FloorplanEnv
from repro.floorplan.masks import dead_space_mask, positional_mask
from repro.floorplan.metrics import hpwl_lower_bound
from repro.nn import Tensor
from repro.nn import functional as F
from repro.rl.policy import _FLAT_DIM
from repro.routing import build_escape_graph
from repro.routing.oarsmt import steiner_tree_edges

GRID_CIRCUITS = ("ota1", "ota2", "bias1")
GRID_SEEDS = range(4)

TABLE1 = ("ota1", "ota2", "bias1", "bias2", "driver")

#: Regression floor for the hot-path speedups (measured ~3-4x at PR time;
#: the floor sits below that to stay robust to host noise).  Shared CI
#: runners override it via $REPRO_HOTPATH_FLOOR — the ratio is measured
#: on one machine so noise mostly cancels, but throttling bursts happen.
HOTPATH_SPEEDUP_FLOOR = float(os.environ.get("REPRO_HOTPATH_FLOOR", "2.0"))


def _reference_sa_evaluation(circuit, sizes, pair, hmin):
    """The seed's SA move: O(n^2) pack + dict/scalar-loop evaluation
    (including the uncached total-area walks the seed paid per call)."""
    rects = pack_reference(pair, sizes)
    minx = min(r.x for r in rects)
    miny = min(r.y for r in rects)
    maxx = max(r.x2 for r in rects)
    maxy = max(r.y2 for r in rects)
    area = (maxx - minx) * (maxy - miny)
    centers = {r.index: r.center for r in rects}
    wirelength = hpwl(circuit.nets, centers, partial=False)
    total_area = sum(b.area for b in circuit.blocks)
    ds = 1.0 - total_area / area if area > 0 else 0.0
    total_area = sum(b.area for b in circuit.blocks)
    cost = 1.0 * (area / total_area - 1.0) + 5.0 * (wirelength / hmin - 1.0)
    return area, wirelength, ds, -cost


def _reference_env_step(state, hmin):
    """The seed's per-step recomputation: four positional-mask passes
    (step-entry mask, dead-end check, observation fp, observation action
    mask), reference wire/dead-space masks, scalar HPWL, and bbox/area
    walks — each from scratch."""
    fp = np.stack(
        [positional_mask(state, s).astype(np.float64) for s in range(NUM_SHAPES)]
    )
    fp.astype(bool).reshape(-1)
    blocks = list(state.placed.values())
    if blocks:
        minx = min(b.x for b in blocks)
        miny = min(b.y for b in blocks)
        maxx = max(b.x2 for b in blocks)
        maxy = max(b.y2 for b in blocks)
        (maxx - minx) * (maxy - miny)
        sum(b.width * b.height for b in blocks)
    hpwl(state.circuit.nets, state_centers(state), partial=True)
    np.stack(
        [positional_mask(state, s).astype(np.float64) for s in range(NUM_SHAPES)]
    ).astype(bool).any()
    fg = state.occupancy.astype(np.float64)[np.newaxis]
    fw = wire_mask_reference(state, 1, hmin)[np.newaxis]
    fds = dead_space_mask(state, 1)[np.newaxis]
    fp = np.stack(
        [positional_mask(state, s).astype(np.float64) for s in range(NUM_SHAPES)]
    )
    np.concatenate([fg, fw, fds, fp], axis=0)
    np.stack(
        [positional_mask(state, s).astype(np.float64) for s in range(NUM_SHAPES)]
    ).astype(bool).reshape(-1)


def _steiner_or_none(fn, *args):
    try:
        return fn(*args)
    except RuntimeError:  # obstacles disconnect the terminals
        return None


def _run_speedup(label, run, reference, config):
    """Time one whole baseline run per Table I circuit against its oracle
    loop; the results must be equal."""
    t_ref = t_new = 0.0
    for name in TABLE1:
        circuit = get_circuit(name)
        t0 = time.perf_counter()
        expected = reference(circuit, config)
        t_ref += time.perf_counter() - t0
        t0 = time.perf_counter()
        result = run(circuit, config)
        t_new += time.perf_counter() - t0
        assert result.rects == expected.rects
        assert result.reward == expected.reward
    speedup = t_ref / t_new
    line = (f"{label:<15} reference {t_ref / len(TABLE1) * 1e3:7.1f} ms"
            f"   fast path  {t_new / len(TABLE1) * 1e3:6.1f} ms"
            f"   speedup {speedup:5.2f}x")
    return line, speedup


def _hotpath_lines():
    lines = ["hot path (Table I circuits): reference scalar vs fast path"]

    # --- SA evaluation: pack + cost -------------------------------------
    # The annealers build one pair evaluator per run, outside the move loop.
    rng = np.random.default_rng(0)
    t_ref = t_new = 0.0
    evals = 0
    for name in TABLE1:
        circuit = get_circuit(name)
        sizes = inflated_shapes(circuit)
        hmin = hpwl_lower_bound(circuit)
        evaluate = pair_evaluator(circuit, sizes, hmin)
        pairs = [
            SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
            for _ in range(120)
        ]
        t0 = time.perf_counter()
        for pair in pairs:
            _reference_sa_evaluation(circuit, sizes, pair, hmin)
        t_ref += time.perf_counter() - t0
        t0 = time.perf_counter()
        for pair in pairs:
            evaluate(pair)
        t_new += time.perf_counter() - t0
        evals += len(pairs)
    sa_speedup = t_ref / t_new
    lines.append(
        f"SA evaluation   reference {t_ref / evals * 1e6:7.1f} us"
        f"   evaluator  {t_new / evals * 1e6:6.1f} us"
        f"   speedup {sa_speedup:5.2f}x"
    )

    # --- env step() -----------------------------------------------------
    rng = np.random.default_rng(0)
    t_ref = t_new = 0.0
    steps = 0
    for name in TABLE1:
        env = FloorplanEnv(get_circuit(name))
        hmin = env.hpwl_min
        for _ in range(4):
            obs = env.reset()
            done = False
            while not done:
                valid = np.flatnonzero(obs.action_mask)
                action = int(valid[rng.integers(valid.size)])
                t0 = time.perf_counter()
                _reference_env_step(env.state, hmin)
                t_ref += time.perf_counter() - t0
                t0 = time.perf_counter()
                obs, _, done, _ = env.step(action)
                t_new += time.perf_counter() - t0
                steps += 1
    env_speedup = t_ref / t_new
    lines.append(
        f"env step()      reference {t_ref / steps * 1e6:7.1f} us"
        f"   vectorized {t_new / steps * 1e6:6.1f} us"
        f"   speedup {env_speedup:5.2f}x"
    )

    # --- OARSMT Steiner tree: networkx vs the grid replay ---------------
    # Every ota2 net; the escape graphs are built outside the timers.
    t_ref = t_new = 0.0
    calls = oarsmt_calls("ota2")
    for terminals, obstacles in calls:
        graph = build_escape_graph(terminals, obstacles)
        reference = escape_graph_reference(terminals, obstacles)
        ids = graph.node_ids([(t.x, t.y) for t in terminals])
        t0 = time.perf_counter()
        expected = _steiner_or_none(oarsmt_reference, reference, terminals)
        t_ref += time.perf_counter() - t0
        t0 = time.perf_counter()
        edges = _steiner_or_none(steiner_tree_edges, graph, ids)
        t_new += time.perf_counter() - t0
        if expected is not None:
            assert [(graph.point(u), graph.point(v)) for u, v in edges] == expected
    oarsmt_speedup = t_ref / t_new
    lines.append(
        f"OARSMT tree     reference {t_ref / len(calls) * 1e3:7.2f} ms"
        f"   fast       {t_new / len(calls) * 1e3:6.2f} ms"
        f"   speedup {oarsmt_speedup:5.2f}x"
    )

    # --- whole baseline runs: per-scalar numpy draws vs replays --------
    speedups = {"SA evaluation": sa_speedup, "env step": env_speedup,
                "OARSMT Steiner tree": oarsmt_speedup}
    for label, run, reference, config in (
        ("RL-SP run", rl_sequence_pair, rl_sp_reference, RLSPConfig(iterations=20)),
        ("PSO run", particle_swarm, pso_reference, PSOConfig(iterations=10)),
        ("GA run", genetic_algorithm, ga_reference, GAConfig(generations=10)),
        ("RL-SA run", rl_simulated_annealing, rl_sa_reference,
         RLSAConfig(moves_per_temperature=10)),
    ):
        line, speedups[label] = _run_speedup(label, run, reference, config)
        lines.append(line)
    return lines, speedups


def _time_pair(reference, fast, calls, repeats=15):
    """Median seconds of one pass of ``reference`` and of ``fast`` over
    ``calls``, alternated; each call's outputs must be byte-equal."""
    for args in calls:
        assert fast(*args).tobytes() == reference(*args).tobytes()
    t_ref, t_new = [], []
    for _ in range(repeats):
        for fn, times in ((reference, t_ref), (fast, t_new)):
            t0 = time.perf_counter()
            for args in calls:
                fn(*args)
            times.append(time.perf_counter() - t0)
    return float(np.median(t_ref)), float(np.median(t_new))


def _nn_kernel_lines():
    """The policy's kernels against the ones they replaced: the 4096 -> 512
    fc forward at the row counts serve, collect and update run, and every
    conv/deconv weight grad and stride-2 interleave of a 64-row backward.
    Printed only: a ~2x fc gain sits too close to the hot-path floor."""
    lines = ["nn kernel: reference vs BLAS operand order / strided interleave"]
    rng = np.random.default_rng(0)
    weight = Tensor(rng.normal(size=(512, _FLAT_DIM)).astype(np.float32))
    bias = Tensor(np.zeros(512, dtype=np.float32))

    def forward(linear):
        return lambda x: linear(x, weight, bias).data

    for rows in (1, 2, 4, 64):
        x = Tensor(rng.normal(size=(rows, _FLAT_DIM)).astype(np.float32))
        t_ref, t_new = _time_pair(forward(linear_primitive_reference), forward(F.linear), [(x,)])
        lines.append(f"nn kernel fc 4096->512 x{rows:<3} reference {t_ref * 1e3:6.2f} ms"
                     f"   new {t_new * 1e3:6.2f} ms   speedup {t_ref / t_new:5.2f}x")
    calls = nn_kernel_calls(64, np.float32)
    for label, reference, fast, args in (
        ("weight grads", weight_grad_reference, F._weight_grad, calls["_weight_grad"]),
        ("s2 interleaves", fold_product_reference, F._fold_product,
         [a for a in calls["_fold_product"] if a[5] == 2]),
    ):
        t_ref, t_new = _time_pair(reference, fast, args)
        lines.append(f"nn kernel {len(args)} {label:<14} x64 reference {t_ref * 1e3:6.2f} ms"
                     f"   new {t_new * 1e3:6.2f} ms   speedup {t_ref / t_new:5.2f}x")
    return lines


def _grid():
    return [
        TaskSpec(
            fn="baseline",
            params={"circuit": name, "method": "sa",
                    "config": {"moves_per_temperature": 20}},
            seed=seed,
            tag=f"sa/{name}/s{seed}",
        )
        for name in GRID_CIRCUITS
        for seed in GRID_SEEDS
    ]


def test_engine_scaling(benchmark, tmp_path):
    def body():
        workers = os.cpu_count() or 1
        lines = [f"engine scaling on {workers} core(s), "
                 f"{len(GRID_CIRCUITS) * len(GRID_SEEDS)} SA tasks"]

        serial = Executor()
        t0 = time.perf_counter()
        reference = serial.map_tasks(_grid())
        t_serial = time.perf_counter() - t0
        lines.append(f"serial              {t_serial:8.2f} s")

        process = Executor(backend="process", workers=workers)
        t0 = time.perf_counter()
        parallel = process.map_tasks(_grid())
        t_process = time.perf_counter() - t0
        lines.append(f"process x{workers}          {t_process:8.2f} s "
                     f"(speedup {t_serial / t_process:4.2f}x)")

        for a, b in zip(reference, parallel):
            assert a.value.rects == b.value.rects
            assert a.value.reward == b.value.reward

        cold = Executor(cache=ArtifactCache(root=tmp_path))
        t0 = time.perf_counter()
        cold.map_tasks(_grid())
        lines.append(f"serial + cold cache {time.perf_counter() - t0:8.2f} s")

        warm = Executor(cache=ArtifactCache(root=tmp_path))
        t0 = time.perf_counter()
        cached = warm.map_tasks(_grid())
        t_warm = time.perf_counter() - t0
        lines.append(f"warm cache          {t_warm:8.2f} s "
                     f"({warm.stats.cache_hits} hits, {warm.stats.computed} computed)")

        assert warm.stats.computed == 0, "warm cache must recompute nothing"
        assert all(r.cached for r in cached)
        assert t_warm < t_serial

        hot_lines, speedups = _hotpath_lines()
        lines.append("")
        lines.extend(hot_lines)
        for label, speedup in speedups.items():
            assert speedup >= HOTPATH_SPEEDUP_FLOOR, (
                f"{label} hot path regressed: {speedup:.2f}x "
                f"< {HOTPATH_SPEEDUP_FLOOR}x floor"
            )

        lines.append("")
        lines.extend(_nn_kernel_lines())
        print("\n" + "\n".join(lines))

    check(benchmark, body)
