"""Scalar reference implementations the fast paths are pinned against.

Each function here is the straightforward version of a vectorized or
incremental path in ``repro``; the golden tests assert the fast path is
bit-identical to it (the per-sample NN kernels, whose summation order
differs, to a stated relative tolerance), and the hot-path benchmarks
time against it.  They live with the tests because nothing in the
package calls them.
"""

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.baselines import (
    FloorplanResult,
    GAConfig,
    PlacedRect,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SAConfig,
    SequencePair,
    evaluate_coords_population,
    inflated_shapes,
)
from repro.circuits import Circuit, Net, get_circuit
from repro.config import NUM_SHAPES, REWARD_ALPHA, REWARD_BETA, REWARD_GAMMA
from repro.floorplan import hpwl_lower_bound
from repro.floorplan import FloorplanState, placement_mask
from repro.floorplan.masks import HPWL_MIN_FLOOR
from repro.layout import CONNECTIVITY, Layer, Layout
from repro.nn import Tensor, dtype_scope, no_grad
from repro.nn import functional as F
from repro.pipeline import default_floorplanner
from repro.rl import ActorCritic
from repro.routing import (
    Obstacle,
    Point,
    Segment,
    escape_coordinates,
    global_router,
    route_circuit,
)


def state_centers(state: FloorplanState) -> Dict[int, Tuple[float, float]]:
    """Block index -> center of every placed block."""
    return {index: block.center for index, block in state.placed.items()}


def hpwl(
    nets: Sequence[Net],
    centers: Mapping[int, Tuple[float, float]],
    partial: bool = True,
) -> float:
    """Half-perimeter wirelength over nets (paper Eq. 3).

    Reference for ``state_hpwl`` / the evaluators' HPWL.  With
    ``partial=True``, nets with fewer than two placed members contribute
    zero; with ``partial=False`` a net with any unplaced member raises
    ``KeyError``.
    """
    total = 0.0
    for net in nets:
        xs = [centers[b][0] for b in net.blocks if b in centers]
        ys = [centers[b][1] for b in net.blocks if b in centers]
        if not partial and len(xs) < net.degree:
            raise KeyError(f"net {net.name}: unplaced blocks in full-HPWL mode")
        if len(xs) < 2:
            continue
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def pack_reference(
    pair: SequencePair,
    sizes: Sequence[Sequence[Tuple[float, float]]],
) -> List[PlacedRect]:
    """Reference for ``pack``: the classic O(n^2) sequence-pair double loop."""
    n = pair.num_blocks
    if len(sizes) != n:
        raise ValueError(f"expected sizes for {n} blocks, got {len(sizes)}")
    pos_plus = {b: i for i, b in enumerate(pair.gamma_plus)}
    pos_minus = {b: i for i, b in enumerate(pair.gamma_minus)}
    widths = np.array([sizes[b][pair.shapes[b]][0] for b in range(n)])
    heights = np.array([sizes[b][pair.shapes[b]][1] for b in range(n)])

    x = np.zeros(n)
    for b in pair.gamma_minus:
        best = 0.0
        for a in range(n):
            if a == b:
                continue
            if pos_plus[a] < pos_plus[b] and pos_minus[a] < pos_minus[b]:
                best = max(best, x[a] + widths[a])
        x[b] = best

    y = np.zeros(n)
    for b in pair.gamma_minus:
        best = 0.0
        for a in range(n):
            if a == b:
                continue
            if pos_plus[a] > pos_plus[b] and pos_minus[a] < pos_minus[b]:
                best = max(best, y[a] + heights[a])
        y[b] = best

    return [
        PlacedRect(b, pair.shapes[b], float(x[b]), float(y[b]), float(widths[b]), float(heights[b]))
        for b in range(n)
    ]


def pack_arrays_reference(
    pair: SequencePair,
    sizes: Sequence[Sequence[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``pack_coords``: :func:`pack_reference` as per-block
    ``(x, y, w, h)`` arrays."""
    rects = pack_reference(pair, sizes)
    return (
        np.array([r.x for r in rects]),
        np.array([r.y for r in rects]),
        np.array([r.width for r in rects]),
        np.array([r.height for r in rects]),
    )


def sum_like_reference(spans: np.ndarray) -> float:
    """Sequential left-to-right accumulation, matching a scalar
    ``total +=`` loop over nets bit for bit (numpy's pairwise summation
    does not)."""
    total = 0.0
    for span in spans.tolist():
        total += span
    return total


def incidence_hpwl_reference(circuit: Circuit, cx: np.ndarray, cy: np.ndarray) -> float:
    """Full-placement HPWL from dense per-block center arrays, vectorized
    over ``circuit.incidence`` with ``reduceat`` (the numpy scalar path
    the per-run evaluator replaced)."""
    inc = circuit.incidence
    if inc.num_nets == 0:
        return 0.0
    starts = inc.net_offsets[:-1]
    mx = cx[inc.net_members]
    my = cy[inc.net_members]
    spans = (
        np.maximum.reduceat(mx, starts) - np.minimum.reduceat(mx, starts)
    ) + (
        np.maximum.reduceat(my, starts) - np.minimum.reduceat(my, starts)
    )
    return sum_like_reference(spans)


def evaluate_coords_reference(
    circuit: Circuit,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Tuple[float, float, float, float]:
    """Reference for ``coords_evaluator``: ``(area, hpwl, dead_space,
    reward)`` of one placement given as dense numpy arrays."""
    minx = float(x.min())
    miny = float(y.min())
    maxx = float((x + w).max())
    maxy = float((y + h).max())
    area = (maxx - minx) * (maxy - miny)
    wirelength = incidence_hpwl_reference(circuit, x + w / 2.0, y + h / 2.0)
    ds = 1.0 - circuit.total_area / area if area > 0 else 0.0
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
    cost = alpha * (area / circuit.total_area - 1.0) + beta * (wirelength / hmin - 1.0)
    if target_aspect is not None:
        height = maxy - miny
        ratio = (maxx - minx) / height if height > 0 else 1.0
        cost += gamma * (target_aspect - ratio) ** 2
    return area, wirelength, ds, -cost


def swap_in_plus(pair: SequencePair, i: int, j: int) -> SequencePair:
    seq = list(pair.gamma_plus)
    seq[i], seq[j] = seq[j], seq[i]
    return SequencePair(tuple(seq), pair.gamma_minus, pair.shapes)


def swap_in_minus(pair: SequencePair, i: int, j: int) -> SequencePair:
    seq = list(pair.gamma_minus)
    seq[i], seq[j] = seq[j], seq[i]
    return SequencePair(pair.gamma_plus, tuple(seq), pair.shapes)


def swap_in_both(pair: SequencePair, i: int, j: int) -> SequencePair:
    return swap_in_minus(swap_in_plus(pair, i, j), i, j)


def change_shape(pair: SequencePair, block: int, shape: int) -> SequencePair:
    shapes = list(pair.shapes)
    shapes[block] = shape
    return SequencePair(pair.gamma_plus, pair.gamma_minus, tuple(shapes))


def random_neighbor_reference(
    pair: SequencePair, num_shapes: int, rng: np.random.Generator
) -> SequencePair:
    """Reference for ``random_neighbor``: draws the swap operands with
    ``rng.choice(n, size=2, replace=False)``."""
    n = pair.num_blocks
    move = int(rng.integers(0, 4))
    if n < 2:
        move = 3
    if move == 3:
        block = int(rng.integers(0, n))
        shape = int(rng.integers(0, num_shapes))
        return change_shape(pair, block, shape)
    i, j = rng.choice(n, size=2, replace=False)
    if move == 0:
        return swap_in_plus(pair, int(i), int(j))
    if move == 1:
        return swap_in_minus(pair, int(i), int(j))
    return swap_in_both(pair, int(i), int(j))


def apply_move_reference(pair: SequencePair, move: int, rng: np.random.Generator) -> SequencePair:
    n = pair.num_blocks
    if move == 3 or n < 2:
        return change_shape(pair, int(rng.integers(0, n)), int(rng.integers(0, NUM_SHAPES)))
    i, j = rng.choice(n, size=2, replace=False)
    if move == 0:
        return swap_in_plus(pair, int(i), int(j))
    if move == 1:
        return swap_in_minus(pair, int(i), int(j))
    return swap_in_both(pair, int(i), int(j))


def _final_result(circuit, method, pair, sizes, hmin, target_aspect, extra) -> FloorplanResult:
    """Pack and score the winning pair the way the baselines report it."""
    rects = pack_reference(pair, sizes)
    area, wirelength, ds, reward = evaluate_coords_reference(
        circuit, *pack_arrays_reference(pair, sizes),
        hpwl_min=hmin, target_aspect=target_aspect,
    )
    return FloorplanResult(
        circuit_name=circuit.name, method=method, rects=rects, area=area,
        hpwl=wirelength, dead_space=ds, reward=reward, runtime=0.0, extra=extra,
    )


def sa_reference(
    circuit: Circuit,
    config: SAConfig,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Reference for ``simulated_annealing``: every candidate packed and
    evaluated on numpy arrays, no memo, ``rng.choice`` swap draws."""
    rng = np.random.default_rng(config.seed)
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def cost_of(pair: SequencePair) -> float:
        coords = pack_arrays_reference(pair, sizes)
        _, _, _, reward = evaluate_coords_reference(
            circuit, *coords, hpwl_min=hmin, target_aspect=target_aspect
        )
        return -reward

    current = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
    current_cost = cost_of(current)
    best, best_cost = current, current_cost

    temperature = config.initial_temperature
    evaluations = 1
    while temperature > config.final_temperature:
        for _ in range(config.moves_per_temperature):
            candidate = random_neighbor_reference(current, NUM_SHAPES, rng)
            cand_cost = cost_of(candidate)
            evaluations += 1
            delta = cand_cost - current_cost
            if delta <= 0 or rng.random() < np.exp(-delta / temperature):
                current, current_cost = candidate, cand_cost
                if current_cost < best_cost:
                    best, best_cost = current, current_cost
        temperature *= config.cooling

    return _final_result(
        circuit, "SA", best, sizes, hmin, target_aspect,
        {"evaluations": evaluations, "final_temperature": temperature},
    )


def rl_sa_reference(
    circuit: Circuit,
    config: RLSAConfig,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Reference for ``rl_simulated_annealing``: the numpy bandit loop
    with per-candidate numpy evaluation and ``rng.choice`` swap draws."""
    rng = np.random.default_rng(config.seed)
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def cost_of(pair: SequencePair) -> float:
        coords = pack_arrays_reference(pair, sizes)
        _, _, _, reward = evaluate_coords_reference(
            circuit, *coords, hpwl_min=hmin, target_aspect=target_aspect
        )
        return -reward

    current = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
    current_cost = cost_of(current)
    best_cost, best_pair = current_cost, current

    preferences = np.zeros(4)
    move_counts = np.zeros(4, dtype=int)
    temperature = config.initial_temperature

    while temperature > config.final_temperature:
        for _ in range(config.moves_per_temperature):
            probs = np.exp(preferences - preferences.max())
            probs /= probs.sum()
            move = int(rng.choice(4, p=probs))
            move_counts[move] += 1
            candidate = apply_move_reference(current, move, rng)
            cand_cost = cost_of(candidate)
            delta = cand_cost - current_cost
            accepted = delta <= 0 or rng.random() < np.exp(-delta / temperature)
            gain = float(np.clip(-delta if accepted else 0.0, -1.0, 1.0))
            preferences[move] += config.bandit_lr * gain * (1.0 - probs[move])
            if accepted:
                current, current_cost = candidate, cand_cost
                if current_cost < best_cost:
                    best_cost, best_pair = current_cost, current
        temperature *= config.cooling

    return _final_result(
        circuit, "RL-SA [13]", best_pair, sizes, hmin, target_aspect,
        {"move_counts": move_counts.tolist()},
    )


def _order_crossover_reference(
    a: Tuple[int, ...], b: Tuple[int, ...], rng: np.random.Generator
) -> Tuple[int, ...]:
    n = len(a)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    child: List[Optional[int]] = [None] * n
    child[i:j + 1] = a[i:j + 1]
    used = set(child[i:j + 1])
    fill = [g for g in b if g not in used]
    k = 0
    for idx in range(n):
        if child[idx] is None:
            child[idx] = fill[k]
            k += 1
    return tuple(child)  # type: ignore[arg-type]


def ga_reference(
    circuit: Circuit,
    config: GAConfig,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Reference for ``genetic_algorithm``: ``rng.choice`` OX cut points
    and mutation draws, populations packed by :func:`pack_arrays_reference`
    and stacked."""
    rng = np.random.default_rng(config.seed)
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def score_all(pairs):
        return _score_population_reference(circuit, pairs, sizes, hmin, target_aspect).tolist()

    def crossover(pa: SequencePair, pb: SequencePair) -> SequencePair:
        gp = _order_crossover_reference(pa.gamma_plus, pb.gamma_plus, rng)
        gm = _order_crossover_reference(pa.gamma_minus, pb.gamma_minus, rng)
        shapes = tuple(
            pa.shapes[k] if rng.random() < 0.5 else pb.shapes[k] for k in range(len(pa.shapes))
        )
        return SequencePair(gp, gm, shapes)

    population = [
        SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
        for _ in range(config.population)
    ]
    scored = score_all(population)

    def tournament_pick() -> SequencePair:
        picks = rng.choice(len(population), size=config.tournament, replace=False)
        best_idx = max(picks, key=lambda k: scored[k])
        return population[best_idx]

    for _ in range(config.generations):
        ranked = sorted(range(len(population)), key=lambda k: -scored[k])
        next_pop = [population[k] for k in ranked[: config.elites]]
        while len(next_pop) < config.population:
            if rng.random() < config.crossover_rate:
                child = crossover(tournament_pick(), tournament_pick())
            else:
                child = tournament_pick()
            if rng.random() < config.mutation_rate:
                child = random_neighbor_reference(child, NUM_SHAPES, rng)
            next_pop.append(child)
        population = next_pop
        scored = score_all(population)

    best_idx = max(range(len(population)), key=lambda k: scored[k])
    return _final_result(
        circuit, "GA", population[best_idx], sizes, hmin, target_aspect,
        {"generations": config.generations, "population": config.population},
    )


def _score_population_reference(circuit, pairs, sizes, hmin, target_aspect) -> np.ndarray:
    """Rewards of ``pairs``, each packed by :func:`pack_arrays_reference`,
    stacked and scored in one population pass."""
    coords = [pack_arrays_reference(p, sizes) for p in pairs]
    _, _, _, rewards = evaluate_coords_population(
        circuit,
        np.stack([c[0] for c in coords]),
        np.stack([c[1] for c in coords]),
        np.stack([c[2] for c in coords]),
        np.stack([c[3] for c in coords]),
        hpwl_min=hmin,
        target_aspect=target_aspect,
    )
    return rewards


def decode_keys_reference(keys: np.ndarray, n: int) -> SequencePair:
    """Reference for ``decode_swarm``: one particle's random-key vector
    (3n,) -> SequencePair, a scalar ``np.clip`` per shape key."""
    gp = tuple(int(b) for b in np.argsort(keys[:n]))
    gm = tuple(int(b) for b in np.argsort(keys[n:2 * n]))
    raw = keys[2 * n:3 * n]
    shapes = tuple(
        int(np.clip(np.floor((s % 1.0) * NUM_SHAPES), 0, NUM_SHAPES - 1)) for s in np.abs(raw)
    )
    return SequencePair(gp, gm, shapes)


def pso_reference(
    circuit: Circuit,
    config: PSOConfig,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Reference for ``particle_swarm``: every particle decoded on its own
    by :func:`decode_keys_reference`."""
    rng = np.random.default_rng(config.seed)
    n = circuit.num_blocks
    dim = 3 * n
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def score_swarm(pos: np.ndarray):
        pairs = [decode_keys_reference(pos[p], n) for p in range(pos.shape[0])]
        return _score_population_reference(circuit, pairs, sizes, hmin, target_aspect), pairs

    positions = rng.uniform(0.0, 1.0, size=(config.particles, dim))
    velocities = rng.uniform(-0.1, 0.1, size=(config.particles, dim))
    personal_best = positions.copy()
    personal_score, pair_cache = score_swarm(positions)
    global_idx = int(np.argmax(personal_score))
    global_best = personal_best[global_idx].copy()
    global_score = personal_score[global_idx]
    global_pair = pair_cache[global_idx]

    for _ in range(config.iterations):
        r1 = rng.uniform(size=(config.particles, dim))
        r2 = rng.uniform(size=(config.particles, dim))
        velocities = (
            config.inertia * velocities
            + config.cognitive * r1 * (personal_best - positions)
            + config.social * r2 * (global_best[np.newaxis, :] - positions)
        )
        positions = positions + velocities
        rewards, pairs = score_swarm(positions)
        for p in range(config.particles):
            reward = rewards[p]
            if reward > personal_score[p]:
                personal_score[p] = reward
                personal_best[p] = positions[p].copy()
                if reward > global_score:
                    global_score = reward
                    global_best = positions[p].copy()
                    global_pair = pairs[p]

    return _final_result(
        circuit, "PSO", global_pair, sizes, hmin, target_aspect,
        {"iterations": config.iterations, "particles": config.particles},
    )


def _sample_permutation_reference(
    scores: np.ndarray, temperature: float, rng: np.random.Generator
) -> np.ndarray:
    """Gumbel / noisy-sort sample of a permutation (Plackett-Luce)."""
    gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=scores.shape)))
    return np.argsort(-(scores / temperature + gumbel))


def rl_sp_reference(
    circuit: Circuit,
    config: RLSPConfig,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Reference for ``rl_sequence_pair``: per-sample ``rng.uniform``
    permutation noise and one ``rng.choice(NUM_SHAPES, p=...)`` per block."""
    rng = np.random.default_rng(config.seed)
    n = circuit.num_blocks
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    plus_scores = np.zeros(n)
    minus_scores = np.zeros(n)
    shape_logits = np.zeros((n, NUM_SHAPES))

    baseline = 0.0
    best_reward = -np.inf
    best_pair: Optional[SequencePair] = None

    for step in range(config.iterations):
        grads_plus = np.zeros(n)
        grads_minus = np.zeros(n)
        grads_shape = np.zeros((n, NUM_SHAPES))
        samples = []
        pairs = []
        for k in range(config.batch):
            gp = _sample_permutation_reference(plus_scores, config.temperature, rng)
            gm = _sample_permutation_reference(minus_scores, config.temperature, rng)
            probs = np.exp(shape_logits - shape_logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            shapes = np.array([rng.choice(NUM_SHAPES, p=probs[b]) for b in range(n)])
            pair = SequencePair(
                tuple(int(b) for b in gp),
                tuple(int(b) for b in gm),
                tuple(int(s) for s in shapes),
            )
            pairs.append(pair)
            samples.append((gp, gm, shapes, probs))

        rewards = _score_population_reference(circuit, pairs, sizes, hmin, target_aspect)
        for k in range(config.batch):
            if rewards[k] > best_reward:
                best_reward = float(rewards[k])
                best_pair = pairs[k]

        advantage = rewards - baseline
        baseline = config.baseline_decay * baseline + (1 - config.baseline_decay) * rewards.mean()
        for k, (gp, gm, shapes, probs) in enumerate(samples):
            adv = advantage[k]
            rank_weight = np.linspace(1.0, -1.0, n)
            grads_plus[gp] += adv * rank_weight
            grads_minus[gm] += adv * rank_weight
            one_hot = np.zeros((n, NUM_SHAPES))
            one_hot[np.arange(n), shapes] = 1.0
            grads_shape += adv * (one_hot - probs)

        scale = config.learning_rate / config.batch
        plus_scores += scale * grads_plus
        minus_scores += scale * grads_minus
        shape_logits += scale * grads_shape

    assert best_pair is not None
    return _final_result(
        circuit, "RL [13]", best_pair, sizes, hmin, target_aspect,
        {"iterations": config.iterations, "batch": config.batch},
    )


def wire_mask_reference(
    state: FloorplanState, shape_index: int, hpwl_min: float
) -> np.ndarray:
    """Reference for ``wire_mask``: a per-net Python loop over
    :func:`state_centers`."""
    n = state.grid.n
    block = state.current_block
    variant = state.shape_sets[block][shape_index]
    cell = state.grid.cell
    cx = np.arange(n) * cell + variant.width / 2.0   # center x per column
    cy = np.arange(n) * cell + variant.height / 2.0  # center y per row

    centers = state_centers(state)
    increase = np.zeros((n, n))
    for net in state.circuit.nets:
        if block not in net.blocks:
            continue
        xs = [centers[b][0] for b in net.blocks if b in centers]
        ys = [centers[b][1] for b in net.blocks if b in centers]
        if not xs:
            continue
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        dx = np.maximum(lo_x - cx, 0.0) + np.maximum(cx - hi_x, 0.0)  # (n,)
        dy = np.maximum(lo_y - cy, 0.0) + np.maximum(cy - hi_y, 0.0)  # (n,)
        increase += dy[:, np.newaxis] + dx[np.newaxis, :]

    increase /= max(hpwl_min, HPWL_MIN_FLOOR)
    peak = increase.max()
    if peak > 1.0:
        increase = increase / peak
    valid = placement_mask(state, shape_index)
    increase[~valid] = 1.0
    return increase


def rgcn_layer_reference(layer, h: Tensor, adj_stack: np.ndarray) -> Tensor:
    """Reference for ``RGCNLayer.forward``: one graph's ``(N, d)`` features
    through Eq. 2 with the layer's own parameters, skipping relations
    without edges."""
    out = h @ layer.w_self + layer.bias
    for r in range(layer.num_relations):
        adj = adj_stack[r]
        if not adj.any():
            continue
        out = out + Tensor(adj) @ h @ layer.relation_weight(r)
    return out.relu() if layer.activation else out


def rgcn_encode_reference(encoder, graph) -> Tuple[Tensor, Tensor]:
    """Reference for ``RGCNEncoder.encode_batch``: one graph at a time,
    returning ``(node_embeddings (N, d), graph_embedding (d,))`` tensors
    built from the encoder's parameters (so a backward reaches them)."""
    dtype = encoder.dtype
    adj_stack = graph.adjacency_stack(normalize=True).astype(dtype, copy=False)
    h = Tensor(graph.features.astype(dtype, copy=False))
    for i in range(encoder.num_layers):
        h = rgcn_layer_reference(getattr(encoder, f"layer{i}"), h, adj_stack)
    return h, h.mean(axis=0)


def reward_forward_reference(model, graph) -> Tensor:
    """Reference for ``RewardModel.forward``: the MLP head over
    :func:`rgcn_encode_reference`'s graph embedding."""
    _, graph_embedding = rgcn_encode_reference(model.encoder, graph)
    return model.head(graph_embedding.reshape(1, -1)).reshape(())


def encode_reference(ppo, observation) -> Tuple[np.ndarray, np.ndarray]:
    """Reference for ``MaskedPPO._encode_batch``: one observation's frozen
    R-GCN features ``(node_emb, graph_emb)`` through the per-graph
    :func:`rgcn_encode_reference`, sharing the trainer's embedding cache."""
    key = ppo._cache_key(observation.graph)
    entry = ppo._cache_get(key)
    if entry is None:
        with no_grad():
            nodes, graph_emb = rgcn_encode_reference(ppo.encoder, observation.graph)
        entry = (nodes.numpy().copy(), graph_emb.numpy().copy())
        ppo._cache_put(key, entry)
    nodes, graph_emb = entry
    node_index = observation.block_index
    node_emb = nodes[node_index] if 0 <= node_index < nodes.shape[0] else np.zeros_like(graph_emb)
    return node_emb, graph_emb


def blocks_segment(ob: Obstacle, seg: Segment, eps: float = 1e-9) -> bool:
    """Whether the segment passes through the obstacle interior."""
    s = seg.canonical()
    if s.is_horizontal:
        y = s.y1
        if not (ob.y1 + eps < y < ob.y2 - eps):
            return False
        return s.x1 < ob.x2 - eps and s.x2 > ob.x1 + eps
    x = s.x1
    if not (ob.x1 + eps < x < ob.x2 - eps):
        return False
    return s.y1 < ob.y2 - eps and s.y2 > ob.y1 + eps


def escape_graph_reference(
    terminals: Sequence[Point], obstacles: Sequence[Obstacle]
) -> nx.Graph:
    """Reference for ``build_escape_graph``: tests every Hanan-grid node
    and edge against every obstacle, one Python call each."""
    xs, ys = escape_coordinates(terminals, obstacles)
    graph = nx.Graph()
    for x in xs:
        for y in ys:
            if any(ob.contains_strict(x, y) for ob in obstacles):
                continue
            graph.add_node((x, y))
    # Horizontal edges.
    for y in ys:
        for x1, x2 in zip(xs, xs[1:]):
            if (x1, y) in graph and (x2, y) in graph:
                seg = Segment(x1, y, x2, y)
                if not any(blocks_segment(ob, seg) for ob in obstacles):
                    graph.add_edge((x1, y), (x2, y), weight=x2 - x1)
    # Vertical edges.
    for x in xs:
        for y1, y2 in zip(ys, ys[1:]):
            if (x, y1) in graph and (x, y2) in graph:
                seg = Segment(x, y1, x, y2)
                if not any(blocks_segment(ob, seg) for ob in obstacles):
                    graph.add_edge((x, y1), (x, y2), weight=y2 - y1)
    return graph


def oarsmt_reference(
    graph: nx.Graph, terminals: Sequence[Point]
) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Reference for ``steiner_tree_edges``: networkx's Mehlhorn Steiner
    tree over the terminals' component of the escape graph, as an edge
    list of ``(x, y)`` pairs in networkx's order.  The replay follows
    networkx 3.6.1, the version the ``test`` extra pins; another release
    may break ties differently.

    Raises ``RuntimeError`` when obstacles disconnect the terminals.
    """
    nodes = [(t.x, t.y) for t in terminals]
    if not all(nx.has_path(graph, nodes[0], n) for n in nodes[1:]):
        raise RuntimeError("terminals are disconnected by obstacles")
    component = nx.node_connected_component(graph, nodes[0])
    graph = graph.subgraph(component)
    tree = nx.algorithms.approximation.steiner_tree(graph, nodes, weight="weight")
    return list(tree.edges)


def oarsmt_calls(name: str) -> List[Tuple[List[Point], List[Obstacle]]]:
    """``(terminals, obstacles)`` of every OARSMT call (fallback attempts
    included) that ``route_circuit`` makes on library circuit ``name``
    under the default floorplanner."""
    calls = []
    route = global_router.oarsmt

    def spy(net, terminals, obstacles):
        calls.append((list(terminals), list(obstacles)))
        return route(net, terminals, obstacles)

    circuit = get_circuit(name)
    rects = default_floorplanner(circuit).rects
    global_router.oarsmt = spy
    try:
        route_circuit(circuit, rects)
    finally:
        global_router.oarsmt = route
    return calls


_CONNECTED_PAIRS = {frozenset(pair) for pair in CONNECTIVITY}


def layers_connect_reference(a: Layer, b: Layer) -> bool:
    """Whether overlapping shapes on ``a`` and ``b`` connect: the same mask
    layer, or a :data:`CONNECTIVITY` pair."""
    if a is b:
        return a is not Layer.BOUNDARY
    return frozenset((a, b)) in _CONNECTED_PAIRS


def extract_components_reference(layout: Layout) -> List[Set[int]]:
    """Reference for ``extract_components``: networkx's connected
    components of the shape-overlap graph, nodes added by shape index."""
    shapes = [(i, s) for i, s in enumerate(layout.shapes) if s.net is not None]
    graph = nx.Graph()
    for i, _ in shapes:
        graph.add_node(i)
    for a_pos in range(len(shapes)):
        i, a = shapes[a_pos]
        for b_pos in range(a_pos + 1, len(shapes)):
            j, b = shapes[b_pos]
            if layers_connect_reference(a.layer, b.layer) and a.overlaps(b):
                graph.add_edge(i, j)
    return [set(c) for c in nx.connected_components(graph)]


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Strided view of all kh x kw patches.
    sN, sC, sH, sW = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sN, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns (N, C*kh*kw, L) back into (N, C, H, W), summing overlaps."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_reference(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, kh, kw)
    bias : Tensor of shape (C_out,)
    """
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.matmul(w_mat, cols)  # (C_out, F) @ (N, F, L) -> (N, C_out, L)
    out += bias.data.reshape(1, c_out, 1)
    out_data = out.reshape(n, c_out, out_h, out_w)

    def backward(grad, send):
        g = grad.reshape(n, c_out, -1)  # (N, C_out, L)
        send(bias, g.sum(axis=(0, 2)))
        gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # (C_out, F)
        send(weight, gw.reshape(weight.shape))
        gcols = np.matmul(w_mat.T, g)  # (F, C_out) @ (N, C_out, L) -> (N, F, L)
        send(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding))

    return Tensor._make(out_data, (x, weight, bias), backward)


def conv_transpose2d_reference(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """Transposed 2D convolution (a.k.a. deconvolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, kh, kw)  (PyTorch layout)
    bias : Tensor of shape (C_out,)

    Output spatial size is ``(H - 1) * stride - 2 * padding + k``.
    """
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw

    # Forward of convT == backward-input of a conv with the same geometry.
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    x_flat = x.data.reshape(n, c_in, h * w)
    cols = np.matmul(w_mat.T, x_flat)  # (F, C_in) @ (N, C_in, L) -> (N, F, L)
    out_data = _col2im(cols, (n, c_out, out_h, out_w), kh, kw, stride, padding)
    out_data += bias.data.reshape(1, c_out, 1, 1)

    def backward(grad, send):
        send(bias, grad.sum(axis=(0, 2, 3)))
        gcols, gh, gw_ = _im2col(grad, kh, kw, stride, padding)
        # gcols: (N, C_out*kh*kw, H*W) with gh == h, gw_ == w
        send(x, np.matmul(w_mat, gcols).reshape(x.data.shape))
        gweight = np.matmul(x_flat, gcols.transpose(0, 2, 1)).sum(axis=0)
        send(weight, gweight.reshape(weight.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def linear_reference(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Reference for ``linear``: the composite ``x @ W.T + b`` graph."""
    return x @ weight.T + bias


# The batch-folded kernels as they ran before their BLAS operand order and
# the strided sub-pixel interleave: the byte-for-byte references for
# ``repro.nn.functional.linear``, ``_weight_grad`` and ``_fold_product``.


def linear_primitive_reference(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """The ``linear`` primitive with its forward as ``x @ W.T``."""
    x_mat = x.data.reshape(-1, x.shape[-1])
    out = x_mat @ weight.data.T
    out += bias.data
    out_data = out.reshape(x.shape[:-1] + (weight.shape[0],))

    def backward(grad, send):
        g = grad.reshape(-1, grad.shape[-1])
        send(bias, g.sum(axis=0))
        send(weight, (x_mat.T @ g).T)
        if x.requires_grad:
            send(x, (g @ weight.data).reshape(x.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def weight_grad_reference(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``sum_n a_n @ b_n.T``: one ``a_n @ b_n.T`` GEMM per sample, summed
    over the samples in order."""
    per_sample = np.matmul(
        a.reshape(a.shape[0], n, -1).transpose(1, 0, 2),
        b.reshape(b.shape[0], n, -1).transpose(1, 2, 0),
    )
    return per_sample.sum(axis=0)


def fold_product_reference(
    w_t: np.ndarray,
    src: np.ndarray,
    shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """col2im of ``w_t @ src`` with the phases interleaved by one 6-D
    transpose."""
    c, n, h, w = shape
    s = stride
    rows, cols = -(-(h + 2 * padding) // s), -(-(w + 2 * padding) // s)
    span = n * rows * cols
    wide = F._pad_channel_major(src, 0, rows, cols).reshape(src.shape[1], span)
    taps = (w_t @ wide).reshape(c, kh, kw, span)
    phases = np.zeros((s, s, c, span + ((kh - 1) // s + 1) * cols), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            start = (i // s) * cols + j // s
            phases[i % s, j % s, :, start:start + span] += taps[:, i, j]
    padded = phases[..., :span].reshape(s, s, c, n, rows, cols).transpose(2, 3, 4, 0, 5, 1)
    return padded.reshape(c, n, rows * s, cols * s)[:, :, padding:padding + h, padding:padding + w]


def policy_inputs(rows: int, dtype, seed: int = 0) -> Tuple[Tensor, Tensor, Tensor]:
    """Random binary masks and normal embeddings for ``rows`` policy rows."""
    rng = np.random.default_rng(seed)
    masks = (rng.random((rows, 6, 32, 32)) < 0.5).astype(dtype)
    node_emb = rng.normal(size=(rows, 32)).astype(dtype)
    graph_emb = rng.normal(size=(rows, 32)).astype(dtype)
    return Tensor(masks), Tensor(node_emb), Tensor(graph_emb)


def nn_kernel_calls(rows: int, dtype) -> Dict[str, List[tuple]]:
    """The arguments of every ``_weight_grad`` and ``_fold_product`` call
    in one forward and backward of ``ActorCritic`` at ``rows`` rows: every
    conv and deconv geometry of the policy, with its operands' layouts."""
    calls: Dict[str, List[tuple]] = {"_weight_grad": [], "_fold_product": []}
    originals = {name: getattr(F, name) for name in calls}

    def spy(name):
        def record(*args):
            calls[name].append(args)
            return originals[name](*args)
        return record

    with dtype_scope(dtype):
        model = ActorCritic(rng=np.random.default_rng(0))
    for name in calls:
        setattr(F, name, spy(name))
    try:
        logits, values = model(*policy_inputs(rows, dtype))
        (logits.sum() + values.sum()).backward()
    finally:
        for name, fn in originals.items():
            setattr(F, name, fn)
    return calls
