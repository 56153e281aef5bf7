"""Particle swarm optimization on a random-key encoding (Table I "PSO").

Permutations are not a natural PSO domain, so we use the standard
random-key trick: each particle is a continuous vector of ``2n`` sort keys
(decoded to the two sequence-pair permutations via argsort) plus ``n``
shape scores (decoded by rounding into the shape range).  Velocity /
position updates are the canonical inertia + cognitive + social rule.

:func:`decode_swarm` decodes the whole swarm with one row-wise argsort
per permutation and one vectorised shape binning, bit-identical to the
per-particle scalar decode (``decode_keys_reference`` in the tests'
oracles, golden-tested with the whole run against ``pso_reference``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuits.netlist import Circuit
from ..config import NUM_SHAPES
from ..floorplan.metrics import hpwl_lower_bound
from .common import (
    DEFAULT_SPACING,
    FloorplanResult,
    evaluate_coords_population,
    evaluate_placement,
    inflated_shapes,
    publish_result,
    require_budgets,
    require_field_types,
)
from .seqpair import SequencePair, pack, pack_population


@dataclass
class PSOConfig:
    particles: int = 20
    iterations: int = 40
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    spacing: float = DEFAULT_SPACING
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        require_budgets(self, "particles")


def decode_swarm(positions: np.ndarray, n: int) -> List[SequencePair]:
    """Random-key rows ``(P, 3n)`` -> one SequencePair per particle.

    Each row's first and second ``n`` keys argsort into gamma+ and gamma-;
    the last ``n`` give shapes as ``|key| mod 1`` binned into the shape
    range.  One numpy pass per part for the whole swarm.
    """
    plus = np.argsort(positions[:, :n], axis=1).tolist()
    minus = np.argsort(positions[:, n:2 * n], axis=1).tolist()
    shapes = np.clip(
        np.floor((np.abs(positions[:, 2 * n:3 * n]) % 1.0) * NUM_SHAPES), 0, NUM_SHAPES - 1
    ).astype(int).tolist()
    return [SequencePair(tuple(gp), tuple(gm), tuple(s)) for gp, gm, s in zip(plus, minus, shapes)]


def particle_swarm(
    circuit: Circuit,
    config: Optional[PSOConfig] = None,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Floorplan ``circuit`` with PSO; returns the best placement found."""
    config = config or PSOConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    n = circuit.num_blocks
    dim = 3 * n
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def score_swarm(pos: np.ndarray):
        """Decode the swarm, pack each particle to coordinate arrays,
        then batch-evaluate the swarm in one numpy pass."""
        pairs = decode_swarm(pos, n)
        _, _, _, rewards = evaluate_coords_population(
            circuit, *pack_population(pairs, sizes),
            hpwl_min=hmin, target_aspect=target_aspect,
        )
        return rewards, pairs

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

    global_rects = pack(global_pair, sizes)
    area, wirelength, ds, reward = evaluate_placement(
        circuit, global_rects, hpwl_min=hmin, target_aspect=target_aspect
    )
    return publish_result(FloorplanResult(
        circuit_name=circuit.name,
        method="PSO",
        rects=global_rects,
        area=area,
        hpwl=wirelength,
        dead_space=ds,
        reward=reward,
        runtime=time.perf_counter() - start,
        extra={"iterations": config.iterations, "particles": config.particles},
    ), started=start, evaluations=(config.iterations + 1) * config.particles)
