"""Instance-wise RL on the sequence-pair model (paper ref [13] "RL").

The authors' prior work trains an RL agent per problem instance over the
SP representation.  We implement it as Plackett-Luce policy-gradient:
learnable preference scores define distributions over the two permutations
(sampled by noisy-sort) and categorical shape choices; REINFORCE with a
moving-average baseline updates the scores toward high-reward packings.

This baseline reproduces the prior method's profile in Table I: it reaches
good floorplans but pays a long per-instance runtime (it learns from
scratch every time), which is exactly the gap the paper's transferable
R-GCN + RL agent closes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

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
)
from .seqpair import SequencePair, pack, pack_population


@dataclass
class RLSPConfig:
    iterations: int = 120
    batch: int = 8
    learning_rate: float = 0.2
    temperature: float = 1.0
    baseline_decay: float = 0.9
    spacing: float = DEFAULT_SPACING
    seed: int = 0


def _sample_permutation(scores: np.ndarray, temperature: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a permutation via the Gumbel / noisy-sort trick (Plackett-Luce)."""
    gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=scores.shape)))
    return np.argsort(-(scores / temperature + gumbel))


def rl_sequence_pair(
    circuit: Circuit,
    config: Optional[RLSPConfig] = None,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Per-instance policy-gradient floorplanning on the SP model."""
    config = config or RLSPConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    n = circuit.num_blocks
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    # Policy parameters: permutation preference scores + shape logits.
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
            gp = _sample_permutation(plus_scores, config.temperature, rng)
            gm = _sample_permutation(minus_scores, config.temperature, rng)
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

        # One batched evaluation per iteration instead of `batch` scalar
        # ones, straight from the packed coordinate arrays.
        _, _, _, rewards = evaluate_coords_population(
            circuit, *pack_population(pairs, sizes),
            hpwl_min=hmin, target_aspect=target_aspect,
        )
        for k in range(config.batch):
            if rewards[k] > best_reward:
                best_reward = float(rewards[k])
                best_pair = pairs[k]

        advantage = rewards - baseline
        baseline = config.baseline_decay * baseline + (1 - config.baseline_decay) * rewards.mean()
        for k, (gp, gm, shapes, probs) in enumerate(samples):
            adv = advantage[k]
            # Score-function gradient for the noisy-sort policy: push the
            # scores of early-ranked blocks up when the outcome beat the
            # baseline (rank-weighted surrogate).
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
    best_rects = pack(best_pair, sizes)
    area, wirelength, ds, reward = evaluate_placement(
        circuit, best_rects, hpwl_min=hmin, target_aspect=target_aspect
    )
    return publish_result(FloorplanResult(
        circuit_name=circuit.name,
        method="RL [13]",
        rects=best_rects,
        area=area,
        hpwl=wirelength,
        dead_space=ds,
        reward=reward,
        runtime=time.perf_counter() - start,
        extra={"iterations": config.iterations, "batch": config.batch},
    ), started=start, evaluations=config.iterations * config.batch, name="rl_sp")
