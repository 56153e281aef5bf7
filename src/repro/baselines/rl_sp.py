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

Each iteration draws all its uniforms in one ``rng.random((batch, 3, n))``
call and replays the per-sample numpy draws from them: the Gumbel noise
of ``rng.uniform(1e-12, 1.0, n)`` for each permutation, and
``rng.choice(NUM_SHAPES, p=probs[b])`` per block as a comparison against
the shape distribution's normalised cumulative sum, computed once per
iteration.  Results and the final bit-generator state are bit-identical
to the per-draw loop (``rl_sp_reference`` in the tests' oracles).
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
    require_budgets,
    require_field_types,
)
from .seqpair import SequencePair, choice_cdf, pack, pack_population


@dataclass
class RLSPConfig:
    iterations: int = 120
    batch: int = 8
    learning_rate: float = 0.2
    temperature: float = 1.0
    baseline_decay: float = 0.9
    spacing: float = DEFAULT_SPACING
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        require_budgets(self, "iterations", "batch")


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

    rank_weight = np.linspace(1.0, -1.0, n)
    blocks = np.arange(n)
    for step in range(config.iterations):
        grads_plus = np.zeros(n)
        grads_minus = np.zeros(n)
        grads_shape = np.zeros((n, NUM_SHAPES))
        probs = np.exp(shape_logits - shape_logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = choice_cdf(probs)
        # One draw for the iteration, in the per-sample order: n uniforms
        # for gamma+, n for gamma-, n for the shapes.
        u = rng.random((config.batch, 3, n))
        noise = 1e-12 + (1.0 - 1e-12) * u[:, :2]
        batch_shapes = (cdf <= u[:, 2, :, np.newaxis]).sum(axis=2)
        plus_keys = plus_scores / config.temperature
        minus_keys = minus_scores / config.temperature
        samples = []
        pairs = []
        for k in range(config.batch):
            # Gumbel / noisy-sort sample of each permutation (Plackett-Luce).
            # np.log runs on one sample's length-n row, the array shape
            # the per-sample draw had, so its results stay bit-identical.
            gp = np.argsort(-(plus_keys - np.log(-np.log(noise[k, 0]))))
            gm = np.argsort(-(minus_keys - np.log(-np.log(noise[k, 1]))))
            shapes = batch_shapes[k]
            pairs.append(
                SequencePair(tuple(gp.tolist()), tuple(gm.tolist()), tuple(shapes.tolist()))
            )
            samples.append((gp, gm, shapes))

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
        for k, (gp, gm, shapes) in enumerate(samples):
            adv = advantage[k]
            # Score-function gradient for the noisy-sort policy: push the
            # scores of early-ranked blocks up when the outcome beat the
            # baseline (rank-weighted surrogate).
            grads_plus[gp] += adv * rank_weight
            grads_minus[gm] += adv * rank_weight
            one_hot = np.zeros((n, NUM_SHAPES))
            one_hot[blocks, shapes] = 1.0
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
