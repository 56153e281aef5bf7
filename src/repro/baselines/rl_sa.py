"""RL-guided simulated annealing on sequence pairs (paper ref [13] "RL-SA").

The hybrid from the authors' prior work: an annealer whose *move-type
selection* is learned online.  We model the learner as an exponentially
weighted bandit over the four SP move types, rewarded by the cost
improvement each move realizes — the annealer quickly learns, e.g., that
shape changes pay off early while in-both swaps matter late.  Runtime
stays SA-like (Table I shows ~1-2 s), unlike the from-scratch RL baseline.

Candidates go through the same per-run machinery as :mod:`.sa`: one
:func:`~repro.baselines.seqpair.pair_evaluator`, a per-run cost memo,
:func:`~repro.baselines.seqpair.apply_move` with its exact
``rng.choice(n, 2, replace=False)`` replay, and every draw after the
initial pair taken through a :class:`~repro.baselines.seqpair.DrawReplay`
of the run's generator.  The move type's ``rng.choice(4, p=probs)`` is
replayed too: one ``random()`` looked up in choice's normalised
cumulative sum (:func:`~repro.baselines.seqpair.choice_cdf`).  Results
are bit-identical to the straightforward numpy loop, final bit-generator
state included (golden-tested against it).
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
    inflated_shapes,
    publish_result,
    require_cooling_schedule,
    require_field_types,
)
from .seqpair import (
    DrawReplay,
    SequencePair,
    apply_move,
    choice_cdf,
    memoized_cost,
    pack,
    pair_evaluator,
)

NUM_MOVE_TYPES = 4


@dataclass
class RLSAConfig:
    initial_temperature: float = 2.0
    final_temperature: float = 0.01
    cooling: float = 0.95
    moves_per_temperature: int = 40
    bandit_lr: float = 0.15
    spacing: float = DEFAULT_SPACING
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        require_cooling_schedule(self)


def rl_simulated_annealing(
    circuit: Circuit,
    config: Optional[RLSAConfig] = None,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """SA with bandit-learned move selection (RL-SA of ref [13])."""
    config = config or RLSAConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
    evaluate = pair_evaluator(circuit, sizes, hmin, target_aspect)
    cost_of, memo = memoized_cost(evaluate)

    current = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
    current_cost = cost_of(current)
    best_cost, best_pair = current_cost, current

    preferences = np.zeros(NUM_MOVE_TYPES)
    move_counts = np.zeros(NUM_MOVE_TYPES, dtype=int)
    temperature = config.initial_temperature

    with DrawReplay(rng) as draws:
        while temperature > config.final_temperature:
            for _ in range(config.moves_per_temperature):
                probs = np.exp(preferences - preferences.max())
                probs /= probs.sum()
                # rng.choice(NUM_MOVE_TYPES, p=probs), replayed.
                move = int(choice_cdf(probs).searchsorted(draws.random(), side="right"))
                move_counts[move] += 1
                candidate = apply_move(current, move, NUM_SHAPES, draws)
                cand_cost = cost_of(candidate)
                delta = cand_cost - current_cost
                accepted = delta <= 0 or draws.random() < np.exp(-delta / temperature)
                # Bandit update: reward = realized improvement, clipped to
                # [-1, 1] (np.clip's min-of-max, on a Python float).
                gain = min(max(-delta if accepted else 0.0, -1.0), 1.0)
                preferences[move] += config.bandit_lr * gain * (1.0 - probs[move])
                if accepted:
                    current, current_cost = candidate, cand_cost
                    if current_cost < best_cost:
                        best_cost, best_pair = current_cost, current
            temperature *= config.cooling

    evaluations = int(move_counts.sum()) + 1
    area, wirelength, ds, reward = evaluate(best_pair)
    return publish_result(FloorplanResult(
        circuit_name=circuit.name,
        method="RL-SA [13]",
        rects=pack(best_pair, sizes),
        area=area,
        hpwl=wirelength,
        dead_space=ds,
        reward=reward,
        runtime=time.perf_counter() - start,
        extra={
            "move_counts": move_counts.tolist(),
            "cost_cache_hits": evaluations - len(memo),
        },
    ), started=start, evaluations=evaluations, name="rl_sa")
