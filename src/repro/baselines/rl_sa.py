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
cumulative sum (:func:`~repro.baselines.seqpair.choice_cdf`).  The
bandit keeps ``probs`` and that cdf as Python lists and recomputes them,
with the numpy expressions on the 4-vector, only when a preference
moves: a rejected or zero-gain move leaves both bit-unchanged.  Results
are bit-identical to the straightforward numpy loop, final bit-generator
state included (golden-tested against it).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

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


def _move_distribution(preferences: List[float]) -> Tuple[List[float], List[float]]:
    """The bandit's softmax over move types and its ``choice`` cdf, as
    lists; numpy's expressions on the 4-vector, so every float is the
    one the numpy loop computes."""
    prefs = np.array(preferences)
    probs = np.exp(prefs - prefs.max())
    probs /= probs.sum()
    return probs.tolist(), choice_cdf(probs).tolist()


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

    preferences = [0.0] * NUM_MOVE_TYPES
    probs, cdf = _move_distribution(preferences)
    move_counts = [0] * NUM_MOVE_TYPES
    temperature = config.initial_temperature

    with DrawReplay(rng) as draws:
        while temperature > config.final_temperature:
            for _ in range(config.moves_per_temperature):
                # rng.choice(NUM_MOVE_TYPES, p=probs), replayed: the count
                # of cdf entries <= u (the cdf is non-decreasing).
                move = bisect_right(cdf, draws.random())
                move_counts[move] += 1
                candidate = apply_move(current, move, NUM_SHAPES, draws)
                cand_cost = cost_of(candidate)
                delta = cand_cost - current_cost
                accepted = delta <= 0 or draws.random() < np.exp(-delta / temperature)
                # Bandit update: reward = realized improvement, clipped to
                # [-1, 1] (np.clip's min-of-max, on a Python float).
                gain = min(max(-delta if accepted else 0.0, -1.0), 1.0)
                step = config.bandit_lr * gain * (1.0 - probs[move])
                if step:
                    # A zero step leaves the preference bit-unchanged (it is
                    # never -0.0), and with it the distribution.
                    preferences[move] += step
                    probs, cdf = _move_distribution(preferences)
                if accepted:
                    current, current_cost = candidate, cand_cost
                    if current_cost < best_cost:
                        best_cost, best_pair = current_cost, current
            temperature *= config.cooling

    evaluations = sum(move_counts) + 1
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
            "move_counts": move_counts,
            "cost_cache_hits": evaluations - len(memo),
        },
    ), started=start, evaluations=evaluations, name="rl_sa")
