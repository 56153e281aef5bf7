"""Simulated annealing on the sequence-pair representation.

The SA baseline of paper Table I (also the engine inside ALIGN, ref [28]).
Geometric cooling with the standard Metropolis criterion over the four SP
moves (swap in gamma+, swap in gamma-, swap in both, change shape).

The per-move path is plain Python (see :mod:`repro.baselines.seqpair`):
one :func:`~repro.baselines.seqpair.pair_evaluator` built per run, which
scores inside its packing sweep, a per-run cost memo that skips revisited
candidates, and every draw after the initial pair taken through a
:class:`~repro.baselines.seqpair.DrawReplay` of the run's generator
(numpy's bounded integers and uniforms replayed from raw PCG64 words,
with ``rng.choice(n, 2, replace=False)`` replayed on top for the swap
operands).  Every RNG draw and float operation matches the
straightforward numpy loop, so results, and the generator's final state,
are bit-identical to it (golden-tested against that loop).
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
    memoized_cost,
    pack,
    pair_evaluator,
    random_neighbor,
)


@dataclass
class SAConfig:
    """Annealing schedule parameters."""

    initial_temperature: float = 2.0
    final_temperature: float = 0.01
    cooling: float = 0.95
    moves_per_temperature: int = 40
    spacing: float = DEFAULT_SPACING
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        require_cooling_schedule(self)


def simulated_annealing(
    circuit: Circuit,
    config: Optional[SAConfig] = None,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Floorplan ``circuit`` with SA; returns the best placement found."""
    config = config or SAConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
    evaluate = pair_evaluator(circuit, sizes, hmin, target_aspect)
    cost_of, memo = memoized_cost(evaluate)

    current = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
    current_cost = cost_of(current)
    best, best_cost = current, current_cost

    temperature = config.initial_temperature
    evaluations = 1
    with DrawReplay(rng) as draws:
        while temperature > config.final_temperature:
            for _ in range(config.moves_per_temperature):
                candidate = random_neighbor(current, NUM_SHAPES, draws)
                cand_cost = cost_of(candidate)
                evaluations += 1
                delta = cand_cost - current_cost
                if delta <= 0 or draws.random() < np.exp(-delta / temperature):
                    current, current_cost = candidate, cand_cost
                    if current_cost < best_cost:
                        best, best_cost = current, current_cost
            temperature *= config.cooling

    area, wirelength, ds, reward = evaluate(best)
    return publish_result(FloorplanResult(
        circuit_name=circuit.name,
        method="SA",
        rects=pack(best, sizes),
        area=area,
        hpwl=wirelength,
        dead_space=ds,
        reward=reward,
        runtime=time.perf_counter() - start,
        extra={
            "evaluations": evaluations,
            "final_temperature": temperature,
            "cost_cache_hits": evaluations - len(memo),
        },
    ), started=start, evaluations=evaluations)
