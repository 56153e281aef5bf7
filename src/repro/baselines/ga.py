"""Genetic algorithm on the sequence-pair representation (Table I "GA").

Order-crossover (OX) on both permutations, uniform crossover on shape
genes, swap/shape mutations, tournament selection with elitism.

Every draw after the initial population goes through a
:class:`~repro.baselines.seqpair.DrawReplay` of the run's generator: the
crossover and mutation coin flips, the per-gene ``random()``, the
tournament's ``rng.choice(population, tournament, replace=False)`` and
the OX cut points (both through :func:`~repro.baselines.seqpair.choose`,
its draw-for-draw replay) and the mutation moves (the annealers'
:func:`~repro.baselines.seqpair.apply_move`).  OX children of two
permutations are permutations, so they skip the constructor's re-check.
Individuals are scored through the annealers' per-run
:func:`~repro.baselines.seqpair.memoized_cost` over
:func:`~repro.baselines.seqpair.pair_evaluator`, so elites and unchanged
copies are packed once per run, not once per generation.  Results are
bit-identical to the per-scalar numpy loop, final bit-generator state
included (golden-tested against it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuits.netlist import Circuit
from ..config import NUM_SHAPES
from ..floorplan.metrics import hpwl_lower_bound
from .common import (
    DEFAULT_SPACING,
    FloorplanResult,
    inflated_shapes,
    publish_result,
    require_budgets,
    require_field_types,
)
from .seqpair import (
    DrawReplay,
    Draws,
    SequencePair,
    choose,
    memoized_cost,
    pack,
    pair_evaluator,
    random_neighbor,
)


@dataclass
class GAConfig:
    population: int = 24
    generations: int = 30
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elites: int = 2
    spacing: float = DEFAULT_SPACING
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        require_budgets(self, "population", "tournament")
        # Tournament picks are drawn without replacement.
        if self.tournament > self.population:
            raise ValueError(
                f"GAConfig.tournament ({self.tournament}) must not exceed "
                f"population ({self.population})"
            )
        # Above this numpy's choice() stops using the Floyd sampler that
        # seqpair.choose replays, for large tournaments.
        if self.population > 10_000:
            raise ValueError(
                f"GAConfig.population must be <= 10_000, got {self.population}"
            )


def _order_crossover(a: Tuple[int, ...], b: Tuple[int, ...], draws: Draws) -> Tuple[int, ...]:
    """Classic OX: copy a slice from parent a, fill the rest in b's order."""
    i, j = sorted(choose(len(a), 2, draws))
    middle = a[i:j + 1]
    used = set(middle)
    fill = tuple(g for g in b if g not in used)
    return fill[:i] + middle + fill[i:]


def _crossover(pa: SequencePair, pb: SequencePair, draws: Draws) -> SequencePair:
    gp = _order_crossover(pa.gamma_plus, pb.gamma_plus, draws)
    gm = _order_crossover(pa.gamma_minus, pb.gamma_minus, draws)
    shapes = tuple(
        sa if draws.random() < 0.5 else sb for sa, sb in zip(pa.shapes, pb.shapes)
    )
    # OX of two permutations is a permutation.
    return SequencePair._trusted(gp, gm, shapes)


def genetic_algorithm(
    circuit: Circuit,
    config: Optional[GAConfig] = None,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> FloorplanResult:
    """Floorplan ``circuit`` with a GA; returns the best placement found."""
    config = config or GAConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    sizes = inflated_shapes(circuit, config.spacing)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
    evaluate = pair_evaluator(circuit, sizes, hmin, target_aspect)
    cost_of, _ = memoized_cost(evaluate)

    population = [
        SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
        for _ in range(config.population)
    ]
    costs = list(map(cost_of, population))

    with DrawReplay(rng) as draws:

        def tournament_pick() -> SequencePair:
            picks = choose(len(population), config.tournament, draws)
            return population[min(picks, key=costs.__getitem__)]

        for _ in range(config.generations):
            ranked = sorted(range(len(population)), key=costs.__getitem__)
            next_pop = [population[k] for k in ranked[: config.elites]]
            while len(next_pop) < config.population:
                if draws.random() < config.crossover_rate:
                    child = _crossover(tournament_pick(), tournament_pick(), draws)
                else:
                    child = tournament_pick()
                if draws.random() < config.mutation_rate:
                    child = random_neighbor(child, NUM_SHAPES, draws)
                next_pop.append(child)
            population = next_pop
            costs = list(map(cost_of, population))

    best = population[min(range(len(population)), key=costs.__getitem__)]
    area, wirelength, ds, reward = evaluate(best)
    return publish_result(FloorplanResult(
        circuit_name=circuit.name,
        method="GA",
        rects=pack(best, sizes),
        area=area,
        hpwl=wirelength,
        dead_space=ds,
        reward=reward,
        runtime=time.perf_counter() - start,
        extra={"generations": config.generations, "population": config.population},
    ), started=start, evaluations=(config.generations + 1) * config.population)
