"""Floorplanning baselines: SA / GA / PSO and the RL methods of ref [13]."""

from .common import (
    DEFAULT_SPACING,
    FloorplanResult,
    PlacedRect,
    evaluate_coords_population,
    evaluate_placement,
    evaluate_population,
    inflated_shapes,
    rects_overlap,
    true_shapes,
)
from .ga import GAConfig, genetic_algorithm
from .pso import PSOConfig, decode_swarm, particle_swarm
from .rl_sa import RLSAConfig, rl_simulated_annealing
from .rl_sp import RLSPConfig, rl_sequence_pair
from .sa import SAConfig, simulated_annealing
from .seqpair import (
    SequencePair,
    pack,
    pack_coords,
    random_neighbor,
)

__all__ = [
    "DEFAULT_SPACING",
    "FloorplanResult",
    "GAConfig",
    "PSOConfig",
    "PlacedRect",
    "RLSAConfig",
    "RLSPConfig",
    "SAConfig",
    "SequencePair",
    "decode_swarm",
    "evaluate_coords_population",
    "evaluate_placement",
    "evaluate_population",
    "genetic_algorithm",
    "inflated_shapes",
    "pack",
    "pack_coords",
    "particle_swarm",
    "random_neighbor",
    "rects_overlap",
    "rl_sequence_pair",
    "rl_simulated_annealing",
    "simulated_annealing",
    "true_shapes",
]
