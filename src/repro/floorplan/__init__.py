"""Floorplanning substrate: grid, state, metrics, masks, environment."""

from .curriculum import CurriculumPhase, HybridCurriculum
from .env import FloorplanEnv, Observation, decode_action, encode_action
from .grid import CanvasGrid, canvas_for
from .masks import (
    action_mask,
    dead_space_mask,
    observation_masks,
    placement_mask,
    placement_masks,
    positional_mask,
    positional_masks,
    wire_mask,
)
from .metrics import (
    aspect_ratio,
    dead_space,
    final_reward,
    floorplan_area,
    hpwl_lower_bound,
    incidence_hpwl_batch,
    intermediate_reward,
    state_hpwl,
)
from .state import FloorplanState, PlacedBlock
from .vecenv import StackedObservations, VecEnv, stack_observations

__all__ = [
    "CanvasGrid",
    "CurriculumPhase",
    "FloorplanEnv",
    "FloorplanState",
    "HybridCurriculum",
    "Observation",
    "PlacedBlock",
    "StackedObservations",
    "VecEnv",
    "stack_observations",
    "action_mask",
    "aspect_ratio",
    "canvas_for",
    "dead_space",
    "dead_space_mask",
    "decode_action",
    "encode_action",
    "final_reward",
    "floorplan_area",
    "hpwl_lower_bound",
    "incidence_hpwl_batch",
    "intermediate_reward",
    "observation_masks",
    "placement_mask",
    "placement_masks",
    "positional_mask",
    "positional_masks",
    "state_hpwl",
    "wire_mask",
]
