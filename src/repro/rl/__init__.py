"""Reinforcement learning: masked PPO, Fig. 4 policy, floorplan agent."""

from .agent import FloorplanAgent, HCLRecord, solve_session
from .distributions import MASK_VALUE, MaskedCategorical
from .policy import ActorCritic, CnnExtractor, DeconvPolicyHead
from .ppo import IterationStats, MaskedPPO, TrainHistory
from .rollout import RolloutBatch, RolloutBuffer

__all__ = [
    "ActorCritic",
    "CnnExtractor",
    "DeconvPolicyHead",
    "FloorplanAgent",
    "HCLRecord",
    "IterationStats",
    "MASK_VALUE",
    "MaskedCategorical",
    "MaskedPPO",
    "RolloutBatch",
    "RolloutBuffer",
    "TrainHistory",
    "solve_session",
]
