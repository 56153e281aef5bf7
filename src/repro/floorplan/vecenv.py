"""Vectorized environment: a fixed batch of envs stepped in lockstep.

The paper gathers experience from 16 parallel environments (Sec. V-A).
``VecEnv`` steps a list of environments sequentially while presenting the
batched interface PPO expects; the batch dimension is what matters for
learning dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.hetero import HeteroGraph
from .env import FloorplanEnv, Observation


@dataclass
class StackedObservations:
    """A batch of observations in array form, ready for batched inference.

    Produced by :func:`stack_observations` (or :meth:`VecEnv.step_stacked`)
    so the policy's batched path consumes one contiguous stack per field
    instead of re-marshalling a list of per-env observations on every
    forward.
    """

    masks: np.ndarray          #: (B, 6, n, n) stacked observation masks
    action_mask: np.ndarray    #: (B, A) boolean action masks
    block_indices: np.ndarray  #: (B,) current-block index per env
    graphs: List[HeteroGraph]  #: per-env circuit graph (for the encoder)

    @property
    def num_envs(self) -> int:
        return len(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)


def stack_observations(observations: Sequence[Observation]) -> StackedObservations:
    """Stack per-env :class:`Observation` objects into one batch."""
    if isinstance(observations, StackedObservations):
        return observations
    if not observations:
        raise ValueError("stack_observations needs at least one observation")
    return StackedObservations(
        masks=np.stack([o.masks for o in observations]),
        action_mask=np.stack([o.action_mask for o in observations]),
        block_indices=np.array([o.block_index for o in observations], dtype=np.int64),
        graphs=[o.graph for o in observations],
    )


class VecEnv:
    """A fixed batch of :class:`FloorplanEnv` with auto-reset semantics."""

    def __init__(self, envs: Sequence[FloorplanEnv]):
        if not envs:
            raise ValueError("VecEnv needs at least one environment")
        self.envs: List[FloorplanEnv] = list(envs)
        #: Optional hook called as ``reset_hook(index, env)`` right before an
        #: episode auto-reset — the curriculum uses it to swap the circuit.
        self.reset_hook: Optional[Callable[[int, FloorplanEnv], None]] = None

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    def reset(self) -> List[Observation]:
        return [env.reset() for env in self.envs]

    def step(self, actions: Sequence[int]) -> Tuple[List[Observation], np.ndarray, np.ndarray, List[Dict]]:
        """Step every env; envs that finish are auto-reset.

        Returns (observations, rewards, dones, infos); the observation for
        a finished env is the first observation of its *next* episode,
        matching Stable-Baselines3 semantics.
        """
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, got {len(actions)}")
        observations: List[Observation] = []
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: List[Dict] = []
        for i, (env, action) in enumerate(zip(self.envs, actions)):
            obs, reward, done, info = env.step(int(action))
            if done:
                info["terminal_observation"] = obs
                if self.reset_hook is not None:
                    self.reset_hook(i, env)
                obs = env.reset()
            observations.append(obs)
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
        return observations, rewards, dones, infos

    def step_stacked(
        self, actions: Sequence[int]
    ) -> Tuple[StackedObservations, np.ndarray, np.ndarray, List[Dict]]:
        """Like :meth:`step`, with the observations stacked for the
        batched inference path."""
        observations, rewards, dones, infos = self.step(actions)
        return stack_observations(observations), rewards, dones, infos
