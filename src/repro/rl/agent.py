"""High-level floorplanning agent: HCL training, fine-tuning, inference.

``FloorplanAgent`` glues together the frozen R-GCN encoder (freshly
initialised unless one is passed in), the actor-critic policy and masked
PPO.  It exposes the three usage modes the paper evaluates in Table I:

* ``train_hcl``   — hybrid-curriculum training over the 5-circuit set;
* ``fine_tune``   — k-shot refinement on one circuit (1/100/1000-shot);
* ``solve``       — zero-shot (or post-fine-tune) floorplan generation.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.common import FloorplanResult, PlacedRect, evaluate_placement
from ..circuits.netlist import Circuit
from ..config import TrainConfig
from ..floorplan.curriculum import HybridCurriculum
from ..floorplan.env import FloorplanEnv, Observation
from ..floorplan.vecenv import VecEnv
from ..gnn.rgcn import RGCNEncoder
from ..graph.features import FEATURE_DIM
from ..nn import load_module, save_module
from ..obs import get_logger, phase
from .policy import ActorCritic
from .ppo import MaskedPPO, TrainHistory

logger = get_logger("rl.agent")


def solve_session(
    env: FloorplanEnv,
    deterministic: bool = True,
    attempts: int = 8,
    method_name: str = "R-GCN RL",
) -> Generator[Tuple[Observation, bool], int, FloorplanResult]:
    """The RL solve episode loop, with the policy call left to the caller.

    Yields ``(observation, greedy)`` for every step and takes the chosen
    action back through ``send``; ``greedy`` asks for the mode of the
    masked policy instead of a sample.  The first attempt is greedy when
    ``deterministic``, retries are stochastic.  Returns (as
    ``StopIteration.value``) the :class:`FloorplanResult` of the first
    constraint-clean attempt; raises ``RuntimeError`` if none of
    ``attempts`` is.

    :meth:`FloorplanAgent.solve` answers the steps with ``MaskedPPO.act``
    and the solve server answers them through its micro-batcher, so
    offline and served solves run the same episodes.
    """
    circuit = env.circuit
    start = time.perf_counter()
    for attempt in range(attempts):
        obs = env.reset()
        greedy = deterministic and attempt == 0
        done = False
        info: Dict = {}
        while not done:
            action = yield obs, greedy
            obs, _, done, info = env.step(int(action))
        if not info.get("violation"):
            rects = [
                PlacedRect(p.index, p.shape_index, p.x, p.y, p.width, p.height)
                for p in env.state.placed.values()
            ]
            area, wirelength, ds, reward = evaluate_placement(
                circuit, rects, hpwl_min=env.hpwl_min,
                target_aspect=env.target_aspect,
            )
            return FloorplanResult(
                circuit_name=circuit.name,
                method=method_name,
                rects=rects,
                area=area,
                hpwl=wirelength,
                dead_space=ds,
                reward=reward,
                runtime=time.perf_counter() - start,
                extra={"attempts": attempt + 1},
            )
    raise RuntimeError(
        f"no constraint-clean floorplan for {circuit.name} in {attempts} attempts"
    )


@dataclass
class HCLRecord:
    """Fig. 6 artifacts: curves plus curriculum phase markers."""

    history: TrainHistory
    stage_starts: List[int] = field(default_factory=list)  # iteration indices
    sampling_start: Optional[int] = None                   # first random-sampling iteration


class FloorplanAgent:
    """The paper's R-GCN + RL floorplanner."""

    def __init__(
        self,
        encoder: Optional[RGCNEncoder] = None,
        policy: Optional[ActorCritic] = None,
        config: Optional[TrainConfig] = None,
    ):
        self.config = config or TrainConfig()
        rng = np.random.default_rng(self.config.seed)
        self.encoder = encoder or RGCNEncoder(FEATURE_DIM, rng=rng)
        self.policy = policy or ActorCritic(rng=rng)
        self.ppo = MaskedPPO(self.policy, self.encoder, self.config)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_hcl(
        self,
        circuits: Sequence[Circuit],
        episodes_per_circuit: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> HCLRecord:
        """Hybrid curriculum learning over the training circuits (Sec. IV-D5).

        Environments draw their next circuit from the curriculum whenever
        an episode ends; PPO iterations continue until the curriculum's
        episode budget is exhausted.
        """
        cfg = self.config
        episodes = (cfg.episodes_per_circuit if episodes_per_circuit is None
                    else episodes_per_circuit)
        curriculum = HybridCurriculum(
            list(circuits), episodes_per_circuit=episodes,
            rng=rng or np.random.default_rng(cfg.seed),
        )
        first = curriculum.circuits[0]
        envs = [FloorplanEnv(first) for _ in range(cfg.num_envs)]
        vec = VecEnv(envs)

        def assign_task(index: int, env: FloorplanEnv) -> None:
            if curriculum.finished:
                return
            circuit, _ = curriculum.next_task()
            env.set_circuit(circuit)

        vec.reset_hook = assign_task

        record = HCLRecord(history=TrainHistory())
        seen_stages = {0}
        record.stage_starts.append(0)
        half = episodes // 2
        observations = vec.reset()
        while not curriculum.finished:
            buffer, observations, _ = self.ppo.collect(vec, observations)
            stats = self.ppo.update(buffer)
            iteration = self.ppo.record_iteration(
                record.history, stats, curriculum.episode).iteration
            stage = curriculum.stage
            if stage not in seen_stages:
                seen_stages.add(stage)
                record.stage_starts.append(iteration)
            if record.sampling_start is None and (curriculum.episode % episodes) >= half:
                record.sampling_start = iteration
        return record

    def fine_tune(self, circuit: Circuit, episodes: int) -> TrainHistory:
        """k-shot refinement on one circuit (paper's 1/100/1000-shot).

        Trains until approximately ``episodes`` episodes complete on the
        target circuit (at least one PPO iteration).
        """
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        cfg = self.config
        envs = [FloorplanEnv(circuit) for _ in range(cfg.num_envs)]
        vec = VecEnv(envs)
        history = TrainHistory()
        observations = vec.reset()
        done_episodes = 0
        # Size rollouts to the episode budget so k-shot effort (and hence
        # runtime, as in Table I) scales with k instead of being dominated
        # by a fixed rollout length.
        steps_needed = max(1, episodes * circuit.num_blocks // cfg.num_envs)
        rollout_steps = int(np.clip(steps_needed, 8, cfg.rollout_steps))
        while done_episodes < episodes:
            buffer, observations, finished = self.ppo.collect(
                vec, observations, rollout_steps=rollout_steps
            )
            stats = self.ppo.update(buffer)
            done_episodes += finished
            self.ppo.record_iteration(history, stats, finished)
        return history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def solve(
        self,
        circuit: Circuit,
        hpwl_min: Optional[float] = None,
        target_aspect: Optional[float] = None,
        deterministic: bool = True,
        attempts: int = 8,
        method_name: str = "R-GCN RL",
        rng: Optional[np.random.Generator] = None,
    ) -> FloorplanResult:
        """Generate a floorplan with the current policy (drives
        :func:`solve_session` with ``MaskedPPO.act``).

        The first attempt is greedy (mode of the masked policy); if it dead
        -ends on constraints, stochastic retries follow, sampling from
        ``rng`` (default: a fresh generator seeded with ``config.seed``) so
        repeated calls are reproducible independent of any training the
        agent ran beforehand.  Raises ``RuntimeError`` if no clean
        floorplan is found in ``attempts``.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        env = FloorplanEnv(circuit, hpwl_min=hpwl_min, target_aspect=target_aspect)
        session = solve_session(env, deterministic, attempts, method_name)
        action = None
        with phase("agent.solve"):
            try:
                while True:
                    obs, greedy = session.send(action)
                    actions, _, _ = self.ppo.act([obs], deterministic=greedy, rng=rng)
                    action = int(actions[0])
            except StopIteration as finished:
                return finished.value

    def clone(self) -> "FloorplanAgent":
        """Independent copy (own optimizer state) for per-circuit fine-tuning.

        The modules are deep-copied without their gradients and the
        config is copied as well, so a clone shares no mutable state with
        the agent it came from (Table I k-shot cells clone one shared
        context agent per repeat).
        """
        params = self.encoder.parameters() + self.policy.parameters()
        # A memo entry id(grad) -> None makes deepcopy leave grads behind.
        memo = {id(p.grad): None for p in params if p.grad is not None}
        encoder, policy = copy.deepcopy((self.encoder, self.policy), memo)
        return FloorplanAgent(encoder, policy, config=replace(self.config))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, prefix: str) -> None:
        """Write ``{prefix}_policy.npz`` and ``{prefix}_encoder.npz``."""
        save_module(self.policy, f"{prefix}_policy.npz")
        save_module(self.encoder, f"{prefix}_encoder.npz")

    def load(self, prefix: str) -> None:
        load_module(self.policy, f"{prefix}_policy.npz")
        load_module(self.encoder, f"{prefix}_encoder.npz")
        self.ppo.invalidate_cache()
