"""Micro-benchmarks of the performance-critical substrates.

These quantify the per-step costs that budget the whole system: mask
construction (every env step), policy forward (every action), PPO update
(every iteration), sequence-pair packing (every metaheuristic move), one
default-pipeline SA run (the Fig. 1 flow's floorplanner) and OARSMT
construction (every net).
"""

import numpy as np
import pytest

from repro.baselines import SequencePair, pack, true_shapes
from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.floorplan import FloorplanEnv, FloorplanState, observation_masks
from repro.floorplan.metrics import hpwl_lower_bound
from repro.nn import Tensor
from repro.pipeline import default_floorplanner
from repro.rl import ActorCritic, FloorplanAgent
from repro.routing import Obstacle, Point, oarsmt


@pytest.fixture(scope="module")
def partial_state():
    state = FloorplanState(get_circuit("bias1"))
    for _ in range(4):
        placed = False
        for gy in range(32):
            for gx in range(32):
                if state.can_place(1, gx, gy):
                    state.place(1, gx, gy)
                    placed = True
                    break
            if placed:
                break
    return state


def test_observation_masks_speed(benchmark, partial_state):
    hmin = hpwl_lower_bound(partial_state.circuit)
    out = benchmark(lambda: observation_masks(partial_state, hmin))
    assert out.shape == (6, 32, 32)


def test_policy_forward_speed(benchmark):
    rng = np.random.default_rng(0)
    model = ActorCritic(rng=rng)
    masks = Tensor(rng.normal(size=(4, 6, 32, 32)))
    node = Tensor(rng.normal(size=(4, 32)))
    graph = Tensor(rng.normal(size=(4, 32)))
    logits, values = benchmark(lambda: model(masks, node, graph))
    assert logits.shape == (4, 3072)


def test_env_step_speed(benchmark):
    env = FloorplanEnv(get_circuit("ota2"))
    rng = np.random.default_rng(0)

    def episode_step():
        obs = env.reset()
        valid = np.nonzero(obs.action_mask)[0]
        env.step(int(valid[0]))

    benchmark(episode_step)


def test_seqpair_pack_speed(benchmark):
    circuit = get_circuit("bias2")  # 19 blocks, worst case
    sizes = true_shapes(circuit)
    rng = np.random.default_rng(0)
    pair = SequencePair.random(circuit.num_blocks, 3, rng)
    rects = benchmark(lambda: pack(pair, sizes))
    assert len(rects) == 19


def test_sa_run_speed(benchmark):
    circuit = get_circuit("bias1")
    result = benchmark(lambda: default_floorplanner(circuit))
    assert len(result.rects) == circuit.num_blocks


def test_oarsmt_speed(benchmark):
    rng = np.random.default_rng(0)
    terminals = [Point(float(x), float(y))
                 for x, y in rng.integers(0, 100, size=(6, 2))]
    obstacles = [Obstacle(20, 20, 40, 40), Obstacle(60, 10, 80, 50)]
    tree = benchmark(lambda: oarsmt("n", terminals, obstacles))
    assert tree.covers_terminals()


def test_ppo_iteration_speed(benchmark):
    """One collect+update cycle at the test scale."""
    from repro.floorplan import VecEnv

    config = TrainConfig(num_envs=2, rollout_steps=16, ppo_epochs=1,
                         minibatch_size=16, seed=0)
    agent = FloorplanAgent(config=config)
    vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])

    def iteration():
        observations = vec.reset()
        buffer, _, _ = agent.ppo.collect(vec, observations)
        agent.ppo.update(buffer)

    benchmark.pedantic(iteration, rounds=2, iterations=1)
