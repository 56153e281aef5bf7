"""Tests for the floorplanning environment, vec-env and curriculum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import get_circuit, sym_pair_v
from repro.config import ACTION_SPACE, GRID_SIZE, VIOLATION_PENALTY
from repro.floorplan import (
    FloorplanEnv,
    HybridCurriculum,
    VecEnv,
    decode_action,
    encode_action,
)


def random_rollout(env, rng, max_steps=64):
    """Play random valid actions until the episode ends."""
    obs = env.reset()
    total = 0.0
    for _ in range(max_steps):
        valid = np.nonzero(obs.action_mask)[0]
        if len(valid) == 0:
            break
        action = int(rng.choice(valid))
        obs, reward, done, info = env.step(action)
        total += reward
        if done:
            return total, info
    raise AssertionError("episode did not terminate")


class TestActionCodec:
    @given(st.integers(min_value=0, max_value=ACTION_SPACE - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, action):
        shape, gx, gy = decode_action(action)
        assert encode_action(shape, gx, gy) == action
        assert 0 <= shape < 3
        assert 0 <= gx < GRID_SIZE
        assert 0 <= gy < GRID_SIZE

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_action(ACTION_SPACE)
        with pytest.raises(ValueError):
            decode_action(-1)


class TestEnvBasics:
    def test_reset_returns_observation(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        obs = env.reset()
        assert obs.masks.shape == (6, 32, 32)
        assert obs.action_mask.shape == (ACTION_SPACE,)
        assert obs.block_index == env.state.current_block
        assert obs.graph.num_nodes == 3

    def test_step_before_reset_raises(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_full_episode_random_policy(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        rng = np.random.default_rng(0)
        total, info = random_rollout(env, rng)
        assert env.state.done or info.get("violation")

    def test_episode_length_equals_blocks(self):
        env = FloorplanEnv(get_circuit("ota1"))
        rng = np.random.default_rng(1)
        obs = env.reset()
        steps = 0
        done = False
        while not done:
            valid = np.nonzero(obs.action_mask)[0]
            obs, _, done, info = env.step(int(rng.choice(valid)))
            steps += 1
        if not info.get("violation"):
            assert steps == 5

    def test_invalid_action_penalized(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        obs = env.reset()
        invalid = np.nonzero(~obs.action_mask)[0]
        _, reward, done, info = env.step(int(invalid[0]))
        assert reward == VIOLATION_PENALTY
        assert done and info["violation"]

    def test_step_after_done_raises(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        obs = env.reset()
        invalid = np.nonzero(~obs.action_mask)[0]
        env.step(int(invalid[0]))
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_final_info_reports_metrics(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        rng = np.random.default_rng(3)
        for attempt in range(20):
            total, info = random_rollout(env, rng)
            if not info.get("violation"):
                assert "final_dead_space" in info
                assert "final_hpwl" in info
                assert info["final_hpwl"] > 0
                return
        raise AssertionError("no clean episode in 20 attempts")

    def test_set_circuit_switches_task(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        env.reset()
        env.set_circuit(get_circuit("ota1"))
        obs = env.reset()
        assert obs.graph.num_nodes == 5

    def test_render_text(self):
        env = FloorplanEnv(get_circuit("ota_small"))
        obs = env.reset()
        valid = np.nonzero(obs.action_mask)[0]
        env.step(int(valid[0]))
        text = env.render_text()
        assert len(text.splitlines()) == 32
        assert any(c != "." for line in text.splitlines() for c in line)


class TestConstraintEnforcement:
    def test_masked_rollouts_satisfy_constraints(self):
        """Random *masked* rollouts never end with a constraint violation
        (dead ends are possible; those report violation with penalty)."""
        env = FloorplanEnv(get_circuit("rs_latch"))  # has sym pairs
        rng = np.random.default_rng(7)
        clean = 0
        for _ in range(10):
            total, info = random_rollout(env, rng)
            if not info.get("violation"):
                clean += 1
                assert env.verify_constraints() == []
        assert clean >= 1

    def test_symmetry_axis_recorded(self):
        ckt = get_circuit("ota_small").with_constraints([sym_pair_v(0, 1)])
        env = FloorplanEnv(ckt)
        rng = np.random.default_rng(11)
        for _ in range(10):
            total, info = random_rollout(env, rng)
            if not info.get("violation") and env.state.sym_axes:
                assert 0 in env.state.sym_axes
                return


class TestVecEnv:
    def test_batch_step_and_autoreset(self):
        envs = [FloorplanEnv(get_circuit("ota_small")) for _ in range(3)]
        vec = VecEnv(envs)
        observations = vec.reset()
        rng = np.random.default_rng(0)
        for _ in range(12):
            actions = []
            for obs in observations:
                valid = np.nonzero(obs.action_mask)[0]
                actions.append(int(rng.choice(valid)))
            observations, rewards, dones, infos = vec.step(actions)
            assert rewards.shape == (3,)
            for obs in observations:
                # auto-reset means every returned obs is actionable
                assert obs.action_mask.any()

    def test_wrong_action_count_rejected(self):
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small"))])
        vec.reset()
        with pytest.raises(ValueError):
            vec.step([0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VecEnv([])


class TestVecEnvResetHook:
    """Auto-reset hook semantics: fires before the reset, per finished env."""

    @staticmethod
    def _run_to_done(vec, observations, max_steps=16):
        """Step first-valid actions until some env finishes an episode."""
        for _ in range(max_steps):
            actions = [int(np.nonzero(o.action_mask)[0][0]) for o in observations]
            observations, rewards, dones, infos = vec.step(actions)
            if dones.any():
                return observations, dones, infos
        raise AssertionError("no episode finished")

    def test_hook_receives_index_and_env(self):
        envs = [FloorplanEnv(get_circuit("ota_small")) for _ in range(2)]
        vec = VecEnv(envs)
        calls = []
        vec.reset_hook = lambda i, env: calls.append((i, env))
        observations = vec.reset()
        _, dones, _ = self._run_to_done(vec, observations)
        assert len(calls) == int(dones.sum())
        for i, env in calls:
            assert env is envs[i]

    def test_hook_fires_before_reset(self):
        """The hook sees the env still in its finished (pre-reset) state."""
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small"))])
        placed_at_hook = []
        vec.reset_hook = lambda i, env: placed_at_hook.append(len(env.state.placed))
        observations = vec.reset()
        self._run_to_done(vec, observations)
        # All 3 blocks were still placed when the hook ran; a post-reset
        # hook would observe an empty state.
        assert placed_at_hook == [3]

    def test_observation_after_hook_is_next_episodes_first(self):
        """The returned obs belongs to the episode started by the hook —
        here the hook swaps the circuit, so the obs reflects the new task."""
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small"))])
        bias1 = get_circuit("bias1")

        def swap(i, env):
            env.set_circuit(bias1)

        vec.reset_hook = swap
        observations = vec.reset()
        observations, dones, infos = self._run_to_done(vec, observations)
        assert dones[0]
        # Terminal observation is kept from the *old* episode...
        assert infos[0]["terminal_observation"].graph.num_nodes == 3
        # ...while the returned observation opens the new circuit's episode.
        assert observations[0].graph.num_nodes == bias1.num_blocks
        fresh = FloorplanEnv(bias1).reset()
        assert observations[0].block_index == fresh.block_index
        assert observations[0].action_mask.any()

    def test_hook_not_called_mid_episode(self):
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small"))])
        calls = []
        vec.reset_hook = lambda i, env: calls.append(i)
        observations = vec.reset()
        # One step on a 3-block circuit cannot finish the episode.
        action = int(np.nonzero(observations[0].action_mask)[0][0])
        _, _, dones, _ = vec.step([action])
        assert not dones[0]
        assert calls == []


class TestStackObservationsEmpty:
    def test_empty_sequence_raises_value_error(self):
        from repro.floorplan.vecenv import stack_observations

        with pytest.raises(ValueError, match="at least one observation"):
            stack_observations([])


class TestCurriculum:
    def _circuits(self):
        return [get_circuit(n) for n in ("ota_small", "ota1", "ota2")]

    def test_stages_advance_in_order(self):
        cur = HybridCurriculum(self._circuits(), episodes_per_circuit=4,
                               rng=np.random.default_rng(0))
        names = []
        for _ in range(12):
            circuit, _ = cur.next_task()
            names.append(circuit.name)
        # First half of each stage is deterministic.
        assert names[0] == "OTA-small"
        assert names[4] == "OTA-1"
        assert names[8] == "OTA-2"

    def test_first_half_deterministic(self):
        cur = HybridCurriculum(self._circuits(), episodes_per_circuit=8,
                               p_circuit=1.0, p_constraint=1.0,
                               rng=np.random.default_rng(0))
        for k in range(4):  # first half of stage 0
            circuit, _ = cur.next_task()
            assert circuit.name == "OTA-small"
            assert not cur.history[-1].sampled

    def test_second_half_samples(self):
        cur = HybridCurriculum(self._circuits(), episodes_per_circuit=8,
                               p_circuit=1.0, p_constraint=0.0,
                               rng=np.random.default_rng(0))
        for _ in range(8 + 8):  # through stage 1
            cur.next_task()
        sampled = [h for h in cur.history if h.sampled]
        assert len(sampled) >= 4  # second halves sample with p=1

    def test_sampling_pool_only_seen_circuits(self):
        cur = HybridCurriculum(self._circuits(), episodes_per_circuit=6,
                               p_circuit=1.0, p_constraint=0.0,
                               rng=np.random.default_rng(1))
        for _ in range(6):  # stage 0 only
            circuit, _ = cur.next_task()
            assert circuit.name in ("OTA-small",)

    def test_stage_boundaries(self):
        cur = HybridCurriculum(self._circuits(), episodes_per_circuit=10)
        assert cur.stage_boundaries() == [0, 10, 20]

    def test_finished_flag(self):
        cur = HybridCurriculum(self._circuits()[:1], episodes_per_circuit=2,
                               rng=np.random.default_rng(0))
        assert not cur.finished
        cur.next_task()
        cur.next_task()
        assert cur.finished

    def test_constraint_sampling_changes_constraints(self):
        cur = HybridCurriculum([get_circuit("ota2")], episodes_per_circuit=40,
                               p_circuit=0.0, p_constraint=1.0,
                               rng=np.random.default_rng(2))
        base = get_circuit("ota2").constraints
        saw_different = False
        for _ in range(40):
            circuit, _ = cur.next_task()
            if [c.blocks for c in circuit.constraints] != [c.blocks for c in base]:
                saw_different = True
        assert saw_different

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridCurriculum([], episodes_per_circuit=4)
        with pytest.raises(ValueError):
            HybridCurriculum(self._circuits(), episodes_per_circuit=1)
