"""Integration tests: PPO training loop, HCL schedule, agent inference.

Kept deliberately small (tiny rollouts, few iterations) — these verify the
machinery end to end, not convergence; the benchmarks exercise longer runs.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.engine import executor as executor_mod
from repro.floorplan import FloorplanEnv, VecEnv
from repro.rl import FloorplanAgent, MaskedPPO, TrainHistory, solve_session


def tiny_config(**overrides):
    defaults = dict(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=16,
        learning_rate=3e-4, seed=0, episodes_per_circuit=4,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def trained_agent():
    """One tiny agent shared across inference tests (training is slow)."""
    agent = FloorplanAgent(config=tiny_config())
    vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
    agent.ppo.train(vec, iterations=2)
    return agent


class TestPPOLoop:
    def test_collect_fills_buffer_and_counts_episodes(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        buffer, next_obs, episodes = agent.ppo.collect(vec, obs)
        assert buffer.full
        assert episodes > 0
        assert len(next_obs) == 2

    def test_update_returns_stats(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        buffer, _, _ = agent.ppo.collect(vec, obs)
        stats = agent.ppo.update(buffer)
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction"):
            assert np.isfinite(stats[key]), key

    def test_train_records_history(self, trained_agent):
        # trained_agent fixture ran 2 iterations
        assert trained_agent.ppo.episodes_total > 0
        assert np.isfinite(trained_agent.ppo.episode_reward_mean)

    def test_episode_end_callback(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        seen = []
        agent.ppo.collect(vec, obs, on_episode_end=lambda i, ret, info: seen.append(ret))
        assert len(seen) > 0
        assert all(np.isfinite(r) for r in seen)

    def test_update_changes_parameters(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        before = {n: p.data.copy() for n, p in agent.policy.named_parameters()}
        buffer, _, _ = agent.ppo.collect(vec, obs)
        agent.ppo.update(buffer)
        changed = any(
            not np.allclose(before[n], p.data) for n, p in agent.policy.named_parameters()
        )
        assert changed


class TestHCL:
    def test_train_hcl_advances_through_circuits(self):
        agent = FloorplanAgent(config=tiny_config(rollout_steps=12))
        circuits = [get_circuit("ota_small"), get_circuit("bias_small")]
        record = agent.train_hcl(circuits, episodes_per_circuit=4)
        assert len(record.history.iterations) >= 1
        assert record.stage_starts[0] == 0
        curve = record.history.reward_curve()
        assert np.isfinite(curve).all()

    def test_kl_curve_available(self):
        agent = FloorplanAgent(config=tiny_config(rollout_steps=12))
        record = agent.train_hcl([get_circuit("ota_small")], episodes_per_circuit=4)
        kl = record.history.kl_curve()
        assert (kl >= 0).all()


class TestTrainingBudgetValidation:
    @pytest.mark.parametrize(
        "field", ["num_envs", "rollout_steps", "ppo_epochs", "minibatch_size"])
    def test_config_rejects_budgets_below_one(self, field):
        # A zero rollout never steps the envs, so HCL training never ends.
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})

    def test_train_hcl_does_not_swap_zero_episodes_for_the_default(self):
        agent = FloorplanAgent(config=tiny_config())
        with pytest.raises(ValueError, match="episodes_per_circuit"):
            agent.train_hcl([get_circuit("ota_small")], episodes_per_circuit=0)


class TestAgentInference:
    def test_solve_produces_valid_floorplan(self, trained_agent):
        result = trained_agent.solve(get_circuit("ota_small"), method_name="test")
        assert len(result.rects) == 3
        assert result.area > 0
        assert 0 <= result.dead_space < 1
        assert result.method == "test"

    def test_solve_zero_shot_on_unseen_circuit(self, trained_agent):
        """Transfer: the policy must emit legal floorplans for circuits it
        never saw (different node counts) — the R-GCN makes this possible."""
        result = trained_agent.solve(get_circuit("rs_latch"))
        assert len(result.rects) == 7

    def test_solve_respects_constraints(self, trained_agent):
        circuit = get_circuit("rs_latch")  # has symmetry pairs
        result = trained_agent.solve(circuit)
        # reconstruct rows for the symmetric pairs: same y within a cell
        rows = {r.index: r.y for r in result.rects}
        for c in circuit.constraints:
            if len(c.blocks) == 2 and c.kind.value == "sym_v":
                a, b = c.blocks
                assert abs(rows[a] - rows[b]) < 1e-6

    def test_fine_tune_runs(self, trained_agent):
        history = trained_agent.fine_tune(get_circuit("ota_small"), episodes=2)
        assert len(history.iterations) >= 1

    def test_fine_tune_rejects_zero_episodes(self, trained_agent):
        with pytest.raises(ValueError):
            trained_agent.fine_tune(get_circuit("ota_small"), episodes=0)

    def test_save_load_roundtrip(self, trained_agent, tmp_path):
        prefix = str(tmp_path / "agent")
        trained_agent.save(prefix)
        fresh = FloorplanAgent(config=tiny_config(seed=123))
        fresh.load(prefix)
        ckt = get_circuit("ota_small")
        a = trained_agent.solve(ckt)
        b = fresh.solve(ckt)
        assert a.reward == pytest.approx(b.reward)
        assert [(r.x, r.y) for r in a.rects] == [(r.x, r.y) for r in b.rects]


def _drive(session, choose):
    """Answer every step of a solve session with ``choose(obs, greedy)``."""
    action = None
    try:
        while True:
            obs, greedy = session.send(action)
            action = choose(obs, greedy)
    except StopIteration as finished:
        return finished.value


class TestSolveSession:
    """The episode loop shared by offline solves and the solve server."""

    def test_scripted_policy_yields_result(self):
        circuit = get_circuit("ota_small")
        greedy_flags = []

        def first_legal(obs, greedy):
            greedy_flags.append(greedy)
            return int(np.flatnonzero(obs.action_mask)[0])

        result = _drive(solve_session(FloorplanEnv(circuit), method_name="x"),
                        first_legal)
        assert result.method == "x"
        assert len(result.rects) == circuit.num_blocks
        assert result.extra == {"attempts": 1}
        assert greedy_flags == [True] * circuit.num_blocks

    def test_exhausted_attempts_raise(self):
        session = solve_session(FloorplanEnv(get_circuit("ota_small")), attempts=0)
        with pytest.raises(RuntimeError, match="0 attempts"):
            session.send(None)


@pytest.mark.skipif(executor_mod._BLAS_THREADS is None
                    or executor_mod.available_cores() < 2,
                    reason="no OpenBLAS handle, or one core: one count only")
class TestBlasThreadCount:
    """Inference and the update are bit-identical at one OpenBLAS thread
    and at the default count: the solve server and the engine's pool
    workers lower it, and served == offline rests on this."""

    @staticmethod
    def _at_one_thread(fn):
        found = executor_mod.lower_blas_threads(1)
        try:
            return fn()
        finally:
            executor_mod.restore_blas_threads(found)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 8])
    def test_act(self, rows):
        agent = FloorplanAgent(config=tiny_config())
        names = ("ota_small", "bias_small", "ota1", "bias1")
        observations = [FloorplanEnv(get_circuit(names[i % len(names)])).reset()
                        for i in range(rows)]

        def act():
            return agent.ppo.act(
                observations, deterministic=np.zeros(rows, dtype=bool),
                rng=[np.random.default_rng(i) for i in range(rows)])

        default, single = act(), self._at_one_thread(act)
        for a, b in zip(default, single):
            assert np.array_equal(a, b)

    def test_update(self):
        def updated_weights():
            agent = FloorplanAgent(config=tiny_config())
            vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
            buffer, _, _ = agent.ppo.collect(vec, vec.reset())
            agent.ppo.update(buffer)
            return [p.data for p in agent.encoder.parameters()
                    + agent.policy.parameters()]

        default, single = updated_weights(), self._at_one_thread(updated_weights)
        assert len(default) == len(single)
        for a, b in zip(default, single):
            assert np.array_equal(a, b)
