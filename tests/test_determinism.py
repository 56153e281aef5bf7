"""Determinism regression tests: same seed => identical results.

Covers the engine's core guarantee (ISSUE 1): seeds travel inside the
task specs, so reruns and parallel backends reproduce artifacts bit for
bit — for the SA baseline, for engine-dispatched grids under ``serial``
and ``process`` backends, for k-shot fine-tuning, and for served RL
solves.
"""

import numpy as np
import pytest

from repro.baselines.sa import SAConfig, simulated_annealing
from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.engine import Executor, TaskSpec
from repro.engine.tasks import agent_fingerprint, table1_rl_task
from repro.rl import FloorplanAgent

FAST_SA = SAConfig(moves_per_temperature=4, seed=3)


def assert_results_identical(a, b):
    assert a.rects == b.rects
    assert a.area == b.area
    assert a.hpwl == b.hpwl
    assert a.dead_space == b.dead_space
    assert a.reward == b.reward


class TestSADeterminism:
    def test_same_seed_identical_floorplan(self):
        circuit = get_circuit("ota_small")
        assert_results_identical(
            simulated_annealing(circuit, FAST_SA),
            simulated_annealing(circuit, FAST_SA),
        )

    def test_different_seed_changes_search(self):
        circuit = get_circuit("bias_small")
        a = simulated_annealing(circuit, SAConfig(moves_per_temperature=4, seed=0))
        b = simulated_annealing(circuit, SAConfig(moves_per_temperature=4, seed=1))
        # Not a hard guarantee per-instance, but with different seeds the
        # search trajectories must differ somewhere on this circuit.
        assert a.rects != b.rects or a.extra != b.extra


class TestEngineBackendDeterminism:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sa_grid_bit_identical(self, backend):
        specs = [
            TaskSpec(fn="baseline",
                     params={"circuit": name, "method": "sa",
                             "config": {"moves_per_temperature": 4}},
                     seed=seed)
            for name in ("ota_small", "bias_small")
            for seed in range(2)
        ]
        reference = Executor().map_tasks(specs)
        other = Executor(backend=backend, workers=2).map_tasks(specs)
        for a, b in zip(reference, other):
            assert_results_identical(a.value, b.value)


def _small_agent() -> FloorplanAgent:
    return FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8, seed=0,
    ))


class TestFineTuneDeterminism:
    """The Table I k-shot contract: cells with ``episodes > 0`` are a pure
    function of (weights, params, seed) — repeated computes are bit
    identical and never perturb the shared agent."""

    def test_k_shot_cell_bit_identical_and_side_effect_free(self):
        agent = _small_agent()
        before = agent_fingerprint(agent)
        params = {"circuit": "ota_small", "method": "R-GCN RL 2-shot",
                  "episodes": 2, "agent": before, "unconstrained": True}
        (a, _), (b, _) = (table1_rl_task(params, 1, {"agent": agent})
                          for _ in range(2))
        assert_results_identical(a, b)
        assert agent_fingerprint(agent) == before

    def test_k_shot_grid_bit_identical_serial_vs_process(self):
        """Fine-tunes must not interact: each repeat clones the shared
        agent and reseeds the clone, so the process backend reproduces
        the serial grid bit for bit."""
        agent = _small_agent()
        specs = [
            TaskSpec(fn="table1_rl",
                     params={"circuit": name, "method": "R-GCN RL 2-shot",
                             "episodes": 2, "agent": "fp",
                             "unconstrained": True},
                     seed=seed)
            for name in ("ota_small", "bias_small")
            for seed in range(2)
        ]
        context = {"agent": agent}
        reference = Executor().map_tasks(specs, context=context)
        parallel = Executor(backend="process", workers=2).map_tasks(
            specs, context=context
        )
        for a, b in zip(reference, parallel):
            assert_results_identical(a.value[0], b.value[0])

    def test_fine_tune_same_seed_identical_weights(self):
        circuit = get_circuit("ota_small")
        digests = []
        for _ in range(2):
            tuned = _small_agent().clone()
            tuned.ppo.rng = np.random.default_rng(7)
            tuned.fine_tune(circuit, episodes=2)
            digests.append(agent_fingerprint(tuned))
        assert digests[0] == digests[1]

    def test_clone_then_fine_tune_golden(self):
        """A clone starts from the parent's trained weights with no grads
        and fresh optimizer state; the golden fingerprint pins the
        fine-tuned clone's weights bit for bit."""
        agent = _small_agent()
        agent.ppo.rng = np.random.default_rng(3)
        agent.fine_tune(get_circuit("ota_small"), episodes=2)
        before = agent_fingerprint(agent)
        tuned = agent.clone()
        assert agent_fingerprint(tuned) == before
        tuned.ppo.rng = np.random.default_rng(7)
        tuned.fine_tune(get_circuit("bias_small"), episodes=2)
        assert agent_fingerprint(tuned) == "e03582ee54c753c7"
        assert agent_fingerprint(agent) == before

    def test_zero_shot_cell_side_effect_free(self):
        """0-shot cells solve with the shared agent itself: the answer
        ignores the trainer's stream and the weights stay untouched."""
        agent = _small_agent()
        before = agent_fingerprint(agent)
        params = {"circuit": "bias_small", "method": "R-GCN RL",
                  "episodes": 0, "agent": before}
        a, _ = table1_rl_task(params, 2, {"agent": agent})
        agent.ppo.rng.uniform(size=1000)  # perturb the trainer's stream
        b, _ = table1_rl_task(params, 2, {"agent": agent})
        assert_results_identical(a, b)
        assert agent_fingerprint(agent) == before

    def test_solve_independent_of_trainer_rng_state(self):
        """Inference draws from its own generator, so results cannot
        depend on how much of ``ppo.rng`` earlier training consumed."""
        circuit = get_circuit("bias_small")
        agent = _small_agent()
        # Force the stochastic path: greedy and retries share the outcome
        # check, so compare fully stochastic solves.
        a = agent.solve(circuit, deterministic=False,
                        rng=np.random.default_rng(11))
        agent.ppo.rng.uniform(size=1000)  # perturb the trainer's stream
        b = agent.solve(circuit, deterministic=False,
                        rng=np.random.default_rng(11))
        assert_results_identical(a, b)


class TestServingDeterminism:
    """The service's correctness contract (ISSUE 8): the same request +
    seed yields a bit-identical :class:`FloorplanResult` whether it is
    answered serially, coalesced with concurrent strangers, replayed from
    the warm cache, or computed offline through the ``solve_rl`` task."""

    SEEDS = (0, 1, 2, 3)

    @staticmethod
    def _served(max_batch, concurrent, cache_dir=None):
        import threading

        from repro.serve import ServeConfig, ServerThread, SolveClient

        config = ServeConfig(
            max_batch=max_batch, backend="serial",
            cache=cache_dir is not None,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        out = {}
        with ServerThread(config, agent=_small_agent()) as handle:
            if concurrent:
                def work(seed):
                    with SolveClient(handle.address) as client:
                        out[seed] = client.solve(
                            "bias_small", seed=seed, deterministic=False)

                threads = [threading.Thread(target=work, args=(s,))
                           for s in TestServingDeterminism.SEEDS]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            else:
                with SolveClient(handle.address) as client:
                    for seed in TestServingDeterminism.SEEDS:
                        out[seed] = client.solve(
                            "bias_small", seed=seed, deterministic=False)
        return out

    @staticmethod
    def _assert_payload_matches(payload, reference):
        """Wire-form result (JSON dict) == in-process FloorplanResult."""
        import dataclasses

        assert payload["rects"] == [dataclasses.asdict(r)
                                    for r in reference.rects]
        assert payload["area"] == reference.area
        assert payload["hpwl"] == reference.hpwl
        assert payload["dead_space"] == reference.dead_space
        assert payload["reward"] == reference.reward

    def test_serial_concurrent_and_offline_bit_identical(self):
        from repro.engine.tasks import solve_rl_task

        references = {
            seed: solve_rl_task(
                {"circuit": "bias_small", "deterministic": False,
                 "attempts": 8, "agent": "fp"},
                seed, {"agent": _small_agent()},
            )
            for seed in self.SEEDS
        }
        serial = self._served(max_batch=1, concurrent=False)
        coalesced = self._served(max_batch=4, concurrent=True)
        for seed in self.SEEDS:
            self._assert_payload_matches(serial[seed]["result"],
                                         references[seed])
            self._assert_payload_matches(coalesced[seed]["result"],
                                         references[seed])

    def test_warm_cache_replay_bit_identical(self, tmp_path):
        cold = self._served(max_batch=4, concurrent=True, cache_dir=tmp_path)
        warm = self._served(max_batch=1, concurrent=False, cache_dir=tmp_path)
        for seed in self.SEEDS:
            assert warm[seed]["cached"] is True
            assert warm[seed]["result"] == cold[seed]["result"]
