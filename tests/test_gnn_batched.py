"""Golden tests for the batched R-GCN forward.

The contract under test: :meth:`RGCNEncoder.encode_batch` is
**bit-identical** to encoding each graph on its own with the per-graph
reference (``rgcn_encode_reference`` in ``tests/oracles.py``) — in
forward values (both dtypes) and in parameter gradients (batched
backward == sequential per-graph accumulation in batch order).  The
reward model's training through the batched forward is pinned to
training through the reference.  All equality assertions here are
``np.array_equal``, not ``allclose``.
"""

import numpy as np
import pytest

from repro import nn
from repro.circuits import available_circuits, get_circuit
from repro.config import PretrainConfig, TrainConfig
from repro.floorplan.env import FloorplanEnv
from repro.floorplan.vecenv import VecEnv, stack_observations
from repro.gnn import RGCNEncoder, RewardModel, train_reward_model
from repro.graph import FEATURE_DIM, batch_graphs, circuit_to_graph
from repro.graph.hetero import _BATCH_CACHE
from repro.nn import Tensor
from repro.rl.agent import FloorplanAgent

from oracles import encode_reference, reward_forward_reference, rgcn_encode_reference

# Mixed node counts (and mixed relation populations) on purpose.
CIRCUITS = ("ota_small", "ota2", "bias_small", "driver")

DTYPES = [np.float32, np.float64]


def _graphs():
    return [circuit_to_graph(get_circuit(name)) for name in CIRCUITS]


def _encoder(seed=0):
    return RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(seed))


def _tiny_config():
    return TrainConfig(rollout_steps=8, num_envs=2, minibatch_size=8, ppo_epochs=1)


class TestBatchedForward:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bitwise_matches_per_graph(self, dtype):
        with nn.dtype_scope(dtype):
            enc = _encoder()
            graphs = _graphs()
            with nn.no_grad():
                nodes_b, gemb_b = enc.encode_batch(graphs)
            batch = batch_graphs(graphs)
            for g, (graph, sl) in enumerate(zip(graphs, batch.node_slices())):
                with nn.no_grad():
                    nodes, gemb = rgcn_encode_reference(enc, graph)
                assert np.array_equal(nodes_b.numpy()[sl], nodes.numpy()), graph
                assert np.array_equal(gemb_b.numpy()[g], gemb.numpy()), graph

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_encode_batch_numpy_matches_reference(self, dtype):
        with nn.dtype_scope(dtype):
            enc = _encoder()
            graphs = _graphs()
            batched = enc.encode_batch_numpy(graphs)
            for graph, (nodes_b, gemb_b) in zip(graphs, batched):
                with nn.no_grad():
                    nodes, gemb = rgcn_encode_reference(enc, graph)
                assert np.array_equal(nodes_b, nodes.numpy())
                assert np.array_equal(gemb_b, gemb.numpy())

    def test_batch_of_one_matches_single(self):
        enc = _encoder()
        graph = _graphs()[0]
        with nn.no_grad():
            nodes_b, gemb_b = enc.encode_batch([graph])
            nodes, gemb = rgcn_encode_reference(enc, graph)
        assert np.array_equal(nodes_b.numpy(), nodes.numpy())
        assert np.array_equal(gemb_b.numpy()[0], gemb.numpy())

    def test_batch_order_invariance(self):
        """Per-graph results do not depend on batch position/padding."""
        enc = _encoder()
        graphs = _graphs()
        perm = [2, 0, 3, 1]
        results = {}
        for order in (list(range(len(graphs))), perm):
            ordered = [graphs[i] for i in order]
            for graph, (nodes, gemb) in zip(ordered, enc.encode_batch_numpy(ordered)):
                key = graph.uid
                if key in results:
                    assert np.array_equal(results[key][0], nodes)
                    assert np.array_equal(results[key][1], gemb)
                else:
                    results[key] = (nodes, gemb)
        assert len(results) == len(graphs)


class TestBatchedBackward:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_param_grads_match_sequential_per_graph(self, dtype):
        """Batched backward == per-graph backward run in batch order.

        Two encoders with identical weights; one sees the batch, the
        other sees the graphs one at a time (gradients accumulating
        across calls, the way sequential training would).
        """
        with nn.dtype_scope(dtype):
            graphs = _graphs()
            batch = batch_graphs(graphs)
            rng = np.random.default_rng(3)
            w_nodes = rng.normal(size=(batch.total_nodes, 32)).astype(dtype)
            w_graphs = rng.normal(size=(batch.num_graphs, 32)).astype(dtype)

            enc_b = _encoder(seed=11)
            nodes, gembs = enc_b.encode_batch(graphs)
            loss = (nodes * Tensor(w_nodes)).sum() + (gembs * Tensor(w_graphs)).sum()
            loss.backward()

            enc_s = _encoder(seed=11)
            for g, (graph, sl) in enumerate(zip(graphs, batch.node_slices())):
                nodes_g, gemb_g = rgcn_encode_reference(enc_s, graph)
                loss_g = (nodes_g * Tensor(w_nodes[sl])).sum() + (
                    gemb_g * Tensor(w_graphs[g])
                ).sum()
                loss_g.backward()

            seq = dict(enc_s.named_parameters())
            for name, param in enc_b.named_parameters():
                if param.grad is None:
                    # Relations with no edges anywhere are skipped by both
                    # paths (w_rel of an unused relation gets no gradient).
                    assert seq[name].grad is None, name
                    continue
                assert np.array_equal(param.grad, seq[name].grad), name

    def test_no_grad_batched_records_no_tape(self):
        enc = _encoder()
        with nn.no_grad():
            nodes, gembs = enc.encode_batch(_graphs())
        assert not nodes.requires_grad and not gembs.requires_grad


class TestRewardModelTraining:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_training_matches_reference_training(self, dtype, monkeypatch):
        """``train_reward_model`` through the batched forward gives the
        same loss curves and weights as through the per-graph reference."""
        rng = np.random.default_rng(4)
        dataset = [(circuit_to_graph(get_circuit(name)), float(rng.normal()))
                   for name in available_circuits()]
        config = PretrainConfig(epochs=3, batch_size=3, learning_rate=2e-3, seed=0)
        with nn.dtype_scope(dtype):
            model = RewardModel(FEATURE_DIM, rng=np.random.default_rng(0))
            reference = RewardModel(FEATURE_DIM, rng=np.random.default_rng(0))
            monkeypatch.setattr(reference, "forward",
                                lambda graph: reward_forward_reference(reference, graph))
            history = train_reward_model(model, dataset, config)
            ref_history = train_reward_model(reference, dataset, config)
        assert history.train_loss == ref_history.train_loss
        assert history.val_loss == ref_history.val_loss
        ref_state = reference.state_dict()
        for name, value in model.state_dict().items():
            assert value.dtype == dtype
            assert np.array_equal(value, ref_state[name]), name


class TestBatchStructureCache:
    def test_same_graphs_reuse_structure(self):
        graphs = _graphs()
        assert batch_graphs(graphs) is batch_graphs(list(graphs))

    def test_add_edge_invalidates(self):
        graphs = _graphs()
        first = batch_graphs(graphs)
        graphs[0].add_edge("connect", 0, 1)
        second = batch_graphs(graphs)
        assert second is not first
        assert second.key != first.key

    def test_cache_is_bounded(self):
        from repro.graph import hetero

        graphs = _graphs()
        for _ in range(hetero._BATCH_CACHE_MAX + 8):
            g = circuit_to_graph(get_circuit("ota_small"))
            batch_graphs([g])
        assert len(_BATCH_CACHE) <= hetero._BATCH_CACHE_MAX
        batch_graphs(graphs)  # still functional after evictions

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_padded_adjacency_rounds_like_astype(self, dtype):
        """Each graph's block of the typed padded stack is its float64
        stack cast with ``astype``, and the typed stack is memoized."""
        graphs = [circuit_to_graph(get_circuit(n)) for n in available_circuits()]
        batch = batch_graphs(graphs)
        stack, _ = batch.adjacency_padded(dtype=dtype)
        assert batch.adjacency_padded(dtype=dtype)[0] is stack
        for g, graph in enumerate(graphs):
            n = graph.num_nodes
            expected = graph.adjacency_stack(normalize=True).astype(dtype)
            assert stack[:, g, :n, :n].tobytes() == expected.tobytes(), graph


class TestPolicyBatchedPath:
    def test_mixed_batch_act_matches_single_act(self):
        """Deterministic actions over a mixed-circuit batch equal the
        actions computed one observation at a time.

        The R-GCN features are bit-identical by contract (asserted
        below); the policy head's convolutions are only batch-invariant
        to float32 ulps (true before batched inference too), so the
        continuous outputs get a tight tolerance while the selected
        actions must match exactly.
        """
        agent = FloorplanAgent(config=_tiny_config())
        vec = VecEnv([
            FloorplanEnv(get_circuit("ota_small")),
            FloorplanEnv(get_circuit("bias_small")),
            FloorplanEnv(get_circuit("ota2")),
        ])
        observations = vec.reset()
        stacked = stack_observations(observations)
        nodes_b, gembs_b = agent.ppo._encode_batch(
            stacked.graphs, stacked.block_indices
        )
        actions, log_probs, values = agent.ppo.act(observations, deterministic=True)
        for i, obs in enumerate(observations):
            agent.ppo.invalidate_cache()  # force fresh (batched) encodes
            node_i, gemb_i = encode_reference(agent.ppo, obs)
            assert np.array_equal(nodes_b[i], node_i)
            assert np.array_equal(gembs_b[i], gemb_i)
            a, lp, v = agent.ppo.act([obs], deterministic=True)
            assert a[0] == actions[i]
            assert np.allclose(lp[0], log_probs[i], atol=1e-5)
            assert np.allclose(v[0], values[i], atol=1e-5)

    def test_act_accepts_stacked_observations(self):
        agent = FloorplanAgent(config=_tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        observations = vec.reset()
        a_list, lp_list, v_list = agent.ppo.act(observations, deterministic=True)
        stacked = stack_observations(observations)
        a_st, lp_st, v_st = agent.ppo.act(stacked, deterministic=True)
        assert np.array_equal(a_list, a_st)
        assert np.array_equal(lp_list, lp_st)
        assert np.array_equal(v_list, v_st)

    def test_collect_returns_stacked_and_roundtrips(self):
        agent = FloorplanAgent(config=_tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        observations = vec.reset()
        buffer, next_obs, _ = agent.ppo.collect(vec, observations)
        assert buffer.full
        assert len(next_obs) == 2
        # Stacked observations feed straight back into the next collect.
        buffer2, _, _ = agent.ppo.collect(vec, next_obs)
        assert buffer2.full

    def test_embedding_cache_lru_eviction(self):
        agent = FloorplanAgent(config=_tiny_config())
        ppo = agent.ppo
        ppo.EMBEDDING_CACHE_SIZE = 2
        envs = [FloorplanEnv(get_circuit(name)) for name in CIRCUITS[:3]]
        observations = [env.reset() for env in envs]
        encode_reference(ppo, observations[0])
        encode_reference(ppo, observations[1])
        # Touch the first entry so it is most recently used...
        encode_reference(ppo, observations[0])
        # ...then a third graph must evict the second (the LRU one).
        encode_reference(ppo, observations[2])
        keys = set(ppo._embedding_cache)
        assert observations[0].graph.uid in keys
        assert observations[1].graph.uid not in keys
        assert observations[2].graph.uid in keys
        assert len(ppo._embedding_cache) == 2

    def test_encode_batch_dedupes_shared_graphs(self, monkeypatch):
        """Vec-envs sharing one circuit encode that graph exactly once."""
        agent = FloorplanAgent(config=_tiny_config())
        ppo = agent.ppo
        env = FloorplanEnv(get_circuit("ota_small"))
        obs = env.reset()
        calls = []
        original = ppo.encoder.encode_batch_numpy

        def counting(graphs):
            calls.append(len(list(graphs)))
            return original(graphs)

        monkeypatch.setattr(ppo.encoder, "encode_batch_numpy", counting)
        stacked = stack_observations([obs, obs, obs])
        ppo._encode_batch(stacked.graphs, stacked.block_indices)
        assert calls == [1]
        # Second call: pure cache hit, no encoder work at all.
        ppo._encode_batch(stacked.graphs, stacked.block_indices)
        assert calls == [1]
