"""Tests for R-GCN layers, the reward model, and dataset generation."""

import numpy as np
import pytest

from repro.circuits import get_circuit, random_circuit
from repro.config import EMBEDDING_DIM, PretrainConfig
from repro.gnn import (
    DatasetConfig,
    RGCNEncoder,
    RGCNLayer,
    RewardModel,
    dataset_statistics,
    generate_dataset,
    predict_reward,
    train_reward_model,
)
from repro.graph import FEATURE_DIM, RELATIONS, HeteroGraph, batch_graphs, circuit_to_graph
from repro.nn import Adam, Tensor


def _graph(name="ota2"):
    return circuit_to_graph(get_circuit(name))


def _layer_inputs(graph, layer):
    """One graph as a padded batch of one: ``(h, adj_padded, active)``."""
    batch = batch_graphs([graph])
    adj_padded, active = batch.adjacency_padded(dtype=layer.dtype)
    return Tensor(batch.features_padded(dtype=layer.dtype)), adj_padded, active


class TestRGCNLayer:
    def test_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = RGCNLayer(6, 8, rng=rng)
        g = HeteroGraph(4, np.eye(4, 6), {"connect": [(0, 1)], "v_sym": [(2, 3)]})
        out = layer(*_layer_inputs(g, layer))
        assert out.shape == (1, 4, 8)

    def test_rejects_wrong_relation_count(self):
        layer = RGCNLayer(3, 3, num_relations=2)
        with pytest.raises(ValueError):
            layer(Tensor(np.eye(3)[None]), np.zeros((5, 1, 3, 3)), np.ones(5, dtype=bool))

    def test_relations_affect_output(self):
        """Same topology under different relations gives different embeddings."""
        rng = np.random.default_rng(2)
        layer = RGCNLayer(4, 4, rng=rng)
        feats = np.eye(4)
        g_connect = HeteroGraph(4, feats, {"connect": [(0, 1), (2, 3)]})
        g_sym = HeteroGraph(4, feats, {"v_sym": [(0, 1), (2, 3)]})
        out_a = layer(*_layer_inputs(g_connect, layer)).numpy()
        out_b = layer(*_layer_inputs(g_sym, layer)).numpy()
        assert not np.allclose(out_a, out_b)

    def test_gradients_flow(self):
        rng = np.random.default_rng(3)
        layer = RGCNLayer(4, 4, rng=rng)
        g = HeteroGraph(3, np.eye(3, 4), {"connect": [(0, 1), (1, 2)]})
        out = layer(*_layer_inputs(g, layer))
        (out * out).sum().backward()
        assert layer.w_self.grad is not None
        assert layer.relation_weight(0).grad is not None


class TestRGCNEncoder:
    def test_embedding_dims(self):
        rng = np.random.default_rng(0)
        enc = RGCNEncoder(FEATURE_DIM, rng=rng)
        nodes, graph_emb = enc.encode_batch([_graph()])
        assert nodes.shape == (8, EMBEDDING_DIM)
        assert graph_emb.shape == (1, EMBEDDING_DIM)

    def test_permutation_invariance_of_graph_embedding(self):
        """Relabeling nodes must not change the mean-pooled embedding."""
        rng = np.random.default_rng(1)
        enc = RGCNEncoder(4, hidden_dim=8, num_layers=2, rng=rng)
        feats = rng.normal(size=(5, 4))
        edges = [(0, 1), (1, 2), (3, 4)]
        g = HeteroGraph(5, feats, {"connect": list(edges)})
        perm = np.array([2, 0, 4, 1, 3])
        inv = np.argsort(perm)
        g_perm = HeteroGraph(
            5, feats[perm],
            {"connect": [(int(inv[u]), int(inv[v])) for u, v in edges]},
        )
        _, emb_a = enc.encode_batch([g])
        _, emb_b = enc.encode_batch([g_perm])
        assert np.allclose(emb_a.numpy(), emb_b.numpy(), atol=1e-10)

    def test_encode_batch_numpy_no_grad(self):
        enc = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(0))
        [(nodes, emb)] = enc.encode_batch_numpy([_graph("ota1")])
        assert isinstance(nodes, np.ndarray)
        assert nodes.shape == (5, EMBEDDING_DIM)
        assert emb.shape == (EMBEDDING_DIM,)
        assert all(p.grad is None for p in enc.parameters())

    def test_handles_varied_circuit_sizes(self):
        enc = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(0))
        graphs = [circuit_to_graph(get_circuit(n)) for n in ("ota_small", "driver", "bias2")]
        nodes, emb = enc.encode_batch(graphs)
        assert nodes.shape == (sum(g.num_nodes for g in graphs), EMBEDDING_DIM)
        assert emb.shape == (len(graphs), EMBEDDING_DIM)


class TestRewardModel:
    def test_scalar_prediction(self):
        model = RewardModel(FEATURE_DIM, rng=np.random.default_rng(0))
        value = model.predict(_graph())
        assert isinstance(value, float)

    def test_training_reduces_loss(self):
        """The model must fit a small synthetic corpus (sanity of the
        whole supervised path: graphs -> encoder -> head -> MSE)."""
        rng = np.random.default_rng(0)
        dataset = []
        for k in range(24):
            ckt = random_circuit(rng, num_blocks=int(rng.integers(3, 7)))
            g = circuit_to_graph(ckt)
            # Synthetic but learnable target: reward tied to graph size.
            dataset.append((g, -float(g.num_nodes) / 2.0))
        model = RewardModel(FEATURE_DIM, rng=np.random.default_rng(1))
        history = train_reward_model(
            model, dataset,
            PretrainConfig(epochs=25, batch_size=8, learning_rate=3e-3, seed=0),
        )
        assert history.train_loss[-1] < history.train_loss[0] * 0.5

    def test_predict_reward_destandardizes(self):
        rng = np.random.default_rng(0)
        dataset = [(_graph("ota_small"), -3.0), (_graph("ota1"), -5.0),
                   (_graph("ota2"), -4.0), (_graph("bias1"), -6.0)]
        model = RewardModel(FEATURE_DIM, rng=rng)
        train_reward_model(model, dataset, PretrainConfig(epochs=2, batch_size=2, seed=0))
        value = predict_reward(model, _graph("ota1"))
        # de-standardized prediction should land in a sane reward range
        assert -50.0 < value < 10.0

    def test_training_rejects_tiny_dataset(self):
        model = RewardModel(FEATURE_DIM)
        with pytest.raises(ValueError):
            train_reward_model(model, [(_graph(), -1.0)])


class TestDataset:
    def test_generate_small_dataset(self):
        config = DatasetConfig(size=6, seed=0, sa_moves=4, ga_generations=2,
                               pso_iterations=2, max_blocks=5)
        samples = generate_dataset(config)
        assert len(samples) == 6
        for graph, reward in samples:
            assert graph.num_nodes >= 3
            assert np.isfinite(reward)
            # Eq. 5 rewards hover near/below 0 (the normalizer is a proxy
            # lower bound, so slightly positive values are possible).
            assert reward < 5.0

    def test_statistics(self):
        config = DatasetConfig(size=4, seed=1, sa_moves=3, ga_generations=2,
                               pso_iterations=2, max_blocks=4)
        samples = generate_dataset(config)
        stats = dataset_statistics(samples)
        assert stats["size"] == 4
        assert stats["nodes_min"] >= 3

    def test_seeded_reproducibility(self):
        config = DatasetConfig(size=3, seed=42, sa_moves=3, ga_generations=2,
                               pso_iterations=2, max_blocks=4)
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert [r for _, r in a] == [r for _, r in b]
