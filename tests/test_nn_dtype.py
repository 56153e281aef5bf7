"""Dtype-policy tests (ISSUE 5): float32 default, float64 golden mode,
state-dict round trips, optimizer-state dtypes, float32/float64 parity,
fused masked-categorical equivalence, and embedding-cache keying."""

import multiprocessing
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.rl.distributions import MASK_VALUE, MaskedCategorical

from oracles import encode_reference, rgcn_encode_reference


@pytest.fixture(params=[np.float32, np.float64], ids=["f32", "f64"])
def dtype(request):
    with nn.dtype_scope(request.param):
        yield np.dtype(request.param)


class TestDtypePolicy:
    def test_scalars_and_lists_follow_default(self, dtype):
        assert Tensor([1.0, 2.0]).data.dtype == dtype
        assert Tensor(3.0).data.dtype == dtype
        assert Tensor(np.arange(3)).data.dtype == dtype  # int arrays cast

    def test_explicit_float_arrays_keep_their_dtype(self, dtype):
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32

    def test_parameters_and_grads_follow_policy(self, dtype):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        assert layer.weight.data.dtype == dtype
        assert layer.bias.data.dtype == dtype
        assert layer.dtype == dtype
        out = layer(Tensor(np.ones((3, 4), dtype=dtype)))
        assert out.numpy().dtype == dtype
        out.sum().backward()
        assert layer.weight.grad.dtype == dtype

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype(np.int32)

    def test_conv_im2col_path_keeps_dtype(self, dtype):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        deconv = nn.ConvTranspose2d(3, 2, 4, stride=2, padding=1, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 2, 8, 8), dtype=dtype))
        h = conv(x)
        y = deconv(h)
        assert h.numpy().dtype == dtype
        assert y.numpy().dtype == dtype
        y.sum().backward()
        assert conv.weight.grad.dtype == dtype
        assert deconv.weight.grad.dtype == dtype


class TestStateDictRoundTrip:
    def test_round_trip_preserves_dtype_and_values(self, dtype, tmp_path):
        net = nn.mlp([4, 8, 2], rng=np.random.default_rng(0))
        path = str(tmp_path / "net.npz")
        nn.save_module(net, path)
        twin = nn.mlp([4, 8, 2], rng=np.random.default_rng(9))
        nn.load_module(twin, path)
        for (name, p), (_, q) in zip(net.named_parameters(), twin.named_parameters()):
            assert q.data.dtype == dtype, name
            assert np.array_equal(p.data, q.data), name

    def test_cross_dtype_load_keeps_module_dtype(self, tmp_path):
        with nn.dtype_scope(np.float64):
            src = nn.mlp([3, 5, 1], rng=np.random.default_rng(0))
        path = str(tmp_path / "f64.npz")
        nn.save_module(src, path)
        with nn.dtype_scope(np.float32):
            dst = nn.mlp([3, 5, 1], rng=np.random.default_rng(1))
        nn.load_module(dst, path)  # float64 checkpoint into float32 module
        for _, p in dst.named_parameters():
            assert p.data.dtype == np.float32
        # and the reverse: float32 checkpoint into a float64 module
        path32 = str(tmp_path / "f32.npz")
        nn.save_module(dst, path32)
        nn.load_module(src, path32)
        for _, p in src.named_parameters():
            assert p.data.dtype == np.float64

    def test_agent_save_load_round_trip_keeps_dtype(self, dtype, tmp_path):
        from repro.rl.policy import ActorCritic

        policy = ActorCritic(rng=np.random.default_rng(0))
        path = str(tmp_path / "policy.npz")
        nn.save_module(policy, path)
        twin = ActorCritic(rng=np.random.default_rng(1))
        nn.load_module(twin, path)
        for (_, p), (_, q) in zip(policy.named_parameters(), twin.named_parameters()):
            assert q.data.dtype == dtype
            assert np.array_equal(p.data, q.data)


class TestOptimizerDtype:
    def test_adam_state_matches_param_dtype(self, dtype):
        p = Tensor(np.ones(5, dtype=dtype), requires_grad=True)
        opt = nn.Adam([p], lr=0.1)
        assert opt._m.dtype == dtype and opt._v.dtype == dtype
        (p * 2.0).sum().backward()
        assert p.grad.dtype == dtype
        opt.step()
        assert p.data.dtype == dtype

    def test_clip_grad_norm_no_upcast(self, dtype):
        p = Tensor(np.zeros(4, dtype=dtype), requires_grad=True)
        opt = nn.Adam([p], lr=0.1)
        (p * 100.0).sum().backward()
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert p.grad.dtype == dtype
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_flat_adam_matches_per_parameter_reference(self):
        """The flat-vector step must reproduce the per-parameter formulas
        bit-for-bit in float64."""
        rng = np.random.default_rng(0)
        with nn.dtype_scope(np.float64):
            shapes = [(3, 4), (4,), (2, 3, 2)]
            params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
            grads = [rng.normal(size=s) for s in shapes]
            reference = [p.data.copy() for p in params]
            m = [np.zeros(s) for s in shapes]
            v = [np.zeros(s) for s in shapes]
            opt = nn.Adam(params, lr=0.05)
            beta1, beta2, eps = opt.beta1, opt.beta2, opt.eps
            for t in range(1, 4):
                for p, g in zip(params, grads):
                    p.grad = g.copy()
                opt.step()
                b1t, b2t = 1.0 - beta1 ** t, 1.0 - beta2 ** t
                for i, g in enumerate(grads):
                    m[i] = beta1 * m[i] + (1 - beta1) * g
                    v[i] = beta2 * v[i] + (1 - beta2) * g ** 2
                    reference[i] -= 0.05 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)
            for p, ref in zip(params, reference):
                assert np.array_equal(p.data, ref)

    def test_clip_grad_norm_bit_identical_to_seed_formula(self):
        """float64 golden mode: the clip accumulates ``np.sum(grad**2)``
        per parameter — any regrouping (e.g. a BLAS dot over the flat
        vector) drifts in the last ulp and desynchronizes every clipped
        training step from the seed."""
        rng = np.random.default_rng(3)
        with nn.dtype_scope(np.float64):
            shapes = [(64, 33), (129,), (7, 5, 3)]
            params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
            grads = [rng.normal(size=s) * 10.0 for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt = nn.Adam(params, lr=0.1)
            norm = opt.clip_grad_norm(1.0)
            total = 0.0
            for g in grads:
                total += float(np.sum(g ** 2))
            ref_norm = float(np.sqrt(total))
            assert norm == ref_norm
            scale = 1.0 / ref_norm
            for p, g in zip(params, grads):
                ref = g.copy()
                ref *= scale
                assert np.array_equal(p.grad, ref)

    def test_adam_skips_parameters_without_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        opt = nn.Adam([a, b], lr=0.1)
        a.grad = np.full(2, 0.5, dtype=a.data.dtype)
        opt.step()
        assert not np.allclose(a.data, 1.0)
        assert np.allclose(b.data, 1.0)
        assert np.allclose(opt._v[2:], 0.0)  # b's moments untouched


class TestFloat32Float64Parity:
    def test_actor_critic_forward_parity(self):
        from repro.rl.policy import ActorCritic

        with nn.dtype_scope(np.float32):
            p32 = ActorCritic(rng=np.random.default_rng(7))
        with nn.dtype_scope(np.float64):
            p64 = ActorCritic(rng=np.random.default_rng(7))
        rng = np.random.default_rng(3)
        masks = rng.uniform(size=(2, 6, 32, 32))
        node = rng.normal(size=(2, 32))
        graph = rng.normal(size=(2, 32))
        l32, v32 = p32(Tensor(masks), Tensor(node), Tensor(graph))
        l64, v64 = p64(Tensor(masks), Tensor(node), Tensor(graph))
        assert l32.numpy().dtype == np.float32
        assert l64.numpy().dtype == np.float64
        assert np.allclose(l32.numpy(), l64.numpy(), rtol=1e-3, atol=1e-3)
        assert np.allclose(v32.numpy(), v64.numpy(), rtol=1e-3, atol=1e-3)

    def test_rgcn_encode_parity(self):
        from repro.circuits import get_circuit
        from repro.gnn.rgcn import RGCNEncoder
        from repro.graph.features import FEATURE_DIM, circuit_to_graph

        graph = circuit_to_graph(get_circuit("ota1"))
        with nn.dtype_scope(np.float32):
            e32 = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(5))
        with nn.dtype_scope(np.float64):
            e64 = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(5))
        with nn.no_grad():
            n32, g32 = (t.numpy() for t in rgcn_encode_reference(e32, graph))
            n64, g64 = (t.numpy() for t in rgcn_encode_reference(e64, graph))
        assert n32.dtype == np.float32 and n64.dtype == np.float64
        assert np.allclose(n32, n64, rtol=1e-4, atol=1e-5)
        assert np.allclose(g32, g64, rtol=1e-4, atol=1e-5)
        for encoder, nodes, graph_emb in ((e32, n32, g32), (e64, n64, g64)):
            [(nodes_b, graph_emb_b)] = encoder.encode_batch_numpy([graph])
            assert np.array_equal(nodes_b, nodes)
            assert np.array_equal(graph_emb_b, graph_emb)

    def test_float64_forward_is_deterministic_golden(self):
        """Under REPRO_NN_DTYPE=float64 semantics, repeated forwards (with
        and without tape) are bit-for-bit identical."""
        from repro.rl.policy import ActorCritic

        with nn.dtype_scope(np.float64):
            policy = ActorCritic(rng=np.random.default_rng(0))
            rng = np.random.default_rng(1)
            masks = Tensor(rng.uniform(size=(1, 6, 32, 32)))
            node = Tensor(rng.normal(size=(1, 32)))
            graph = Tensor(rng.normal(size=(1, 32)))
            l_a, v_a = policy(masks, node, graph)
            with nn.no_grad():
                l_b, v_b = policy(masks, node, graph)
            assert np.array_equal(l_a.numpy(), l_b.numpy())
            assert np.array_equal(v_a.numpy(), v_b.numpy())


class _ChainMaskedCategorical:
    """The pre-fusion formulation (separate where/log_softmax/exp passes),
    kept as the golden reference for the fused implementation."""

    def __init__(self, logits, mask):
        self.mask = np.asarray(mask, dtype=bool)
        self.masked_logits = nn.where(
            self.mask, logits, Tensor(np.full(logits.shape, MASK_VALUE))
        )
        self.log_probs = nn.log_softmax(self.masked_logits, axis=-1)

    def log_prob(self, actions):
        return nn.gather(self.log_probs, np.asarray(actions, dtype=np.int64))

    def entropy(self):
        probs = self.log_probs.exp()
        plogp = probs * self.log_probs
        plogp = nn.where(self.mask, plogp, Tensor(np.zeros(self.mask.shape)))
        return -plogp.sum(axis=-1)


class TestFusedMaskedCategorical:
    def _setup(self, rng):
        logits_data = rng.normal(size=(5, 12))
        mask = rng.uniform(size=(5, 12)) > 0.4
        mask[:, 0] = True  # every row keeps one valid action
        return logits_data, mask

    def test_float64_log_probs_bit_identical_to_chain(self):
        with nn.dtype_scope(np.float64):
            rng = np.random.default_rng(0)
            logits_data, mask = self._setup(rng)
            fused = MaskedCategorical(Tensor(logits_data), mask)
            chain = _ChainMaskedCategorical(Tensor(logits_data), mask)
            assert np.array_equal(fused.log_probs.numpy(), chain.log_probs.numpy())
            assert np.array_equal(fused.entropy().numpy(), chain.entropy().numpy())
            actions = np.array([0, 0, 1, 2, 3])
            assert np.array_equal(
                fused.log_prob(actions).numpy(), chain.log_prob(actions).numpy()
            )

    def test_fused_backward_matches_chain_backward(self):
        with nn.dtype_scope(np.float64):
            rng = np.random.default_rng(1)
            logits_data, mask = self._setup(rng)
            actions = np.array([0, 1, 0, 2, 0])

            t_fused = Tensor(logits_data.copy(), requires_grad=True)
            dist_f = MaskedCategorical(t_fused, mask)
            (dist_f.log_prob(actions).sum() + dist_f.entropy().sum()).backward()

            t_chain = Tensor(logits_data.copy(), requires_grad=True)
            dist_c = _ChainMaskedCategorical(t_chain, mask)
            (dist_c.log_prob(actions).sum() + dist_c.entropy().sum()).backward()

            assert np.allclose(t_fused.grad, t_chain.grad, rtol=1e-12, atol=1e-12)
            assert np.allclose(t_fused.grad[~mask], 0.0)

    def test_probs_returns_a_copy(self, dtype):
        """`probs` hands out a fresh array: the internal softmax cache
        also feeds the fused backward, so an in-place edit by a caller
        must not corrupt subsequent gradients."""
        rng = np.random.default_rng(4)
        logits_data, mask = self._setup(rng)
        dist = MaskedCategorical(Tensor(logits_data), mask)
        expected = np.exp(dist.log_probs.numpy())
        probs = dist.probs
        probs[:] = 0.0
        assert np.array_equal(dist.probs, expected)

    def test_sample_and_mode_agree_with_chain(self, dtype):
        rng = np.random.default_rng(2)
        logits_data, mask = self._setup(rng)
        fused = MaskedCategorical(Tensor(logits_data), mask)
        chain = _ChainMaskedCategorical(Tensor(logits_data), mask)
        mode_chain = np.where(mask, chain.log_probs.numpy(), -np.inf).argmax(axis=-1)
        assert np.array_equal(fused.mode(), mode_chain)
        samples = fused.sample(np.random.default_rng(3))
        assert mask[np.arange(mask.shape[0]), samples].all()


class TestRolloutBufferDtype:
    def test_storage_matches_requested_dtype(self, dtype):
        from repro.rl.rollout import RolloutBuffer

        buf = RolloutBuffer(4, 2, 32)
        for arr in (buf.masks, buf.node_emb, buf.graph_emb, buf.log_probs,
                    buf.values, buf.rewards, buf.advantages, buf.returns):
            assert arr.dtype == dtype
        assert buf.actions.dtype == np.int64
        assert buf.action_mask.dtype == bool

    def test_minibatches_no_float64_round_trip(self):
        from repro.config import ACTION_SPACE, EMBEDDING_DIM
        from repro.rl.rollout import RolloutBuffer

        buf = RolloutBuffer(2, 1, EMBEDDING_DIM, dtype=np.float32)
        mask = np.ones((1, ACTION_SPACE), dtype=bool)
        for _ in range(2):
            buf.add(
                np.zeros((1, 6, 32, 32)), np.zeros((1, EMBEDDING_DIM)),
                np.zeros((1, EMBEDDING_DIM)), mask, np.zeros(1, dtype=int),
                np.zeros(1), np.full(1, 0.5), np.ones(1), np.zeros(1, dtype=bool),
            )
        buf.compute_gae(np.zeros(1), gamma=0.99, lam=0.95)
        batch = next(buf.iter_minibatches(2, np.random.default_rng(0)))
        assert batch.masks.dtype == np.float32
        assert batch.advantages.dtype == np.float32
        assert batch.returns.dtype == np.float32
        assert batch.old_log_probs.dtype == np.float32


class TestEmbeddingCacheKeying:
    def test_uid_is_unique_and_pickle_stable(self):
        from repro.graph.hetero import HeteroGraph

        g1 = HeteroGraph(2, np.zeros((2, 3)))
        g2 = HeteroGraph(2, np.zeros((2, 3)))  # identical content
        assert g1.uid != g2.uid
        clone = pickle.loads(pickle.dumps(g1))
        assert clone.uid == g1.uid

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_uid_unique_across_forked_workers(self):
        """fork copies the uid salt and counter, so without the at-fork
        reseed two workers' first post-fork graphs would share a uid and
        poison any embedding cache keyed on it."""
        from repro.graph.hetero import HeteroGraph

        ctx = multiprocessing.get_context("fork")

        def build(queue):
            queue.put(HeteroGraph(2, np.zeros((2, 3))).uid)

        parent_uid = HeteroGraph(2, np.zeros((2, 3))).uid
        queue = ctx.Queue()
        workers = [ctx.Process(target=build, args=(queue,)) for _ in range(2)]
        for w in workers:
            w.start()
        child_uids = [queue.get(timeout=30) for _ in workers]
        for w in workers:
            w.join()
        assert len({parent_uid, *child_uids}) == 3

    def test_cache_distinguishes_equal_content_graphs(self):
        from repro.circuits import get_circuit
        from repro.gnn.rgcn import RGCNEncoder
        from repro.graph.features import FEATURE_DIM, circuit_to_graph
        from repro.rl.policy import ActorCritic
        from repro.rl.ppo import MaskedPPO

        rng = np.random.default_rng(0)
        ppo = MaskedPPO(ActorCritic(rng=rng), RGCNEncoder(FEATURE_DIM, rng=rng))
        circuit = get_circuit("ota_small")
        g1, g2 = circuit_to_graph(circuit), circuit_to_graph(circuit)
        obs1 = SimpleNamespace(graph=g1, block_index=0)
        obs2 = SimpleNamespace(graph=g2, block_index=0)
        n1, e1 = encode_reference(ppo, obs1)
        n2, e2 = encode_reference(ppo, obs2)
        assert len(ppo._embedding_cache) == 2  # keyed per graph token, not content
        assert np.array_equal(n1, n2) and np.array_equal(e1, e2)
        # a pickled round trip of the same graph hits the existing entry
        obs3 = SimpleNamespace(graph=pickle.loads(pickle.dumps(g1)), block_index=0)
        encode_reference(ppo, obs3)
        assert len(ppo._embedding_cache) == 2
        ppo.invalidate_cache()
        assert not ppo._embedding_cache

    def test_adjacency_stack_cache_invalidated_by_add_edge(self):
        from repro.graph.hetero import HeteroGraph

        g = HeteroGraph(3, np.zeros((3, 4)), {"connect": [(0, 1)]})
        first = g.adjacency_stack()
        assert g.adjacency_stack() is first  # cached
        g.add_edge("connect", 1, 2)
        second = g.adjacency_stack()
        assert second is not first
        assert second[0, 1, 2] > 0
