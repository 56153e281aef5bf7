"""Grad-mode semantics: nesting, re-entry, requires_grad interplay, and the
guarantee that no tape is allocated under ``nn.no_grad()`` (ISSUE 5)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestGradModeSwitch:
    def test_enabled_by_default(self):
        assert nn.is_grad_enabled()

    def test_no_grad_disables_and_restores(self):
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_nesting(self):
        with nn.no_grad():
            with nn.no_grad():
                assert not nn.is_grad_enabled()
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_reentry_of_same_context_object(self):
        ctx = nn.no_grad()
        with ctx:
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()
        with ctx:
            with ctx:  # nested reuse of one instance
                assert not nn.is_grad_enabled()
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()


class TestThreadIsolation:
    def test_no_grad_in_one_thread_does_not_leak(self):
        """A no_grad() block in an engine worker thread must not disable
        tape recording for training running concurrently elsewhere."""
        import threading

        inside = threading.Event()
        release = threading.Event()

        def worker():
            with nn.no_grad():
                inside.set()
                release.wait(timeout=5)

        t = threading.Thread(target=worker)
        t.start()
        assert inside.wait(timeout=5)
        try:
            assert nn.is_grad_enabled()  # main thread unaffected
            x = Tensor([1.0], requires_grad=True)
            y = (x * 2).sum()
            assert y.requires_grad
            y.backward()
            assert np.allclose(x.grad, [2.0])
        finally:
            release.set()
            t.join(timeout=5)

    def test_fresh_thread_starts_with_grad_enabled(self):
        import threading

        seen = []
        with nn.no_grad():
            t = threading.Thread(target=lambda: seen.append(nn.is_grad_enabled()))
            t.start()
            t.join(timeout=5)
        assert seen == [True]


class TestNoTapeAllocation:
    def test_ops_record_no_parents_or_closure(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with nn.no_grad():
            y = (x * 2 + 1).relu().sum()
        assert not y.requires_grad
        assert y._parents == ()
        assert y._backward is None

    def test_free_functions_record_no_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        with nn.no_grad():
            for out in (
                nn.concatenate([a, b], axis=0),
                nn.where(np.ones((2, 2), dtype=bool), a, b),
                nn.log_softmax(a),
                nn.gather(a, np.array([0, 1])),
            ):
                assert not out.requires_grad
                assert out._parents == ()

    def test_backward_on_no_grad_result_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            y = (x * 2).sum()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_leaf_requires_grad_is_preserved(self):
        with nn.no_grad():
            x = Tensor([1.0], requires_grad=True)
            y = x * 2
        assert x.requires_grad          # the leaf flag is untouched
        assert not y.requires_grad      # but no graph was recorded
        (x * 2).sum().backward()        # outside the context grads flow again
        assert np.allclose(x.grad, [2.0])

    def test_values_identical_with_and_without_tape(self):
        rng = np.random.default_rng(0)
        net = nn.mlp([6, 16, 3], rng=rng)
        x = Tensor(rng.normal(size=(4, 6)))
        tracked = net(x).numpy()
        with nn.no_grad():
            free = net(x).numpy()
        assert np.array_equal(tracked, free)

    def test_grads_untouched_by_no_grad_inference(self):
        net = nn.mlp([3, 4, 1], rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 3)))
        net(x).sum().backward()
        before = [p.grad.copy() for p in net.parameters()]
        with nn.no_grad():
            net(Tensor(np.full((2, 3), 7.0)))
        for g0, p in zip(before, net.parameters()):
            assert np.array_equal(g0, p.grad)


class TestInferenceEntryPoints:
    def test_encoder_encode_batch_numpy_is_tape_free(self):
        from repro.circuits import get_circuit
        from repro.gnn.rgcn import RGCNEncoder
        from repro.graph.features import FEATURE_DIM, circuit_to_graph

        encoder = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(0))
        graph = circuit_to_graph(get_circuit("ota_small"))
        [(nodes, graph_emb)] = encoder.encode_batch_numpy([graph])
        assert nodes.shape[1] == graph_emb.shape[0]
        assert all(p.grad is None for p in encoder.parameters())
        assert nn.is_grad_enabled()

    def test_tracked_reference_matches_encode_batch_numpy(self):
        from repro.circuits import get_circuit
        from repro.gnn.rgcn import RGCNEncoder
        from repro.graph.features import FEATURE_DIM, circuit_to_graph

        from oracles import rgcn_encode_reference

        encoder = RGCNEncoder(FEATURE_DIM, rng=np.random.default_rng(1))
        graph = circuit_to_graph(get_circuit("bias_small"))
        nodes_t, emb_t = rgcn_encode_reference(encoder, graph)
        assert emb_t.requires_grad
        [(nodes_n, emb_n)] = encoder.encode_batch_numpy([graph])
        assert np.array_equal(nodes_t.numpy(), nodes_n)
        assert np.array_equal(emb_t.numpy(), emb_n)
