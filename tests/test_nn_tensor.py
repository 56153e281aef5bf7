"""Unit and property tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.tensor import Tensor, _unbroadcast


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestBasicOps:
    def test_add_broadcast_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5.0, 7.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (-(a - 3.0)).sum()
        out.backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 5))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 5)) @ b_data.T)
        assert np.allclose(b.grad, a_data.T @ np.ones((3, 5)))

    def test_matmul_vec(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and b.grad is not None

    def test_grad_accumulates_over_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2 + a * 3).backward()
        assert np.allclose(a.grad, [5.0])

    def test_no_grad_tracking_when_not_required(self):
        a = Tensor([1.0])
        out = a * 2
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            out.backward()

    def test_backward_nonscalar_requires_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()


class TestActivations:
    @pytest.mark.parametrize("name", ["relu", "exp"])
    def test_numeric_gradcheck(self, name):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3)) + 0.1  # avoid the relu kink at 0
        t = Tensor(x.copy(), requires_grad=True)
        out = getattr(t, name)().sum()
        out.backward()

        def f(arr):
            tt = Tensor(arr)
            return float(getattr(tt, name)().sum().item())

        ng = numeric_grad(f, x.copy())
        assert np.allclose(t.grad, ng, atol=1e-4)

    def test_log_grad(self):
        x = np.array([0.5, 1.5, 2.5])
        t = Tensor(x, requires_grad=True)
        t.log().sum().backward()
        assert np.allclose(t.grad, 1.0 / x)

    def test_clip_grad_masks_out_of_range(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_mean_axis(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        t.mean(axis=0).sum().backward()
        assert np.allclose(t.grad, np.full((3, 4), 1 / 3))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_reshape_transpose_roundtrip(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.T.reshape(2, 3).sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))


class TestFreeFunctions:
    def test_concatenate_grad_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = nn.concatenate([a, b], axis=0)
        (out * np.arange(10.0).reshape(5, 2)).sum().backward()
        assert np.allclose(a.grad, [[0, 1], [2, 3]])
        assert np.allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_where_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        nn.where(np.array([True, False]), a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0])
        assert np.allclose(b.grad, [0, 1])

    def test_log_softmax_rows_normalize(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 7)))
        probs = nn.log_softmax(x).exp().numpy()
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_log_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        lp = nn.log_softmax(x).numpy()
        assert np.isfinite(lp).all()

    def test_gather(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = nn.gather(x, np.array([2, 0]))
        assert np.allclose(out.numpy(), [2.0, 3.0])
        out.sum().backward()
        assert np.allclose(x.grad, [[0, 0, 1], [1, 0, 0]])


class TestUnbroadcast:
    @given(
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, rows, cols):
        base = np.ones((1, cols))
        grad = np.ones((rows, cols))
        out = _unbroadcast(grad, base.shape)
        assert out.shape == base.shape
        assert np.allclose(out, rows)

    def test_unbroadcast_extra_leading_dims(self):
        grad = np.ones((4, 3, 2))
        out = _unbroadcast(grad, (2,))
        assert out.shape == (2,)
        assert np.allclose(out, 12.0)


class TestEndToEndGradcheck:
    """Composite-expression gradient checks against finite differences."""

    def test_small_mlp_like_expression(self):
        rng = np.random.default_rng(7)
        x_data = rng.normal(size=(5, 3))
        w_data = rng.normal(size=(3, 4))

        def f(w_arr):
            x = Tensor(x_data)
            w = Tensor(w_arr)
            h = (x @ w).exp()
            return float((h * h).mean().item())

        w = Tensor(w_data.copy(), requires_grad=True)
        x = Tensor(x_data)
        h = (x @ w).exp()
        (h * h).mean().backward()
        ng = numeric_grad(f, w_data.copy())
        assert np.allclose(w.grad, ng, atol=1e-5)

    def test_log_softmax_gradcheck(self):
        rng = np.random.default_rng(8)
        x_data = rng.normal(size=(3, 5))

        def f(arr):
            return float(nn.gather(nn.log_softmax(Tensor(arr)), picks).sum().item())

        picks = np.array([0, 2, 4])
        x = Tensor(x_data.copy(), requires_grad=True)
        nn.gather(nn.log_softmax(x), picks).sum().backward()
        ng = numeric_grad(f, x_data.copy())
        assert np.allclose(x.grad, ng, atol=1e-5)
