"""Tests for layers, convolutions, optimizers, losses, serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
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


class TestConv2d:
    def test_output_shape_stride1_pad1(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(6, 16, kernel_size=3, stride=1, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 32, 32)))
        out = conv(x)
        assert out.shape == (2, 16, 32, 32)

    def test_output_shape_stride2(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_conv_matches_manual_computation(self):
        # 1x1 input channel, identity-like check with known kernel
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 1.0
        w = np.arange(9.0).reshape(1, 1, 3, 3)
        xt, wt, bt = Tensor(x), Tensor(w, requires_grad=True), Tensor([0.0], requires_grad=True)
        out = F.conv2d(xt, wt, bt, stride=1, padding=1)
        # Cross-correlation of a centered delta yields the 180-degree-flipped kernel.
        assert np.allclose(out.numpy()[0, 0], w[0, 0][::-1, ::-1])
        assert np.isclose(out.numpy().sum(), w.sum())

    def test_conv_gradcheck_weight(self):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(1, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        b_data = np.zeros(3)

        def f(w_arr):
            out = F.conv2d(Tensor(x_data), Tensor(w_arr), Tensor(b_data), stride=1, padding=1)
            return float((out * out).sum().item())

        w = Tensor(w_data.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x_data), w, Tensor(b_data, requires_grad=True), stride=1, padding=1)
        (out * out).sum().backward()
        ng = numeric_grad(f, w_data.copy())
        assert np.allclose(w.grad, ng, atol=1e-4)

    def test_conv_gradcheck_input(self):
        rng = np.random.default_rng(4)
        x_data = rng.normal(size=(1, 1, 4, 4))
        w_data = rng.normal(size=(2, 1, 3, 3))
        b_data = rng.normal(size=2)

        def f(x_arr):
            out = F.conv2d(Tensor(x_arr), Tensor(w_data), Tensor(b_data), stride=2, padding=1)
            return float(out.sum().item())

        x = Tensor(x_data.copy(), requires_grad=True)
        F.conv2d(x, Tensor(w_data, requires_grad=True), Tensor(b_data), stride=2, padding=1).sum().backward()
        ng = numeric_grad(f, x_data.copy())
        assert np.allclose(x.grad, ng, atol=1e-4)


class TestConvTranspose2d:
    def test_output_shape_doubles_with_stride2(self):
        rng = np.random.default_rng(0)
        deconv = nn.ConvTranspose2d(32, 16, kernel_size=4, stride=2, padding=1, rng=rng)
        out = deconv(Tensor(rng.normal(size=(2, 32, 8, 8))))
        assert out.shape == (2, 16, 16, 16)

    def test_deconv_policy_head_reaches_32(self):
        """Paper IV-D3: three stride-2 deconvs from 4x4 reach 32x32."""
        rng = np.random.default_rng(0)
        d1 = nn.ConvTranspose2d(64, 32, 4, stride=2, padding=1, rng=rng)
        d2 = nn.ConvTranspose2d(32, 16, 4, stride=2, padding=1, rng=rng)
        d3 = nn.ConvTranspose2d(16, 8, 4, stride=2, padding=1, rng=rng)
        out = d3(d2(d1(Tensor(rng.normal(size=(1, 64, 4, 4))))))
        assert out.shape == (1, 8, 32, 32)

    def test_gradcheck_weight(self):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(1, 2, 3, 3))
        w_data = rng.normal(size=(2, 3, 4, 4))
        b_data = np.zeros(3)

        def f(w_arr):
            out = F.conv_transpose2d(Tensor(x_data), Tensor(w_arr), Tensor(b_data), stride=2, padding=1)
            return float((out * out).sum().item())

        w = Tensor(w_data.copy(), requires_grad=True)
        out = F.conv_transpose2d(Tensor(x_data), w, Tensor(b_data), stride=2, padding=1)
        (out * out).sum().backward()
        ng = numeric_grad(f, w_data.copy())
        assert np.allclose(w.grad, ng, atol=1e-4)

    def test_gradcheck_input(self):
        rng = np.random.default_rng(6)
        x_data = rng.normal(size=(1, 2, 3, 3))
        w_data = rng.normal(size=(2, 1, 4, 4))
        b_data = rng.normal(size=1)

        def f(x_arr):
            out = F.conv_transpose2d(Tensor(x_arr), Tensor(w_data), Tensor(b_data), stride=2, padding=1)
            return float((out * out).sum().item())

        x = Tensor(x_data.copy(), requires_grad=True)
        out = F.conv_transpose2d(x, Tensor(w_data), Tensor(b_data), stride=2, padding=1)
        (out * out).sum().backward()
        ng = numeric_grad(f, x_data.copy())
        assert np.allclose(x.grad, ng, atol=1e-4)

    def test_conv_and_transpose_are_adjoint(self):
        """<conv(x), y> == <x, convT(y)> with shared weights (the defining property)."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 3, 8, 8))
        y = rng.normal(size=(1, 5, 4, 4))
        w = rng.normal(size=(5, 3, 4, 4))  # conv layout (out,in,kh,kw)
        zero5, zero3 = np.zeros(5), np.zeros(3)
        conv_out = F.conv2d(Tensor(x), Tensor(w), Tensor(zero5), stride=2, padding=1).numpy()
        wT = w.transpose(1, 0, 2, 3).copy()  # convT layout is (in,out,kh,kw) w.r.t. its own input
        convT_out = F.conv_transpose2d(Tensor(y), Tensor(w), Tensor(zero3), stride=2, padding=1).numpy()
        assert np.isclose((conv_out * y).sum(), (x * convT_out).sum())


class TestLinearAndMLP:
    def test_linear_shapes(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(8, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(10, 8))))
        assert out.shape == (10, 3)

    def test_mlp_depth(self):
        net = nn.mlp([4, 8, 8, 1], rng=np.random.default_rng(0))
        # 3 Linear + 2 ReLU
        layers = [type(m) for m in net._modules.values()]
        assert layers == [nn.Linear, nn.ReLU, nn.Linear, nn.ReLU, nn.Linear]
        out = net(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 1)

    def test_sequential_parameter_collection(self):
        net = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        assert len(net.parameters()) == 4  # 2 weights + 2 biases


class TestOptimizers:
    def _quadratic_descent(self, optimizer_factory, steps=200, tol=1e-2):
        target = np.array([1.0, -2.0, 3.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = optimizer_factory([p])
        for _ in range(steps):
            opt.zero_grad()
            d = p - target
            loss = (d * d).sum()
            loss.backward()
            opt.step()
        assert np.allclose(p.data, target, atol=tol)

    def test_adam_converges(self):
        self._quadratic_descent(lambda ps: nn.Adam(ps, lr=0.1))

    def test_clip_grad_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = nn.Adam([p], lr=0.1)
        (p * 100.0).sum().backward()
        pre_norm = opt.clip_grad_norm(1.0)
        assert pre_norm == pytest.approx(200.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ValueError):
            nn.Adam([Tensor([1.0])])


class TestLosses:
    def test_mse_zero_at_match(self):
        pred = Tensor([1.0, 2.0])
        assert nn.mse_loss(pred, np.array([1.0, 2.0])).item() == 0.0

    def test_mse_value(self):
        pred = Tensor([0.0, 0.0])
        assert nn.mse_loss(pred, np.array([2.0, 2.0])).item() == pytest.approx(4.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        net = nn.mlp([4, 8, 2], rng=rng)
        path = str(tmp_path / "model.npz")
        nn.save_module(net, path)
        net2 = nn.mlp([4, 8, 2], rng=np.random.default_rng(99))
        nn.load_module(net2, path)
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(net(x).numpy(), net2(x).numpy())

    def test_load_rejects_shape_mismatch(self, tmp_path):
        net = nn.mlp([4, 8, 2], rng=np.random.default_rng(0))
        path = str(tmp_path / "model.npz")
        nn.save_module(net, path)
        other = nn.mlp([4, 9, 2], rng=np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            nn.load_module(other, path)

    def test_state_dict_names_are_hierarchical(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.Linear(2, 1))
        names = [n for n, _ in net.named_parameters()]
        assert any("layer0" in n for n in names)
        assert any("layer1" in n for n in names)


class TestTrainingSmoke:
    def test_tiny_regression_learns(self):
        """End-to-end: MLP + Adam fits y = 2x on a toy set."""
        rng = np.random.default_rng(0)
        net = nn.mlp([1, 16, 1], rng=rng)
        opt = nn.Adam(net.parameters(), lr=1e-2)
        x = rng.uniform(-1, 1, size=(64, 1))
        y = 2.0 * x
        first_loss = None
        for step in range(300):
            opt.zero_grad()
            loss = nn.mse_loss(net(Tensor(x)), y)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05 * first_loss
