"""The batch-folded conv/linear kernels, leaf-only autograd and the blocked Adam.

``tests/oracles.py`` keeps the per-sample kernels these replaced.  The
new kernels keep their per-element arithmetic (the same dot products,
taps folded in the same order, bias grads grouped the same way), but a
BLAS library may group a batch-folded GEMM's dot products differently
from per-sample ones, so values and gradients are pinned by a norm-wise
relative error bound rather than bit equality.

``TestOperandOrder`` pins the later rewrites byte for byte against the
kernels they replaced (``linear_primitive_reference``,
``weight_grad_reference`` and ``fold_product_reference``): the swapped
GEMM operands of ``linear``'s forward and ``_weight_grad``, and the
strided sub-pixel interleave of ``_fold_product``.  The interleave only
moves values, so it is exact everywhere.  The operand swaps compute the
same dot products, but whether OpenBLAS rounds them the same way in
both operand orders depends on the kernel it picks for the CPU, as it
does for ``test_gnn_batched``'s bitwise tests: these pass on the
SkylakeX and Sandybridge kernels, and fail on Haswell's.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.config import TrainConfig
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.circuits import get_circuit
from repro.floorplan import FloorplanEnv, VecEnv
from repro.rl import ActorCritic, FloorplanAgent
from repro.rl.policy import _FLAT_DIM

from oracles import (
    conv2d_reference,
    conv_transpose2d_reference,
    fold_product_reference,
    linear_primitive_reference,
    linear_reference,
    nn_kernel_calls,
    policy_inputs,
    weight_grad_reference,
)

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-6}


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want.astype(np.float64))
    diff = np.linalg.norm(got.astype(np.float64) - want.astype(np.float64))
    return diff / scale if scale > 0 else diff


def _run(fn, x: np.ndarray, w: np.ndarray, b: np.ndarray, x_grad: bool, **kwargs):
    """Output and x/weight/bias grads of ``sum(fn(...) * probe)``."""
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True)
    out = fn(xt, wt, bt, **kwargs)
    probe = np.random.default_rng(1).normal(size=out.shape).astype(x.dtype)
    (out * Tensor(probe)).sum().backward()
    return out.data, xt.grad, wt.grad, bt.grad


def _check_against_oracle(fn, oracle, x, w, b, **kwargs):
    tol = TOLERANCE[x.dtype.type]
    got = _run(fn, x, w, b, x_grad=True, **kwargs)
    want = _run(oracle, x, w, b, x_grad=True, **kwargs)
    for name, g, r in zip(("out", "x.grad", "weight.grad", "bias.grad"), got, want):
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert _relative_error(g, r) <= tol, name
    # An input that does not require grad gets none.
    frozen = _run(fn, x, w, b, x_grad=False, **kwargs)
    assert frozen[1] is None
    assert np.array_equal(frozen[2], got[2])
    # A channel-major (non-contiguous) input equals its contiguous copy.
    channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    strided = _run(fn, channel_major, w, b, x_grad=True, **kwargs)
    for g, r in zip(strided, got):
        assert np.array_equal(g, r)


geometry = st.fixed_dictionaries({
    "n": st.integers(1, 4),
    "c_in": st.integers(1, 6),
    "c_out": st.integers(1, 6),
    "h": st.integers(2, 9),
    "w": st.integers(2, 9),
    "k": st.sampled_from([1, 3, 4]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "dtype": st.sampled_from([np.float64, np.float32]),
    "seed": st.integers(0, 2**16),
})


def _arrays(g, w_shape):
    rng = np.random.default_rng(g["seed"])
    x = rng.normal(size=(g["n"], g["c_in"], g["h"], g["w"])).astype(g["dtype"])
    w = rng.normal(size=w_shape).astype(g["dtype"])
    b = rng.normal(size=g["c_out"]).astype(g["dtype"])
    return x, w, b


class TestKernelsMatchOracles:
    @given(geometry)
    @settings(max_examples=120, deadline=None)
    def test_conv2d(self, g):
        k, p = g["k"], g["padding"]
        assume(g["h"] + 2 * p >= k and g["w"] + 2 * p >= k)
        x, w, b = _arrays(g, (g["c_out"], g["c_in"], k, k))
        _check_against_oracle(F.conv2d, conv2d_reference, x, w, b, stride=g["stride"], padding=p)

    @given(geometry)
    @settings(max_examples=120, deadline=None)
    def test_conv_transpose2d(self, g):
        k, s, p = g["k"], g["stride"], g["padding"]
        assume((min(g["h"], g["w"]) - 1) * s - 2 * p + k >= 1)  # a non-empty output
        x, w, b = _arrays(g, (g["c_in"], g["c_out"], k, k))
        _check_against_oracle(F.conv_transpose2d, conv_transpose2d_reference, x, w, b, stride=s, padding=p)

    @given(geometry)
    @settings(max_examples=40, deadline=None)
    def test_deconv_head_geometry(self, g):
        """The policy head's k4/s2/p1."""
        x, w, b = _arrays(g, (g["c_in"], g["c_out"], 4, 4))
        _check_against_oracle(F.conv_transpose2d, conv_transpose2d_reference, x, w, b, stride=2, padding=1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_linear(self, dtype):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 5)).astype(dtype)
        w = rng.normal(size=(3, 5)).astype(dtype)
        b = rng.normal(size=3).astype(dtype)
        got = _run(F.linear, x, w, b, x_grad=True)
        want = _run(linear_reference, x, w, b, x_grad=True)
        for g, r in zip(got, want):
            assert _relative_error(g, r) <= TOLERANCE[dtype]
        # The weight grad keeps the composite's memory layout, which
        # clip_grad_norm's memory-order reduction depends on.
        assert got[2].flags.f_contiguous == want[2].flags.f_contiguous
        assert _run(F.linear, x, w, b, x_grad=False)[1] is None

    def test_conv_transpose2d_rejects_empty_output(self):
        x, w, b = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1))
        with pytest.raises(ValueError):
            F.conv_transpose2d(x, w, b, stride=1, padding=1)  # a 0x0 output


DTYPES = [np.float32, np.float64]


def _use_oracle_kernels(monkeypatch):
    monkeypatch.setattr(F, "linear", linear_primitive_reference)
    monkeypatch.setattr(F, "_weight_grad", weight_grad_reference)
    monkeypatch.setattr(F, "_fold_product", fold_product_reference)


class TestOperandOrder:
    """The operand-swapped GEMMs and the strided interleave equal the
    kernels they replaced byte for byte (see the module docstring for the
    OpenBLAS kernels this holds on)."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 8, 64])
    @pytest.mark.parametrize("shape", [(_FLAT_DIM, 512), (ActorCritic.STATE_DIM, 512), (64, 1)])
    def test_linear(self, shape, rows, dtype):
        """The extractor's and the policy head's fc, and the value head's
        last layer."""
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, shape[0])).astype(dtype)
        w = (rng.normal(size=(shape[1], shape[0])) / np.sqrt(shape[0])).astype(dtype)
        b = rng.normal(size=shape[1]).astype(dtype)
        got = _run(F.linear, x, w, b, x_grad=True)
        want = _run(linear_primitive_reference, x, w, b, x_grad=True)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        assert got[0].flags.c_contiguous

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows", [1, 4, 64])
    def test_weight_grad_on_every_policy_layer(self, dtype, rows):
        calls = nn_kernel_calls(rows, dtype)["_weight_grad"]
        assert len(calls) == 5 + 4  # five convs; three deconvs and the 1x1 projection
        for a, b, n in calls:
            got = F._weight_grad(a, b, n)
            want = weight_grad_reference(a, b, n)
            assert got.flags.c_contiguous and want.flags.c_contiguous
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows", [1, 4])
    def test_fold_product_on_every_policy_layer(self, dtype, rows):
        """The three k4/s2/p1 deconv forwards, the grad-inputs of the four
        extractor convs past the first (k3, strides 1 and 2) and of the 1x1
        projection."""
        calls = nn_kernel_calls(rows, dtype)["_fold_product"]
        kernel_strides = sorted((args[3], args[5]) for args in calls)
        assert kernel_strides == [(1, 1), (3, 1), (3, 1), (3, 2), (3, 2), (4, 2), (4, 2), (4, 2)]
        for args in calls:
            got, want = F._fold_product(*args), fold_product_reference(*args)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(geometry)
    @settings(max_examples=120, deadline=None)
    def test_fold_product_any_geometry(self, g):
        k, s, p = g["k"], g["stride"], g["padding"]
        assume(g["h"] + 2 * p >= k and g["w"] + 2 * p >= k)
        out_h, out_w = (g["h"] + 2 * p - k) // s + 1, (g["w"] + 2 * p - k) // s + 1
        rng = np.random.default_rng(g["seed"])
        w_t = rng.normal(size=(g["c_out"] * k * k, g["c_in"])).astype(g["dtype"])
        src = rng.normal(size=(g["n"], g["c_in"], out_h, out_w)).astype(g["dtype"])
        args = (w_t, src, (g["c_out"], g["n"], g["h"], g["w"]), k, k, s, p)
        got, want = F._fold_product(*args), fold_product_reference(*args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestNetworkOnOracleKernels:
    """``ActorCritic`` on the new kernels equals the same model run on the
    kernels they replaced: forwards at every batch size the trainer, the
    collector and the server run, and the weights after a PPO update."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward(self, monkeypatch, dtype):
        with nn.dtype_scope(dtype):
            model = ActorCritic(rng=np.random.default_rng(0))
        for rows in (1, 2, 3, 4, 5, 8, 16, 31, 64):
            inputs = policy_inputs(rows, dtype, seed=rows)
            with nn.no_grad():
                got = model(*inputs)
                with monkeypatch.context() as patch:
                    _use_oracle_kernels(patch)
                    want = model(*inputs)
            for g, r in zip(got, want):
                assert g.data.tobytes() == r.data.tobytes(), rows

    def test_update(self, monkeypatch):
        config = TrainConfig(num_envs=2, rollout_steps=32, ppo_epochs=1,
                             minibatch_size=64, seed=0)
        new, oracle = FloorplanAgent(config=config), FloorplanAgent(config=config)
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        buffer, _, _ = new.ppo.collect(vec, vec.reset())
        new.ppo.rng = np.random.default_rng(1)
        new.ppo.update(buffer)
        oracle.ppo.rng = np.random.default_rng(1)
        with monkeypatch.context() as patch:
            _use_oracle_kernels(patch)
            oracle.ppo.update(buffer)
        got, want = new.policy.state_dict(), oracle.policy.state_dict()
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name


class TestLeafOnlyBackward:
    def test_only_leaves_keep_grads(self):
        a = Tensor(np.arange(3.0), requires_grad=True)
        hidden = a * 2.0
        out = (hidden * hidden).sum()
        out.backward()
        assert np.array_equal(a.grad, 8.0 * np.arange(3.0))
        assert hidden.grad is None and out.grad is None

    def test_backward_frees_the_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        hidden = a.exp()
        out = hidden.sum()
        out.backward()
        assert out._parents == () and hidden._parents == ()

    def test_second_backward_through_consumed_graph_raises(self):
        a = Tensor(np.ones(2), requires_grad=True)
        hidden = a * 3.0
        out = hidden.sum()
        out.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            out.backward()
        # A later graph that reuses a consumed node fails the same way,
        # before any gradient is accumulated.
        grad_before = a.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            (hidden * 2.0).sum().backward()
        assert np.array_equal(a.grad, grad_before)

    def test_leaves_do_not_alias_shared_contributions(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()  # both leaves receive the same array
        a.grad *= 5.0
        assert np.array_equal(b.grad, np.ones(3))


class TestBlockedAdam:
    def test_matches_formula_across_blocks_and_missing_grads(self):
        """float32, a parameter spanning several blocks, one without grad."""
        rng = np.random.default_rng(5)
        shapes = [(300, 250), (7,), (3, 4)]
        params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
        reference = [p.data.copy() for p in params]
        m = [np.zeros(s, dtype=np.float32) for s in shapes]
        v = [np.zeros(s, dtype=np.float32) for s in shapes]
        opt = nn.Adam(params, lr=0.01)
        for t in range(1, 4):
            grads = [rng.normal(size=s).astype(np.float32) for s in shapes]
            grads[1] = None
            for p, g in zip(params, grads):
                # Fortran-ordered grads exercise the layout-free gather.
                p.grad = None if g is None else np.asfortranarray(g)
            opt.step()
            b1t, b2t = 1.0 - opt.beta1 ** t, 1.0 - opt.beta2 ** t
            for i, g in enumerate(grads):
                if g is None:
                    continue
                m[i] = opt.beta1 * m[i] + (1 - opt.beta1) * g
                v[i] = opt.beta2 * v[i] + (1 - opt.beta2) * g ** 2
                reference[i] -= opt.lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + opt.eps)
        for p, ref in zip(params, reference):
            assert np.array_equal(p.data, ref)
