"""The row-gather primitive ``repro.nn.take`` (the batched R-GCN's node
readout).

Finite-difference gradient checks run in float64 (``nn.dtype_scope``)
so central differences resolve well below the assertion tolerance.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, no_grad, take


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


@pytest.fixture(autouse=True)
def float64_scope():
    with nn.dtype_scope(np.float64):
        yield


RNG = np.random.default_rng(7)


class TestTake:
    def test_forward_gathers_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        idx = np.array([2, 0, 2])
        out = take(x, idx)
        assert np.array_equal(out.numpy(), x.numpy()[idx])

    def test_grad_accumulates_repeated_indices(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([1, 1, 3])
        take(x, idx).sum().backward()
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, np.ones((3, 3)))
        assert np.array_equal(x.grad, expected)

    def test_grad_matches_finite_differences(self):
        x0 = RNG.normal(size=(5, 2))
        idx = np.array([4, 0, 0, 2])
        w = RNG.normal(size=(4, 2))  # non-uniform upstream weighting

        def fn(arr):
            return float((np.asarray(arr)[idx] * w).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        (take(x, idx) * Tensor(w)).sum().backward()
        assert np.allclose(x.grad, numeric_grad(fn, x0.copy()), atol=1e-6)


class TestGradModeAndDtype:
    def test_no_grad_records_no_tape(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        ids = np.array([0, 0, 1, 1])
        with no_grad():
            out = take(x, ids)
        assert not out.requires_grad
        assert not out._parents

    def test_primitives_preserve_input_dtype(self):
        ids = np.array([0, 1, 0])
        for dtype in (np.float32, np.float64):
            with nn.dtype_scope(dtype):
                x = Tensor(np.ones((3, 2), dtype=dtype))
                assert take(x, ids).numpy().dtype == dtype
