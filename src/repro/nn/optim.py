"""The Adam optimizer and its gradient-norm clipping.

Adam keeps its moments in flat concatenated vectors and updates them in
place, one cache-sized block at a time, with ``out=`` ufuncs into
preallocated scratch.  ``clip_grad_norm`` deliberately stays a
per-parameter loop of ``np.sum(grad**2)`` (see the method docstring).
Optimizer state always matches the parameters' dtype (float32
under the default policy, float64 under ``REPRO_NN_DTYPE=float64``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .tensor import Tensor

#: Elements per Adam block: the block's grad, moments, parameters and two
#: scratch rows stay resident in L2 while the step walks them.
_BLOCK = 32768
#: Columns per block of the grad gather.
_GATHER_COLUMNS = 256


class Optimizer:
    """Base optimizer over a flat list of parameters."""

    def __init__(self, params: List[Tensor]):
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Globally clip gradient norm; returns the pre-clip norm.

        The squared norm accumulates per parameter via ``np.sum(grad**2)``,
        which reduces each grad in its memory order: a grad handed over in
        another layout, or one flat BLAS dot, regroups the sum and moves
        every clipped training step in the last ulp.
        """
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(p.grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015).

    First/second moments live in flat concatenated vectors.  A step
    gathers each gradient into a flat buffer, then walks every parameter's
    segment in blocks of ``_BLOCK`` elements, updating the moments and the
    parameter in place.  The per-element operations and their order are
    exactly the textbook expression's, so the result is bit-identical to
    it.  Parameters that received no gradient keep their moments
    untouched.
    """

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        sizes = [int(p.size) for p in self.params]
        bounds = np.concatenate(([0], np.cumsum(sizes))).astype(int)
        self._segments = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        dtype = np.result_type(*(p.data.dtype for p in self.params))
        self._flat_grad = np.zeros(int(bounds[-1]), dtype=dtype)
        self._m = np.zeros_like(self._flat_grad)
        self._v = np.zeros_like(self._flat_grad)
        block = min(_BLOCK, int(bounds[-1]))
        self._scratch = np.empty((2, block), dtype=dtype)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        c1, c2 = 1 - self.beta1, 1 - self.beta2
        for p, (start, stop) in zip(self.params, self._segments):
            if p.grad is None:
                continue
            # Gather in column blocks: a transposed grad (``linear``'s
            # weight grads are) is then copied cache-resident.
            flat = self._flat_grad[start:stop].reshape(p.shape[0], -1)
            grad = p.grad.reshape(flat.shape)
            for col in range(0, flat.shape[1], _GATHER_COLUMNS):
                flat[:, col:col + _GATHER_COLUMNS] = grad[:, col:col + _GATHER_COLUMNS]
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            data = p.data.reshape(-1)
            for lo in range(start, stop, _BLOCK):
                hi = min(lo + _BLOCK, stop)
                g, m, v = self._flat_grad[lo:hi], self._m[lo:hi], self._v[lo:hi]
                a, b = self._scratch[0, :hi - lo], self._scratch[1, :hi - lo]
                # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
                m *= self.beta1
                np.multiply(c1, g, out=a)
                m += a
                v *= self.beta2
                np.multiply(g, g, out=a)
                np.multiply(c2, a, out=a)
                v += a
                # update = lr * (m / b1t) / (sqrt(v / b2t) + eps)
                np.divide(m, b1t, out=a)
                np.multiply(self.lr, a, out=a)
                np.divide(v, b2t, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                data[lo - start:hi - start] -= a
