"""Convolution and linear primitives for the autograd engine.

The RL policy of the paper (Fig. 4) uses a CNN feature extractor
(3x3 kernels, stride 1, padding 1) and a deconvolutional policy head
(4x4 kernels, stride 2, padding 1).  Both are provided here as
differentiable functions over :class:`~repro.nn.tensor.Tensor`.

The convolutions fold the batch into the im2col columns (Chellapilla
et al. 2006):

* the input is copied once into a zero-padded channel-major
  ``(C, N, H', W')`` buffer, and the ``(C*kh*kw, N*oh*ow)`` columns are
  read from a ``sliding_window_view`` of it;
* the forward product is one GEMM, and its ``(C_out, N, oh, ow)`` result
  is returned as an NCHW-shaped *view*, so consecutive layers pay no
  transposing copy;
* col2im (``conv_transpose2d``'s forward, strided grad-input) folds each
  kernel tap into one sub-pixel phase as a single contiguous add, in
  place of a strided scatter per tap, and interleaves the phases
  (Shi et al. 2016) with one strided copy each;
* backward computes grad-input only for inputs that require grad.

Two rules pick the form of every product:

* operand order decides which BLAS call numpy makes, and so its cost.
  OpenBLAS packs the large operand of a GEMM (Goto & van de Geijn 2008),
  so ``linear``'s few-row forward runs as ``(W @ x.T).T`` and
  ``_weight_grad``'s per-sample products as ``b_n @ a_n.T``.  Both compute
  the same dot products as ``x @ W.T`` and ``a_n @ b_n.T``; on the
  kernels tier-1 pins they round them the same way
  (``tests/test_nn_kernels.py::TestOperandOrder``);
* outputs stay C-ordered (or keep the layout of the graph they replaced)
  because the reductions downstream (bias grads, ``clip_grad_norm``)
  run in memory order, so a transposed layout would regroup their sums.

Each output keeps the per-sample kernels' summation: a batch-folded GEMM
only adds columns to the same dot products, col2im taps are added in the
same order, weight grads are per-sample GEMMs summed over the samples in
order, and bias grads are grouped like ``grad.sum(axis=(0, 2, 3))``.
``conv_transpose2d``'s input grad stays a per-sample GEMM, because BLAS
groups those small products differently once folded.  PPO training
amplifies any regrouped sum into different learned floorplans, so this
keeps the trained agent, and every golden built from it, as it was.
The per-sample kernels, and these products in their order before the
operand swaps, live on in ``tests/oracles.py`` as references.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor


def _pad_channel_major(x: np.ndarray, offset: int, rows: int, cols: int) -> np.ndarray:
    """Copy (N, C, H, W) ``x`` into a zeroed channel-major (C, N, rows, cols)
    buffer, its top-left corner at ``(offset, offset)``."""
    n, c, h, w = x.shape
    buf = np.zeros((c, n, rows, cols), dtype=x.dtype)
    buf[:, :, offset:offset + h, offset:offset + w] = x.transpose(1, 0, 2, 3)
    return buf


def _unfold(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """im2col with the batch folded into the columns.

    Copies (N, C, H, W) ``x`` once into a zero-padded channel-major
    (C, N, H', W') buffer and returns the (C*kh*kw, N*oh*ow) columns of
    its strided kh x kw windows.
    """
    n, c, h, w = x.shape
    buf = _pad_channel_major(x, padding, h + 2 * padding, w + 2 * padding)
    windows = sliding_window_view(buf, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, n * out_h * out_w)
    return cols, out_h, out_w


def _fold_product(
    w_t: np.ndarray,
    src: np.ndarray,
    shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """col2im of the columns ``w_t @ src``, as a channel-major (C, N, H, W) array.

    ``src`` is (N, K, oh, ow) and ``w_t`` is (C*kh*kw, K).  Padded position
    ``(y, x)`` lives in sub-pixel phase ``(y % s, x % s)``; tap ``(i, j)``
    lands in one phase at offset ``(i // s, j // s)``.  ``src`` is widened
    with zeros to the phase grid, so each tap is one contiguous add over
    all samples: its overhang adds exact zeros to neighbouring positions,
    which leaves them unchanged.  Taps are added in row-major order,
    which fixes each output's summation.  At stride 1 the one phase,
    cropped, is returned as a view.  Otherwise each phase is copied into
    its strided positions of a C-ordered buffer: s*s copies with
    contiguous source rows cost a fraction of one 6-D transpose whose
    innermost run is s elements.
    """
    c, n, h, w = shape
    s = stride
    rows, cols = -(-(h + 2 * padding) // s), -(-(w + 2 * padding) // s)
    span = n * rows * cols
    wide = _pad_channel_major(src, 0, rows, cols).reshape(src.shape[1], span)
    taps = (w_t @ wide).reshape(c, kh, kw, span)
    phases = np.zeros((s, s, c, span + ((kh - 1) // s + 1) * cols), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            start = (i // s) * cols + j // s
            phases[i % s, j % s, :, start:start + span] += taps[:, i, j]
    grid = phases[..., :span].reshape(s, s, c, n, rows, cols)
    if s == 1:
        return grid[0, 0, :, :, padding:padding + h, padding:padding + w]
    # Output row y is padded row y + padding: phase (y + padding) % s, row
    # (y + padding) // s of it.
    out = np.empty(shape, dtype=taps.dtype)
    for py in range(s):
        y0 = (py - padding) % s
        ny = len(range(y0, h, s))
        for px in range(s):
            x0 = (px - padding) % s
            nx = len(range(x0, w, s))
            top, left = (y0 + padding) // s, (x0 + padding) // s
            out[:, :, y0::s, x0::s] = grid[py, px, :, :, top:top + ny, left:left + nx]
    return out


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(N, C, ...) -> contiguous (C, N*...); free for a channel-major view."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).reshape(a.shape[1], -1)


def _bias_grad(g: np.ndarray, n: int) -> np.ndarray:
    """Per-channel sum of a channel-major (C, N*L) grad, grouped like
    ``grad.sum(axis=(0, 2, 3))`` over C-ordered NCHW: a pairwise sum per
    (channel, sample), then a running sum over the samples.  With one
    channel, NCHW is contiguous over all N*L values and numpy sums them in
    a single pairwise pass."""
    if g.shape[0] == 1:
        return g.sum(axis=1)
    per_sample = g.reshape(g.shape[0], n, -1).sum(axis=2)
    return np.add.accumulate(per_sample, axis=1)[:, -1]


def _weight_grad(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``sum_n a_n @ b_n.T`` for channel-major (A, N*L) and (B, N*L) operands.

    One GEMM per sample, summed over the samples in order, as the
    per-sample kernels grouped it (one batch-wide GEMM would regroup the
    sums).  Each product runs as ``b_n @ a_n.T``: the same dot products,
    with the larger im2col operand on the left, the order OpenBLAS runs
    faster.  The (B, A) sum is transposed back into a C-ordered grad,
    because ``clip_grad_norm`` reduces in memory order.
    """
    per_sample = np.matmul(
        b.reshape(b.shape[0], n, -1).transpose(1, 0, 2),
        a.reshape(a.shape[0], n, -1).transpose(1, 2, 0),
    )
    return np.ascontiguousarray(per_sample.sum(axis=0).T)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, kh, kw)
    bias : Tensor of shape (C_out,)

    The result is an NCHW-shaped view of a channel-major array.
    """
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    cols, out_h, out_w = _unfold(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = w_mat @ cols  # (C_out, F) @ (F, N*L) -> (C_out, N*L)
    out += bias.data[:, None]
    out_data = out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)

    def backward(grad, send):
        g = _channel_major(grad)  # (C_out, N*L)
        send(bias, _bias_grad(g, n))
        send(weight, _weight_grad(g, cols, n).reshape(weight.shape))
        if x.requires_grad:
            g_nchw = g.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
            gx = _fold_product(w_mat.T, g_nchw, (c_in, n) + x.shape[2:], kh, kw, stride, padding)
            send(x, gx.transpose(1, 0, 2, 3))

    return Tensor._make(out_data, (x, weight, bias), backward)


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """Transposed 2D convolution (a.k.a. deconvolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, kh, kw)  (PyTorch layout)
    bias : Tensor of shape (C_out,)

    Output spatial size is ``(H - 1) * stride - 2 * padding + k``; a
    geometry without a positive output size raises ``ValueError``.  The
    result is an NCHW-shaped view of a channel-major array.
    """
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw
    if stride < 1 or padding < 0 or out_h < 1 or out_w < 1:
        raise ValueError(
            f"conv_transpose2d: stride={stride}, padding={padding} gives no "
            f"output for a {kh}x{kw} kernel over a {h}x{w} input"
        )

    # Forward of convT == backward-input of a conv with the same geometry.
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    out = _fold_product(w_mat.T, x.data, (c_out, n, out_h, out_w), kh, kw, stride, padding)
    out += bias.data[:, None, None, None]

    def backward(grad, send):
        send(bias, _bias_grad(_channel_major(grad), n))
        gcols, _, _ = _unfold(grad, kh, kw, stride, padding)  # (C_out*kh*kw, N*H*W)
        if x.requires_grad:
            per_sample = gcols.reshape(gcols.shape[0], n, -1).transpose(1, 0, 2)
            send(x, np.matmul(w_mat, per_sample).reshape(x.shape))
        send(weight, _weight_grad(_channel_major(x.data), gcols, n).reshape(weight.shape))

    return Tensor._make(out.transpose(1, 0, 2, 3), (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ W.T + b`` matching ``torch.nn.functional.linear``.

    One primitive in place of the matmul/transpose/add graph, with the
    input grad computed only when ``x`` requires it.  The forward runs as
    ``(W @ x.T).T``: the same dot products, with the large ``W`` on the
    left, the order OpenBLAS runs faster for the 2-8-row forwards of
    rollouts and serving.  The result is copied
    back to C order, because the next layer's bias grad reduces in
    memory order.  The weight grad keeps the composite graph's layout
    (the transpose of ``x.T @ grad``): ``clip_grad_norm`` reduces in
    memory order, so a C-ordered copy would regroup the clipped norm.
    """
    x_mat = x.data.reshape(-1, x.shape[-1])
    out = np.ascontiguousarray((weight.data @ x_mat.T).T)
    out += bias.data
    out_data = out.reshape(x.shape[:-1] + (weight.shape[0],))

    def backward(grad, send):
        g = grad.reshape(-1, grad.shape[-1])
        send(bias, g.sum(axis=0))
        send(weight, (x_mat.T @ g).T)
        if x.requires_grad:
            send(x, (g @ weight.data).reshape(x.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)
