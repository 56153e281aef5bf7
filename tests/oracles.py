"""Scalar reference implementations the fast paths are pinned against.

Each function here is the straightforward version of a vectorized or
incremental path in ``repro``; the golden tests assert the fast path is
bit-identical to it (the NN kernels, whose summation order differs, to a
stated relative tolerance), and the hot-path benchmarks time against it.  They
live with the tests because nothing in the package calls them.
"""

from typing import Dict, List, Mapping, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.baselines import PlacedRect, SequencePair
from repro.circuits import Net
from repro.floorplan import FloorplanState, placement_mask
from repro.floorplan.masks import HPWL_MIN_FLOOR
from repro.nn import Tensor
from repro.routing import Obstacle, Point, Segment, escape_coordinates


def state_centers(state: FloorplanState) -> Dict[int, Tuple[float, float]]:
    """Block index -> center of every placed block."""
    return {index: block.center for index, block in state.placed.items()}


def hpwl(
    nets: Sequence[Net],
    centers: Mapping[int, Tuple[float, float]],
    partial: bool = True,
) -> float:
    """Half-perimeter wirelength over nets (paper Eq. 3).

    Reference for ``state_hpwl`` / ``incidence_hpwl``.  With
    ``partial=True``, nets with fewer than two placed members contribute
    zero; with ``partial=False`` a net with any unplaced member raises
    ``KeyError``.
    """
    total = 0.0
    for net in nets:
        xs = [centers[b][0] for b in net.blocks if b in centers]
        ys = [centers[b][1] for b in net.blocks if b in centers]
        if not partial and len(xs) < net.degree:
            raise KeyError(f"net {net.name}: unplaced blocks in full-HPWL mode")
        if len(xs) < 2:
            continue
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def pack_reference(
    pair: SequencePair,
    sizes: Sequence[Sequence[Tuple[float, float]]],
) -> List[PlacedRect]:
    """Reference for ``pack``: the classic O(n^2) sequence-pair double loop."""
    n = pair.num_blocks
    if len(sizes) != n:
        raise ValueError(f"expected sizes for {n} blocks, got {len(sizes)}")
    pos_plus = {b: i for i, b in enumerate(pair.gamma_plus)}
    pos_minus = {b: i for i, b in enumerate(pair.gamma_minus)}
    widths = np.array([sizes[b][pair.shapes[b]][0] for b in range(n)])
    heights = np.array([sizes[b][pair.shapes[b]][1] for b in range(n)])

    x = np.zeros(n)
    for b in pair.gamma_minus:
        best = 0.0
        for a in range(n):
            if a == b:
                continue
            if pos_plus[a] < pos_plus[b] and pos_minus[a] < pos_minus[b]:
                best = max(best, x[a] + widths[a])
        x[b] = best

    y = np.zeros(n)
    for b in pair.gamma_minus:
        best = 0.0
        for a in range(n):
            if a == b:
                continue
            if pos_plus[a] > pos_plus[b] and pos_minus[a] < pos_minus[b]:
                best = max(best, y[a] + heights[a])
        y[b] = best

    return [
        PlacedRect(b, pair.shapes[b], float(x[b]), float(y[b]), float(widths[b]), float(heights[b]))
        for b in range(n)
    ]


def wire_mask_reference(
    state: FloorplanState, shape_index: int, hpwl_min: float
) -> np.ndarray:
    """Reference for ``wire_mask``: a per-net Python loop over
    :func:`state_centers`."""
    n = state.grid.n
    block = state.current_block
    variant = state.shape_sets[block][shape_index]
    cell = state.grid.cell
    cx = np.arange(n) * cell + variant.width / 2.0   # center x per column
    cy = np.arange(n) * cell + variant.height / 2.0  # center y per row

    centers = state_centers(state)
    increase = np.zeros((n, n))
    for net in state.circuit.nets:
        if block not in net.blocks:
            continue
        xs = [centers[b][0] for b in net.blocks if b in centers]
        ys = [centers[b][1] for b in net.blocks if b in centers]
        if not xs:
            continue
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        dx = np.maximum(lo_x - cx, 0.0) + np.maximum(cx - hi_x, 0.0)  # (n,)
        dy = np.maximum(lo_y - cy, 0.0) + np.maximum(cy - hi_y, 0.0)  # (n,)
        increase += dy[:, np.newaxis] + dx[np.newaxis, :]

    increase /= max(hpwl_min, HPWL_MIN_FLOOR)
    peak = increase.max()
    if peak > 1.0:
        increase = increase / peak
    valid = placement_mask(state, shape_index)
    increase[~valid] = 1.0
    return increase


def encode_reference(ppo, observation) -> Tuple[np.ndarray, np.ndarray]:
    """Reference for ``MaskedPPO._encode_batch``: one observation's frozen
    R-GCN features ``(node_emb, graph_emb)`` through the per-graph
    ``encode_numpy`` path, sharing the trainer's embedding cache."""
    key = ppo._cache_key(observation.graph)
    entry = ppo._cache_get(key)
    if entry is None:
        entry = ppo.encoder.encode_numpy(observation.graph)
        ppo._cache_put(key, entry)
    nodes, graph_emb = entry
    node_index = observation.block_index
    node_emb = nodes[node_index] if 0 <= node_index < nodes.shape[0] else np.zeros_like(graph_emb)
    return node_emb, graph_emb


def blocks_segment(ob: Obstacle, seg: Segment, eps: float = 1e-9) -> bool:
    """Whether the segment passes through the obstacle interior."""
    s = seg.canonical()
    if s.is_horizontal:
        y = s.y1
        if not (ob.y1 + eps < y < ob.y2 - eps):
            return False
        return s.x1 < ob.x2 - eps and s.x2 > ob.x1 + eps
    x = s.x1
    if not (ob.x1 + eps < x < ob.x2 - eps):
        return False
    return s.y1 < ob.y2 - eps and s.y2 > ob.y1 + eps


def escape_graph_reference(
    terminals: Sequence[Point], obstacles: Sequence[Obstacle]
) -> nx.Graph:
    """Reference for ``build_escape_graph``: tests every Hanan-grid node
    and edge against every obstacle, one Python call each."""
    xs, ys = escape_coordinates(terminals, obstacles)
    graph = nx.Graph()
    for x in xs:
        for y in ys:
            if any(ob.contains_strict(x, y) for ob in obstacles):
                continue
            graph.add_node((x, y))
    # Horizontal edges.
    for y in ys:
        for x1, x2 in zip(xs, xs[1:]):
            if (x1, y) in graph and (x2, y) in graph:
                seg = Segment(x1, y, x2, y)
                if not any(blocks_segment(ob, seg) for ob in obstacles):
                    graph.add_edge((x1, y), (x2, y), weight=x2 - x1)
    # Vertical edges.
    for x in xs:
        for y1, y2 in zip(ys, ys[1:]):
            if (x, y1) in graph and (x, y2) in graph:
                seg = Segment(x, y1, x, y2)
                if not any(blocks_segment(ob, seg) for ob in obstacles):
                    graph.add_edge((x, y1), (x, y2), weight=y2 - y1)
    return graph


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Strided view of all kh x kw patches.
    sN, sC, sH, sW = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sN, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns (N, C*kh*kw, L) back into (N, C, H, W), summing overlaps."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_reference(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, kh, kw)
    bias : Tensor of shape (C_out,)
    """
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.matmul(w_mat, cols)  # (C_out, F) @ (N, F, L) -> (N, C_out, L)
    out += bias.data.reshape(1, c_out, 1)
    out_data = out.reshape(n, c_out, out_h, out_w)

    def backward(grad, send):
        g = grad.reshape(n, c_out, -1)  # (N, C_out, L)
        send(bias, g.sum(axis=(0, 2)))
        gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # (C_out, F)
        send(weight, gw.reshape(weight.shape))
        gcols = np.matmul(w_mat.T, g)  # (F, C_out) @ (N, C_out, L) -> (N, F, L)
        send(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding))

    return Tensor._make(out_data, (x, weight, bias), backward)


def conv_transpose2d_reference(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """Transposed 2D convolution (a.k.a. deconvolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, kh, kw)  (PyTorch layout)
    bias : Tensor of shape (C_out,)

    Output spatial size is ``(H - 1) * stride - 2 * padding + k``.
    """
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw

    # Forward of convT == backward-input of a conv with the same geometry.
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    x_flat = x.data.reshape(n, c_in, h * w)
    cols = np.matmul(w_mat.T, x_flat)  # (F, C_in) @ (N, C_in, L) -> (N, F, L)
    out_data = _col2im(cols, (n, c_out, out_h, out_w), kh, kw, stride, padding)
    out_data += bias.data.reshape(1, c_out, 1, 1)

    def backward(grad, send):
        send(bias, grad.sum(axis=(0, 2, 3)))
        gcols, gh, gw_ = _im2col(grad, kh, kw, stride, padding)
        # gcols: (N, C_out*kh*kw, H*W) with gh == h, gw_ == w
        send(x, np.matmul(w_mat, gcols).reshape(x.data.shape))
        gweight = np.matmul(x_flat, gcols.transpose(0, 2, 1)).sum(axis=0)
        send(weight, gweight.reshape(weight.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def linear_reference(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Reference for ``linear``: the composite ``x @ W.T + b`` graph."""
    return x @ weight.T + bias
