"""Grid mask construction (paper Sec. IV-D1/D2, Fig. 5).

Six 32x32 masks form the pixel-level state:

* ``fg``   — occupancy grid, {0,1};
* ``fw``   — wire mask: normalized HPWL increase if the current block's
  center lands in each cell;
* ``fds``  — dead-space mask: normalized dead-space increase per cell
  (occupied cells pinned to the maximum, 1.0);
* ``fp``   — three positional masks (one per candidate shape), the AND of
  geometric feasibility (fit, no overlap) and constraint admissibility
  (symmetry / alignment); also used for PPO action masking.

All computations are vectorized over the grid, and an observation shares
one occupancy integral image across every derived channel.  The wire
mask reads the state's incrementally maintained per-net bounding boxes
(see :mod:`repro.floorplan.state`) so it is O(incident nets) per shape,
pinned bit-identical to a per-net scalar loop by the golden tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np


@lru_cache(maxsize=64)
def _grid_coords(side: float, n: int) -> np.ndarray:
    """Cached ``np.arange(n) * cell`` for a canvas; read-only."""
    coords = np.arange(n) * (side / n)
    coords.setflags(write=False)
    return coords

from ..circuits.constraints import Constraint, ConstraintKind
from ..config import NUM_SHAPES
from .state import FloorplanState


# ---------------------------------------------------------------------------
# Geometric feasibility
# ---------------------------------------------------------------------------

def _integral_occupancy(state: FloorplanState) -> np.ndarray:
    """(n+1, n+1) integral image of the occupancy grid, computed once and
    shared by every per-shape placement mask of an observation."""
    n = state.grid.n
    occ = state.occupancy.astype(np.int32)
    integral = np.zeros((n + 1, n + 1), dtype=np.int32)
    integral[1:, 1:] = occ.cumsum(axis=0).cumsum(axis=1)
    return integral


def _placement_mask_from_integral(
    state: FloorplanState, shape_index: int, integral: np.ndarray
) -> np.ndarray:
    """Sliding-window zero-occupancy test for one shape off a shared
    integral image."""
    n = state.grid.n
    gw, gh = state.footprint(state.current_block, shape_index)
    mask = np.zeros((n, n), dtype=bool)
    if gw > n or gh > n:
        return mask
    max_y = n - gh + 1
    max_x = n - gw + 1
    window = (
        integral[gh:gh + max_y, gw:gw + max_x]
        - integral[:max_y, gw:gw + max_x]
        - integral[gh:gh + max_y, :max_x]
        + integral[:max_y, :max_x]
    )
    mask[:max_y, :max_x] = window == 0
    return mask


def placement_mask(state: FloorplanState, shape_index: int) -> np.ndarray:
    """Boolean (n, n) mask of cells where the current block's lower-left
    corner can go: footprint inside the canvas and no overlap."""
    return _placement_mask_from_integral(state, shape_index, _integral_occupancy(state))


def placement_masks(state: FloorplanState) -> np.ndarray:
    """All ``NUM_SHAPES`` placement masks, shape (NUM_SHAPES, n, n), off a
    single shared integral image.  Shape sets with fewer than
    ``NUM_SHAPES`` variants get all-False masks for the missing indices.
    """
    n = state.grid.n
    integral = _integral_occupancy(state)
    available = len(state.shape_sets[state.current_block])
    out = np.zeros((NUM_SHAPES, n, n), dtype=bool)
    for s in range(min(available, NUM_SHAPES)):
        out[s] = _placement_mask_from_integral(state, s, integral)
    return out


# ---------------------------------------------------------------------------
# Constraint admissibility
# ---------------------------------------------------------------------------

def _constraint_mask(
    state: FloorplanState,
    constraint: Constraint,
    constraint_id: int,
    shape_index: int,
) -> np.ndarray:
    """Boolean (n, n) mask of cells satisfying one constraint for the
    current block, given already-placed group members.

    Semantics follow :mod:`repro.circuits.constraints`:

    * ``ALIGN_V``: left edges share a column; ``ALIGN_H``: bottom edges
      share a row.
    * ``SYM_V``: pair members sit at the same row (gy); if the axis is
      fixed (predefined or set by the first member), the partner's x is
      pinned to the mirrored position.  Self-symmetric blocks must have
      their x-center on the axis.
    * ``SYM_H``: transposed semantics.
    """
    n = state.grid.n
    block = state.current_block
    gw, gh = state.footprint(block, shape_index)
    mask = np.ones((n, n), dtype=bool)
    cell = state.grid.cell

    if constraint.kind is ConstraintKind.ALIGN_V:
        placed = [state.placed[b] for b in constraint.blocks if b in state.placed]
        if placed:
            column = placed[0].gx
            mask[:, :] = False
            if column + gw <= n:
                mask[:, column] = True
        return mask

    if constraint.kind is ConstraintKind.ALIGN_H:
        placed = [state.placed[b] for b in constraint.blocks if b in state.placed]
        if placed:
            row = placed[0].gy
            mask[:, :] = False
            if row + gh <= n:
                mask[row, :] = True
        return mask

    if constraint.kind is ConstraintKind.SYM_V:
        if len(constraint.blocks) == 1:
            # Self-symmetric: x-center on the axis (if known).
            axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(constraint_id)
            if axis is None:
                return mask
            xs = (np.arange(n) * cell) + (gw * cell) / 2.0
            ok = np.abs(xs - axis) <= cell / 2.0
            mask[:, :] = ok[np.newaxis, :]
            return mask
        partner = constraint.partner(block)
        if partner is None or partner not in state.placed:
            return mask
        p = state.placed[partner]
        axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(constraint_id)
        mask[:, :] = False
        if axis is not None:
            # Mirrored center: cx + pcx = 2 * axis.
            pcx = p.x + p.width / 2.0
            target_cx = 2.0 * axis - pcx
            xs = (np.arange(n) * cell) + (gw * cell) / 2.0
            col_ok = np.abs(xs - target_cx) <= cell / 2.0
            mask[p.gy, :] = col_ok
        else:
            # Free axis: same row, any non-overlapping x (axis fixes itself).
            mask[p.gy, :] = True
        return mask

    if constraint.kind is ConstraintKind.SYM_H:
        if len(constraint.blocks) == 1:
            axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(constraint_id)
            if axis is None:
                return mask
            ys = (np.arange(n) * cell) + (gh * cell) / 2.0
            ok = np.abs(ys - axis) <= cell / 2.0
            mask[:, :] = ok[:, np.newaxis]
            return mask
        partner = constraint.partner(block)
        if partner is None or partner not in state.placed:
            return mask
        p = state.placed[partner]
        axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(constraint_id)
        mask[:, :] = False
        if axis is not None:
            pcy = p.y + p.height / 2.0
            target_cy = 2.0 * axis - pcy
            ys = (np.arange(n) * cell) + (gh * cell) / 2.0
            row_ok = np.abs(ys - target_cy) <= cell / 2.0
            mask[:, p.gx] = row_ok
        else:
            mask[:, p.gx] = True
        return mask

    raise ValueError(f"unhandled constraint kind {constraint.kind}")


def _involved_constraints(state: FloorplanState, block: int):
    return [
        (cid, constraint)
        for cid, constraint in enumerate(state.circuit.constraints)
        if constraint.involves(block)
    ]


def _apply_constraints(
    state: FloorplanState, shape_index: int, mask: np.ndarray, involved=None
) -> np.ndarray:
    if involved is None:
        involved = _involved_constraints(state, state.current_block)
    for cid, constraint in involved:
        mask &= _constraint_mask(state, constraint, cid, shape_index)
    return mask


def positional_mask(state: FloorplanState, shape_index: int) -> np.ndarray:
    """Combined positional mask fp for one shape: geometry AND constraints."""
    return _apply_constraints(state, shape_index, placement_mask(state, shape_index))


def positional_masks(state: FloorplanState, geometry: Optional[np.ndarray] = None) -> np.ndarray:
    """All three fp masks, shape (NUM_SHAPES, n, n), as float {0,1}.

    ``geometry`` optionally supplies precomputed :func:`placement_masks`
    (the observation builder shares one integral image across channels).
    """
    geo = placement_masks(state) if geometry is None else geometry
    involved = _involved_constraints(state, state.current_block)
    if not involved:
        # Unconstrained block (the common case): fp == geometry.
        return geo.astype(np.float64)
    available = len(state.shape_sets[state.current_block])
    out = np.zeros((NUM_SHAPES,) + geo.shape[1:])
    for s in range(min(available, NUM_SHAPES)):
        out[s] = _apply_constraints(state, s, geo[s].copy(), involved)
    return out


# ---------------------------------------------------------------------------
# Reward-related masks
# ---------------------------------------------------------------------------

#: Floor applied to ``hpwl_min`` before normalizing wire masks, matching
#: the clamp inside :func:`repro.floorplan.metrics.hpwl_lower_bound` —
#: callers passing a degenerate (``<= 0``) normalizer must not produce
#: inf/NaN mask values.
HPWL_MIN_FLOOR = 1e-9


def wire_mask(
    state: FloorplanState,
    shape_index: int,
    hpwl_min: float,
    valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """fw: normalized HPWL increase per candidate cell (paper Fig. 5 right).

    For each net touching the current block that already has placed
    members, placing the block center at (cx, cy) extends that net's
    bounding box by ``max(0, lo - c) + max(0, c - hi)`` per axis.
    Occupied/invalid cells are left at the maximum value 1.0.

    All incident nets are evaluated in one stacked numpy broadcast over
    the state's incrementally maintained per-net bounding boxes —
    O(incident nets) instead of O(all nets x all blocks) — and the result
    is bit-identical to a per-net scalar loop (golden-tested).
    ``valid`` optionally supplies the precomputed placement mask.
    """
    n = state.grid.n
    block = state.current_block
    variant = state.shape_sets[block][shape_index]
    coords = _grid_coords(state.grid.side, n)
    cx = coords + variant.width / 2.0   # center x per column
    cy = coords + variant.height / 2.0  # center y per row

    nets = state.circuit.incidence.nets_of(block)
    nets = nets[state.net_placed[nets] > 0]
    if nets.size:
        lo_x = state.net_lo_x[nets][:, np.newaxis]   # (k, 1)
        hi_x = state.net_hi_x[nets][:, np.newaxis]
        lo_y = state.net_lo_y[nets][:, np.newaxis]
        hi_y = state.net_hi_y[nets][:, np.newaxis]
        row = cx[np.newaxis, :]                      # (1, n)
        col = cy[np.newaxis, :]
        dx = np.maximum(lo_x - row, 0.0) + np.maximum(row - hi_x, 0.0)  # (k, n)
        dy = np.maximum(lo_y - col, 0.0) + np.maximum(col - hi_y, 0.0)  # (k, n)
        # Outer-axis reduce accumulates net-by-net in net order, exactly
        # like the reference's ``increase +=`` loop (bit-identical).
        increase = np.add.reduce(dy[:, :, np.newaxis] + dx[:, np.newaxis, :], axis=0)
    else:
        increase = np.zeros((n, n))

    increase /= max(hpwl_min, HPWL_MIN_FLOOR)
    peak = increase.max()
    if peak > 1.0:
        increase = increase / peak
    if valid is None:
        valid = placement_mask(state, shape_index)
    increase[~valid] = 1.0
    return increase


def dead_space_mask(
    state: FloorplanState,
    shape_index: int,
    valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """fds: normalized dead-space increase per candidate cell (Fig. 5 left).

    ``DS = 1 - placed_area / bbox_area``; the mask holds ``DS_after -
    DS_before`` for each candidate cell, min-max normalized to [0, 1], with
    invalid cells pinned to 1 (the paper sets occupied cells to the maximum
    increment).
    """
    n = state.grid.n
    block = state.current_block
    variant = state.shape_sets[block][shape_index]
    x0 = _grid_coords(state.grid.side, n)          # candidate lower-left x per column
    y0 = x0

    bbox = state.bounding_box()
    placed_area = state.placed_area()
    new_area = placed_area + variant.width * variant.height
    if bbox is None:
        ds_before = 0.0
        bx0 = by0 = np.inf
        bx1 = by1 = -np.inf
    else:
        bx0, by0, bx1, by1 = bbox
        bbox_area = (bx1 - bx0) * (by1 - by0)
        ds_before = 1.0 - placed_area / bbox_area if bbox_area > 0 else 0.0

    # Candidate bbox extents are separable per axis: 1-D spans per column
    # / row, combined in a single outer product.
    span_x = np.maximum(bx1, x0 + variant.width) - np.minimum(bx0, x0)    # (n,)
    span_y = np.maximum(by1, y0 + variant.height) - np.minimum(by0, y0)  # (n,)
    cand_area = span_y[:, np.newaxis] * span_x[np.newaxis, :]
    ds_after = 1.0 - new_area / np.maximum(cand_area, 1e-12)
    increase = ds_after - ds_before

    if valid is None:
        valid = placement_mask(state, shape_index)
    finite = increase[valid]
    if finite.size > 0:
        lo, hi = float(finite.min()), float(finite.max())
        span = hi - lo
        if span > 1e-12:
            increase = (increase - lo) / span
        else:
            increase = np.zeros_like(increase)
    increase = np.clip(increase, 0.0, 1.0)
    increase[~valid] = 1.0
    return increase


# ---------------------------------------------------------------------------
# Full observation tensor
# ---------------------------------------------------------------------------

def observation_masks(state: FloorplanState, hpwl_min: float) -> np.ndarray:
    """The 6 x n x n mask tensor of paper Sec. IV-D2.

    Channel order: [fg, fw, fds, fp0, fp1, fp2].  The paper uses a single
    fw and a single fds channel even though the block has three candidate
    shapes; we compute them for the middle (square-ish) variant of the
    block's *actual* shape set — index ``(len(shapes) - 1) // 2`` — so
    blocks carrying fewer than ``NUM_SHAPES`` variants still observe a
    valid shape.  Per-shape masks remain available via :func:`wire_mask`
    / :func:`dead_space_mask`.

    All ``2 + NUM_SHAPES`` derived channels share a single occupancy
    integral image (one per observation, not one per channel).
    """
    n = state.grid.n
    fg = state.occupancy.astype(np.float64)[np.newaxis]
    if state.done:
        return np.concatenate([fg, np.zeros((2 + NUM_SHAPES, n, n))])
    geometry = placement_masks(state)
    middle = (len(state.shape_sets[state.current_block]) - 1) // 2
    fw = wire_mask(state, middle, hpwl_min, valid=geometry[middle])[np.newaxis]
    fds = dead_space_mask(state, middle, valid=geometry[middle])[np.newaxis]
    fp = positional_masks(state, geometry=geometry)
    return np.concatenate([fg, fw, fds, fp], axis=0)


def action_mask(state: FloorplanState) -> np.ndarray:
    """Flat boolean mask over the 3 * n * n action space."""
    return positional_masks(state).astype(bool).reshape(-1)
