"""Floorplan quality metrics: HPWL (Eq. 3), dead space, rewards (Eq. 4-5).

All metrics operate on real (um) coordinates.  Net endpoints are block
centers — the standard proxy-wirelength convention for floorplanning,
matching the paper's "proxy wirelength" terminology.
"""

from __future__ import annotations

import time
from math import sqrt
from typing import Optional

import numpy as np

from ..circuits.netlist import Circuit
from ..config import REWARD_ALPHA, REWARD_BETA, REWARD_GAMMA
from ..obs import OBS
from .state import FloorplanState


def _sum_like_reference(spans: np.ndarray) -> float:
    """Sequential left-to-right accumulation, matching a scalar
    ``total +=`` loop over nets bit for bit (numpy's pairwise summation
    does not)."""
    total = 0.0
    for span in spans.tolist():
        total += span
    return total


def incidence_hpwl_batch(circuit: Circuit, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Population HPWL from block centres: ``cx`` / ``cy`` are
    ``(P, num_blocks)`` center arrays for ``P`` placements; returns
    ``(P,)`` HPWL values, each bit-identical to the scalar per-net loop
    (vectorized over the precomputed ``circuit.incidence`` structure)."""
    inc = circuit.incidence
    n_p = cx.shape[0]
    if inc.num_nets == 0:
        return np.zeros(n_p)
    starts = inc.net_offsets[:-1]
    mx = cx[:, inc.net_members]
    my = cy[:, inc.net_members]
    spans = (
        np.maximum.reduceat(mx, starts, axis=1) - np.minimum.reduceat(mx, starts, axis=1)
    ) + (
        np.maximum.reduceat(my, starts, axis=1) - np.minimum.reduceat(my, starts, axis=1)
    )
    # Accumulate net-by-net (vectorized over the population) so each row
    # reproduces the reference's sequential summation order exactly.
    totals = np.zeros(n_p)
    for j in range(spans.shape[1]):
        totals += spans[:, j]
    return totals


def state_hpwl(state: FloorplanState, partial: bool = True) -> float:
    """HPWL of a (possibly partial) floorplan state.

    Served from the state's incrementally maintained per-net bounding
    boxes: O(nets) per call instead of O(nets x blocks), and bit-identical
    to the scalar per-net HPWL loop over block centers.

    Instrumented for ``repro.obs``: with telemetry enabled each call
    feeds the ``env.hpwl.seconds`` histogram; disabled, the only cost is
    one flag read (the value itself is never perturbed either way).
    """
    if OBS.enabled:
        t0 = time.perf_counter()
        value = _state_hpwl(state, partial)
        OBS.registry.observe("env.hpwl.seconds", time.perf_counter() - t0)
        return value
    return _state_hpwl(state, partial)


def _state_hpwl(state: FloorplanState, partial: bool) -> float:
    inc = state.circuit.incidence
    counts = state.net_placed
    if not partial:
        short = counts < inc.net_degrees
        if bool(short.any()):
            name = state.circuit.nets[int(np.argmax(short))].name
            raise KeyError(f"net {name}: unplaced blocks in full-HPWL mode")
        idx = np.arange(inc.num_nets)
    else:
        idx = np.flatnonzero(counts >= 2)
    if idx.size == 0:
        return 0.0
    spans = (state.net_hi_x[idx] - state.net_lo_x[idx]) + (
        state.net_hi_y[idx] - state.net_lo_y[idx]
    )
    return _sum_like_reference(spans)


def floorplan_area(state: FloorplanState) -> float:
    """Bounding-box area of the placed blocks (um^2)."""
    bbox = state.bounding_box()
    if bbox is None:
        return 0.0
    minx, miny, maxx, maxy = bbox
    return (maxx - minx) * (maxy - miny)


def dead_space(state: FloorplanState) -> float:
    """``1 - sum(A_i) / F_area`` over *placed* blocks (paper Sec. IV-D4)."""
    area = floorplan_area(state)
    if area <= 0:
        return 0.0
    return 1.0 - state.placed_area() / area


def aspect_ratio(state: FloorplanState) -> float:
    """Width / height of the floorplan bounding box (>= 1 convention not imposed)."""
    bbox = state.bounding_box()
    if bbox is None:
        return 1.0
    minx, miny, maxx, maxy = bbox
    height = maxy - miny
    if height <= 0:
        return 1.0
    return (maxx - minx) / height


def hpwl_lower_bound(circuit: Circuit) -> float:
    """Analytic HPWL normalizer standing in for the paper's HPWL_min.

    The paper estimates ``HPWL_min`` "through a metaheuristic-based
    simulation"; to keep the environment self-contained and deterministic
    we use an analytic lower-bound proxy: for each net, the half-perimeter
    of the smallest square that could contain all member blocks if packed
    edge-to-edge.  A metaheuristic estimate can be substituted via the
    environment's ``hpwl_min`` argument (the Table I harness does this).

    Memoized per circuit: the sum walks every device of every net member,
    and evaluation hot paths fall back to this bound when no explicit
    normalizer is supplied.
    """
    cached = circuit.__dict__.get("_hpwl_lower_bound")
    if cached is not None and circuit.__dict__.get("_hpwl_lb_nets") == len(circuit.nets):
        return cached
    total = 0.0
    for net in circuit.nets:
        member_area = sum(circuit.blocks[b].area for b in net.blocks)
        total += 2.0 * sqrt(member_area)
    total = max(total, 1e-9)
    circuit.__dict__["_hpwl_lower_bound"] = total
    circuit.__dict__["_hpwl_lb_nets"] = len(circuit.nets)
    return total


def intermediate_reward(
    ds_before: float,
    ds_after: float,
    hpwl_before: float,
    hpwl_after: float,
    hpwl_min: float,
) -> float:
    """Per-step reward r_t = -(d_ds + d_HPWL) (paper Eq. 4).

    The HPWL delta is normalized by ``hpwl_min`` so the two terms share the
    dead-space scale ([0, 1]-ish); the paper normalizes its reward terms
    the same way in Eq. 5.
    """
    delta_ds = ds_after - ds_before
    delta_hpwl = (hpwl_after - hpwl_before) / hpwl_min
    return -(delta_ds + delta_hpwl)


def final_reward(
    state: FloorplanState,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> float:
    """End-of-episode reward R (paper Eq. 5), negated weighted cost.

    ``R = -(alpha * F_area / sum(A_i) + beta * HPWL / HPWL_min
          + gamma * (R_target - R_actual)^2)``

    Both ratio terms are offset by their ideal value (1.0): Table I reports
    best-case rewards near zero (e.g. -0.21 for OTA-1), which is only
    possible if an optimal floorplan scores ~0 — the raw form would bottom
    out at ``-(alpha + beta) = -6``.  The offset changes every reward by a
    constant per circuit, so rankings (the paper's comparison) are
    unaffected.
    """
    if not state.done:
        raise ValueError("final reward is only defined for complete floorplans")
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(state.circuit)
    area_term = alpha * (floorplan_area(state) / state.circuit.total_area - 1.0)
    wire_term = beta * (state_hpwl(state, partial=False) / hmin - 1.0)
    cost = area_term + wire_term
    if target_aspect is not None:
        cost += gamma * (target_aspect - aspect_ratio(state)) ** 2
    return -cost
