"""The floorplanning MDP environment (paper Sec. IV-A).

``FloorplanEnv`` implements the episode loop: blocks are placed one per
step in decreasing-area order; actions jointly pick a shape (3 options)
and a grid cell for the lower-left corner (32 x 32 cells); invalid actions
are excluded via the positional masks.  Rewards follow Eq. 4 (per step)
and Eq. 5 (episode end), with the -50 penalty on constraint violation /
dead-end states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.constraints import Constraint, ConstraintKind
from ..circuits.netlist import Circuit
from ..config import (
    ACTION_SPACE,
    GRID_SIZE,
    NUM_SHAPES,
    VIOLATION_PENALTY,
)
from ..graph.features import circuit_to_graph
from ..graph.hetero import HeteroGraph
from ..obs import OBS
from .masks import action_mask, observation_masks
from .metrics import (
    dead_space,
    final_reward,
    hpwl_lower_bound,
    intermediate_reward,
    state_hpwl,
)
from .state import FloorplanState


@dataclass
class Observation:
    """One environment observation.

    Attributes
    ----------
    masks:
        ``(6, n, n)`` float tensor: fg, fw, fds, fp0..fp2 (Sec. IV-D2).
    action_mask:
        Flat boolean vector over the ``3 * n * n`` action space.
    block_index:
        Circuit index of the block being placed (for the R-GCN node
        embedding lookup).
    graph:
        The circuit's heterogeneous graph (static over the episode).
    """

    masks: np.ndarray
    action_mask: np.ndarray
    block_index: int
    graph: HeteroGraph


def decode_action(action: int, n: int = GRID_SIZE) -> Tuple[int, int, int]:
    """Action id -> (shape_index, gx, gy)."""
    if not 0 <= action < NUM_SHAPES * n * n:
        raise ValueError(f"action {action} outside [0, {NUM_SHAPES * n * n})")
    shape_index, cell = divmod(action, n * n)
    gy, gx = divmod(cell, n)
    return shape_index, gx, gy


def encode_action(shape_index: int, gx: int, gy: int, n: int = GRID_SIZE) -> int:
    """(shape_index, gx, gy) -> action id."""
    return shape_index * n * n + gy * n + gx


class FloorplanEnv:
    """Sequential block-placement environment for one circuit.

    Parameters
    ----------
    circuit:
        The circuit to floorplan.
    hpwl_min:
        Normalizer for wirelength terms; defaults to the analytic lower
        bound (see :func:`repro.floorplan.metrics.hpwl_lower_bound`).
    target_aspect:
        Optional fixed-outline aspect-ratio target (activates the gamma
        term of Eq. 5).
    """

    def __init__(
        self,
        circuit: Circuit,
        hpwl_min: Optional[float] = None,
        target_aspect: Optional[float] = None,
    ):
        self.circuit = circuit
        self.hpwl_min = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
        self.target_aspect = target_aspect
        self.graph = circuit_to_graph(circuit)
        self.state: Optional[FloorplanState] = None
        self._ds = 0.0
        self._hpwl = 0.0
        self._terminated = False
        self._action_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def set_circuit(self, circuit: Circuit, hpwl_min: Optional[float] = None) -> None:
        """Swap the task (used by the curriculum trainer); requires reset."""
        self.circuit = circuit
        self.hpwl_min = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
        self.graph = circuit_to_graph(circuit)
        self.state = None
        self._action_mask = None

    def reset(self) -> Observation:
        self.state = FloorplanState(self.circuit)
        self._ds = 0.0
        self._hpwl = 0.0
        self._terminated = False
        return self._observe()

    def _observe(self) -> Observation:
        assert self.state is not None
        masks = observation_masks(self.state, self.hpwl_min)
        if self.state.done:
            block = -1
            mask = np.zeros(ACTION_SPACE, dtype=bool)
        else:
            block = self.state.current_block
            # The fp channels of the observation *are* the positional
            # masks — derive the action mask from them instead of
            # recomputing positional_masks a second time.
            mask = masks[3:3 + NUM_SHAPES].astype(bool).reshape(-1)
        self._action_mask = mask
        return Observation(
            masks=masks,
            action_mask=mask,
            block_index=block,
            graph=self.graph,
        )

    # ------------------------------------------------------------------
    def step(self, action: int) -> Tuple[Observation, float, bool, Dict]:
        """Place the current block; returns (obs, reward, done, info).

        The ``repro.obs`` instrumentation lives in this thin wrapper: one
        flag read when telemetry is disabled (the 207us hot path must not
        regress), step/episode/violation counters and an
        ``env.step.seconds`` histogram when enabled.  Telemetry reads the
        transition but never alters it.
        """
        if not OBS.enabled:
            return self._step(action)
        t0 = time.perf_counter()
        transition = self._step(action)
        registry = OBS.registry
        registry.observe("env.step.seconds", time.perf_counter() - t0)
        registry.inc("env.steps")
        _, _, done, info = transition
        if done:
            registry.inc("env.episodes")
            if info.get("violation"):
                registry.inc("env.violations")
        return transition

    def _step(self, action: int) -> Tuple[Observation, float, bool, Dict]:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        if self.state.done or self._terminated:
            raise RuntimeError("episode finished; call reset()")

        shape_index, gx, gy = decode_action(action)
        # The action mask of the current state was computed by the last
        # _observe() (reset or previous step); the state has not changed
        # since, so reuse it rather than rebuilding the positional masks.
        mask = self._action_mask if self._action_mask is not None else action_mask(self.state)
        info: Dict = {}

        if not mask[action]:
            # Invalid action (should not happen under masked policies) or
            # constraint dead-end: paper penalizes with -50 and ends.
            info["violation"] = True
            self._terminated = True
            return self._observe(), VIOLATION_PENALTY, True, info

        block = self.state.current_block
        self._fix_symmetry_axes_before(block, shape_index, gx, gy)
        self.state.place(shape_index, gx, gy)

        ds_after = dead_space(self.state)
        hpwl_after = state_hpwl(self.state, partial=True)
        reward = intermediate_reward(self._ds, ds_after, self._hpwl, hpwl_after, self.hpwl_min)
        self._ds, self._hpwl = ds_after, hpwl_after

        done = self.state.done
        obs = self._observe()
        if not done and not obs.action_mask.any():
            # The next block cannot be legally placed anywhere: dead end.
            info["violation"] = True
            info["dead_end_block"] = self.state.current_block
            self._terminated = True
            return obs, VIOLATION_PENALTY, True, info

        if done:
            violations = self.verify_constraints()
            if violations:
                info["violation"] = True
                info["violations"] = violations
                return obs, VIOLATION_PENALTY, True, info
            reward += final_reward(
                self.state, hpwl_min=self.hpwl_min, target_aspect=self.target_aspect
            )
            info["final_dead_space"] = ds_after
            info["final_hpwl"] = hpwl_after
        return obs, reward, done, info

    # ------------------------------------------------------------------
    def _fix_symmetry_axes_before(self, block: int, shape_index: int, gx: int, gy: int) -> None:
        """Record free symmetry axes once enough members are placed.

        For a free-axis pair the axis is the mid-point of the two member
        centers, recorded when the *second* member is placed.  For a free
        self-symmetric block the axis is its own center.
        """
        state = self.state
        assert state is not None
        variant = state.shape_sets[block][shape_index]
        x, y = state.grid.to_real(gx, gy)
        cx = x + variant.width / 2.0
        cy = y + variant.height / 2.0
        for cid, constraint in enumerate(state.circuit.constraints):
            if not constraint.involves(block) or not constraint.is_symmetry:
                continue
            if constraint.axis is not None or cid in state.sym_axes:
                continue
            if len(constraint.blocks) == 1:
                state.sym_axes[cid] = cx if constraint.kind is ConstraintKind.SYM_V else cy
                continue
            partner = constraint.partner(block)
            if partner in state.placed:
                p = state.placed[partner]
                if constraint.kind is ConstraintKind.SYM_V:
                    state.sym_axes[cid] = (p.x + p.width / 2.0 + cx) / 2.0
                else:
                    state.sym_axes[cid] = (p.y + p.height / 2.0 + cy) / 2.0

    def verify_constraints(self) -> List[str]:
        """Check all constraints on the (complete) floorplan; returns
        human-readable violation strings (empty list = clean)."""
        state = self.state
        assert state is not None
        cell = state.grid.cell
        tolerance = cell / 2.0 + 1e-9
        problems: List[str] = []
        for cid, constraint in enumerate(state.circuit.constraints):
            placed = [state.placed[b] for b in constraint.blocks if b in state.placed]
            if len(placed) < len(constraint.blocks):
                continue  # incomplete groups are not judged
            if constraint.kind is ConstraintKind.ALIGN_V:
                if len({p.gx for p in placed}) != 1:
                    problems.append(f"align_v group {constraint.blocks}: columns differ")
            elif constraint.kind is ConstraintKind.ALIGN_H:
                if len({p.gy for p in placed}) != 1:
                    problems.append(f"align_h group {constraint.blocks}: rows differ")
            elif constraint.kind is ConstraintKind.SYM_V:
                axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(cid)
                if len(placed) == 1:
                    if axis is not None and abs(placed[0].center[0] - axis) > tolerance:
                        problems.append(f"sym_v self {constraint.blocks}: off axis")
                else:
                    a, b = placed
                    if a.gy != b.gy:
                        problems.append(f"sym_v pair {constraint.blocks}: rows differ")
                    if axis is not None and abs((a.center[0] + b.center[0]) / 2.0 - axis) > tolerance:
                        problems.append(f"sym_v pair {constraint.blocks}: axis mismatch")
            elif constraint.kind is ConstraintKind.SYM_H:
                axis = constraint.axis if constraint.axis is not None else state.sym_axes.get(cid)
                if len(placed) == 1:
                    if axis is not None and abs(placed[0].center[1] - axis) > tolerance:
                        problems.append(f"sym_h self {constraint.blocks}: off axis")
                else:
                    a, b = placed
                    if a.gx != b.gx:
                        problems.append(f"sym_h pair {constraint.blocks}: columns differ")
                    if axis is not None and abs((a.center[1] + b.center[1]) / 2.0 - axis) > tolerance:
                        problems.append(f"sym_h pair {constraint.blocks}: axis mismatch")
        return problems

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """ASCII rendering of the occupancy grid (examples / debugging)."""
        if self.state is None:
            return "<unreset environment>"
        chars = np.full((self.state.grid.n, self.state.grid.n), ".", dtype="<U1")
        for placed in self.state.placed.values():
            label = self.circuit.blocks[placed.index].name[0]
            chars[placed.gy:placed.gy + placed.gh, placed.gx:placed.gx + placed.gw] = label
        return "\n".join("".join(row) for row in chars[::-1])
