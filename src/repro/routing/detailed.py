"""Detailed routing: conduits -> physical wires with tracks and vias.

This is the reproduction's stand-in for ANAGEN's procedural router (paper
refs [11]-[13]).  Conduits become wire rectangles of real width; conduits
of *different nets* sharing a routing track are spread onto adjacent lanes
(track pitch apart), and every displaced wire is re-connected to its
original endpoints by short perpendicular stubs on the other metal layer
so net connectivity is preserved.  Vias are derived from the final
geometry: wherever two same-net wires on adjacent layers overlap, a via is
dropped.

Exactly like the paper's flow, pathological congestion can leave residual
issues that DRC/LVS flag ("manual refinement of routing channels ... is
still necessary", Sec. V-C); Table II's improvement-time model charges for
those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .channels import TRACK_PITCH
from .geometry import Segment
from .global_router import H_LAYER, V_LAYER, Conduit, GlobalRoute

#: Physical wire width (um).
WIRE_WIDTH = 0.3
#: Via pad is square with this side (um).
VIA_SIZE = 0.4


@dataclass(frozen=True)
class Wire:
    """A physical wire rectangle on one layer."""

    net: str
    layer: str
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        return self.x1, self.y1, self.x2, self.y2

    def overlaps(self, other: "Wire", tol: float = 1e-9) -> bool:
        return not (
            self.x2 <= other.x1 + tol or other.x2 <= self.x1 + tol
            or self.y2 <= other.y1 + tol or other.y2 <= self.y1 + tol
        )


@dataclass(frozen=True)
class Via:
    """A layer-change via (square pad centred on (x, y))."""

    net: str
    lower_layer: str
    upper_layer: str
    x: float
    y: float


@dataclass
class DetailedRoute:
    """Physical wires and vias realizing a global route."""

    circuit_name: str
    wires: List[Wire] = field(default_factory=list)
    vias: List[Via] = field(default_factory=list)

    @property
    def total_wire_length(self) -> float:
        return sum(
            max((w.x2 - w.x1) - WIRE_WIDTH, 0.0) + max((w.y2 - w.y1) - WIRE_WIDTH, 0.0)
            for w in self.wires
        )

    def wires_of(self, net: str) -> List[Wire]:
        return [w for w in self.wires if w.net == net]


def _spans(conduit: Conduit) -> Tuple[float, float, float]:
    """(base coordinate, span start, span end) of a conduit."""
    seg = conduit.segment.canonical()
    if seg.is_horizontal:
        return seg.y1, seg.x1, seg.x2
    return seg.x1, seg.y1, seg.y2


def _conflicting_lanes(conduits: List[Tuple[int, Conduit]]) -> Dict[int, int]:
    """Lane per conduit index, displacing only *genuine* conflicts.

    Two same-orientation conduits conflict when they carry different nets,
    their spans overlap, and their base coordinates are closer than a wire
    width.  Conflict components get lanes per net in base-coordinate order
    (offsets then strictly add to existing separation); everything else
    keeps lane 0 so conflict-free global routes are realized untouched.
    """
    lanes: Dict[int, int] = {}
    n = len(conduits)
    adjacency: Dict[int, List[int]] = {i: [] for i, _ in conduits}
    info = {i: _spans(c) for i, c in conduits}
    items = list(conduits)
    for a_pos in range(n):
        i, ci = items[a_pos]
        base_i, lo_i, hi_i = info[i]
        for b_pos in range(a_pos + 1, n):
            j, cj = items[b_pos]
            if ci.net == cj.net:
                continue
            base_j, lo_j, hi_j = info[j]
            if abs(base_i - base_j) < WIRE_WIDTH and lo_i < hi_j and lo_j < hi_i:
                adjacency[i].append(j)
                adjacency[j].append(i)

    visited: set = set()
    for i, _ in items:
        if i in visited or not adjacency[i]:
            continue
        # Flood the conflict component.
        component = []
        stack = [i]
        while stack:
            k = stack.pop()
            if k in visited:
                continue
            visited.add(k)
            component.append(k)
            stack.extend(adjacency[k])
        by_index = dict(items)
        net_lane: Dict[str, int] = {}
        for k in sorted(component, key=lambda k: (info[k][0], by_index[k].net)):
            net = by_index[k].net
            if net not in net_lane:
                net_lane[net] = len(net_lane)
            lanes[k] = net_lane[net]
    return lanes


def _wire_for(conduit: Conduit, offset: float) -> Tuple[Wire, List[Tuple[float, float]]]:
    """Build the wire rect for a conduit displaced by ``offset`` and return
    it with the conduit's *original* endpoints (pre-displacement)."""
    seg = conduit.segment.canonical()
    half = WIRE_WIDTH / 2.0
    if seg.is_horizontal:
        y = seg.y1 + offset
        wire = Wire(conduit.net, conduit.layer,
                    seg.x1 - half, y - half, seg.x2 + half, y + half)
        originals = [(seg.x1, seg.y1), (seg.x2, seg.y1)]
    else:
        x = seg.x1 + offset
        wire = Wire(conduit.net, conduit.layer,
                    x - half, seg.y1 - half, x + half, seg.y2 + half)
        originals = [(seg.x1, seg.y1), (seg.x1, seg.y2)]
    return wire, originals


def detailed_route(route: GlobalRoute) -> DetailedRoute:
    """Realize every conduit as physical geometry (see module docstring)."""
    result = DetailedRoute(circuit_name=route.circuit_name)
    half = WIRE_WIDTH / 2.0

    # Detect genuine same-layer conflicts per orientation; conflict-free
    # conduits (the normal case after keep-out global routing) keep lane 0.
    horizontal: List[Tuple[int, Conduit]] = []
    vertical: List[Tuple[int, Conduit]] = []
    for i, conduit in enumerate(route.conduits):
        seg = conduit.segment.canonical()
        if seg.length == 0:
            continue
        (horizontal if seg.is_horizontal else vertical).append((i, conduit))

    lane_by_index: Dict[int, int] = {}
    lane_by_index.update(_conflicting_lanes(horizontal))
    lane_by_index.update(_conflicting_lanes(vertical))

    for i, conduit in enumerate(route.conduits):
        seg = conduit.segment.canonical()
        if seg.length == 0:
            continue
        lane = lane_by_index.get(i, 0)
        offset = lane * TRACK_PITCH
        wire, originals = _wire_for(conduit, offset)
        result.wires.append(wire)

        if offset > 0:
            # Re-connect the displaced wire to its original endpoints with
            # perpendicular stubs on the other layer + vias at both ends.
            stub_layer = V_LAYER if seg.is_horizontal else H_LAYER
            for ox, oy in originals:
                if seg.is_horizontal:
                    stub = Wire(conduit.net, stub_layer,
                                ox - half, oy - half, ox + half, oy + offset + half)
                    far = (ox, oy + offset)
                else:
                    stub = Wire(conduit.net, stub_layer,
                                ox - half, oy - half, ox + offset + half, oy + half)
                    far = (ox + offset, oy)
                result.wires.append(stub)
                lower, upper = sorted((conduit.layer, stub_layer))
                result.vias.append(Via(conduit.net, lower, upper, ox, oy))
                result.vias.append(Via(conduit.net, lower, upper, far[0], far[1]))

    # Vias wherever same-net wires on the two layers overlap (corners,
    # T-junctions): derived from final geometry so displaced wires are
    # handled uniformly.
    seen: set = set()
    for via in result.vias:
        seen.add((via.net, round(via.x, 3), round(via.y, 3)))
    by_net: Dict[str, List[Wire]] = {}
    for wire in result.wires:
        by_net.setdefault(wire.net, []).append(wire)
    for net, wires in by_net.items():
        h_wires = [w for w in wires if w.layer == H_LAYER]
        v_wires = [w for w in wires if w.layer == V_LAYER]
        for hw in h_wires:
            for vw in v_wires:
                if hw.overlaps(vw):
                    cx = (max(hw.x1, vw.x1) + min(hw.x2, vw.x2)) / 2.0
                    cy = (max(hw.y1, vw.y1) + min(hw.y2, vw.y2)) / 2.0
                    key = (net, round(cx, 3), round(cy, 3))
                    if key not in seen:
                        seen.add(key)
                        lower, upper = sorted((H_LAYER, V_LAYER))
                        result.vias.append(Via(net, lower, upper, cx, cy))
    return result
