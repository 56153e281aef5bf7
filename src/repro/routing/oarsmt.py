"""Obstacle-Avoiding Rectilinear Steiner Minimum Tree construction.

Paper Sec. IV-E: "we construct an OARSMT for each net to minimize
wirelength and avoid obstacles".  We use the standard escape-graph
formulation: candidate Steiner points are the intersections of the Hanan
grid induced by terminals and obstacle boundaries; the tree is extracted
with networkx's Steiner-tree approximation (metric-closure 2-approx),
which is the classic practical approach at these problem sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..obs import phase
from .geometry import Obstacle, Point, Segment, merge_collinear

#: Interior tolerance, the default ``eps`` of ``Obstacle.contains_strict``.
_EPS = 1e-9


def escape_coordinates(
    terminals: Sequence[Point], obstacles: Sequence[Obstacle]
) -> Tuple[List[float], List[float]]:
    """Candidate x / y coordinates: terminals plus obstacle boundaries."""
    xs = {t.x for t in terminals}
    ys = {t.y for t in terminals}
    for ob in obstacles:
        xs.update((ob.x1, ob.x2))
        ys.update((ob.y1, ob.y2))
    return sorted(xs), sorted(ys)


def build_escape_graph(
    terminals: Sequence[Point], obstacles: Sequence[Obstacle]
) -> nx.Graph:
    """Escape graph over the Hanan grid, with obstacle interiors removed.

    Nodes are (x, y) tuples; edges connect grid-adjacent nodes and carry
    Manhattan length weights.  Nodes strictly inside an obstacle and edges
    crossing an obstacle interior are dropped (boundary routing is
    allowed, as in channel-based flows).

    Each obstacle's interior is a contiguous index range of the sorted
    grid coordinates, so it clears its nodes and edges with one slice of
    the validity grids ``node_ok (nx, ny)``, ``h_ok (nx-1, ny)`` and
    ``v_ok (nx, ny-1)``.  The interval tests are ``contains_strict``'s:
    ``x1 + eps < x < x2 - eps`` for a coordinate, and for an edge
    ``(c[k], c[k+1])`` overlap ``c[k] < x2 - eps and c[k+1] > x1 + eps``.
    Nodes are added x-major, then horizontal edges y-major and vertical
    edges x-major, so every adjacency order (which networkx's Steiner
    tree tie-breaks on) matches a per-edge loop in that order.
    """
    xs, ys = escape_coordinates(terminals, obstacles)
    node_ok = np.ones((len(xs), len(ys)), dtype=bool)
    h_ok = np.ones((max(len(xs) - 1, 0), len(ys)), dtype=bool)
    v_ok = np.ones((len(xs), max(len(ys) - 1, 0)), dtype=bool)
    bounds = np.array(
        [(ob.x1, ob.x2, ob.y1, ob.y2) for ob in obstacles], dtype=float
    ).reshape(-1, 4)
    grid_x = np.asarray(xs, dtype=float)
    grid_y = np.asarray(ys, dtype=float)
    # [lo, hi): the coordinates with x1 + eps < c < x2 - eps.
    x_lo = np.searchsorted(grid_x, bounds[:, 0] + _EPS, side="right").tolist()
    x_hi = np.searchsorted(grid_x, bounds[:, 1] - _EPS, side="left").tolist()
    y_lo = np.searchsorted(grid_y, bounds[:, 2] + _EPS, side="right").tolist()
    y_hi = np.searchsorted(grid_y, bounds[:, 3] - _EPS, side="left").tolist()
    for a, b, c, d in zip(x_lo, x_hi, y_lo, y_hi):
        node_ok[a:b, c:d] = False
        # Edge k overlaps the interior iff c[k] < x2 - eps (k < hi)
        # and c[k+1] > x1 + eps (k >= lo - 1).
        h_ok[max(a - 1, 0):b, c:d] = False
        v_ok[a:b, max(c - 1, 0):d] = False
    h_ok &= node_ok[:-1] & node_ok[1:]
    v_ok &= node_ok[:, :-1] & node_ok[:, 1:]

    graph = nx.Graph()
    i, j = np.nonzero(node_ok)  # x-major
    graph.add_nodes_from((xs[a], ys[b]) for a, b in zip(i.tolist(), j.tolist()))
    j, i = np.nonzero(h_ok.T)  # horizontal edges, y-major
    graph.add_weighted_edges_from(
        ((xs[a], ys[b]), (xs[a + 1], ys[b]), xs[a + 1] - xs[a])
        for a, b in zip(i.tolist(), j.tolist())
    )
    i, j = np.nonzero(v_ok)  # vertical edges, x-major
    graph.add_weighted_edges_from(
        ((xs[a], ys[b]), (xs[a], ys[b + 1]), ys[b + 1] - ys[b])
        for a, b in zip(i.tolist(), j.tolist())
    )
    return graph


@dataclass
class SteinerTree:
    """Result of OARSMT construction for one net."""

    net: str
    terminals: List[Point]
    segments: List[Segment] = field(default_factory=list)

    @property
    def length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def covers_terminals(self) -> bool:
        """Every terminal must be an endpoint of (or on) some segment.

        A net whose terminals all coincide needs no wire, so its empty
        tree covers them.
        """
        if len(set(self.terminals)) <= 1:
            return True
        for t in self.terminals:
            on_tree = any(
                (seg.is_horizontal and seg.canonical().y1 == t.y
                 and seg.canonical().x1 - 1e-9 <= t.x <= seg.canonical().x2 + 1e-9)
                or (seg.is_vertical and seg.canonical().x1 == t.x
                    and seg.canonical().y1 - 1e-9 <= t.y <= seg.canonical().y2 + 1e-9)
                for seg in self.segments
            )
            if not on_tree:
                return False
        return True


def oarsmt(
    net: str,
    terminals: Sequence[Point],
    obstacles: Sequence[Obstacle] = (),
) -> SteinerTree:
    """Build an obstacle-avoiding rectilinear Steiner tree for one net.

    Raises ``ValueError`` for nets with fewer than two terminals and
    ``RuntimeError`` when obstacles disconnect the terminals (no route).
    """
    terminals = list(terminals)
    if len(terminals) < 2:
        raise ValueError(f"net {net}: OARSMT needs at least two terminals")
    for t in terminals:
        if any(ob.contains_strict(t.x, t.y) for ob in obstacles):
            raise ValueError(f"net {net}: terminal {t} is inside an obstacle")

    with phase("routing.escape_graph"):
        graph = build_escape_graph(terminals, obstacles)
    nodes = [(t.x, t.y) for t in terminals]
    with phase("routing.steiner"):
        for node in nodes:
            if node not in graph:
                graph.add_node(node)
        if not all(nx.has_path(graph, nodes[0], n) for n in nodes[1:]):
            raise RuntimeError(f"net {net}: terminals are disconnected by obstacles")

        # Restrict to the terminals' connected component: stray disconnected
        # grid nodes break the Mehlhorn Steiner approximation.
        component = nx.node_connected_component(graph, nodes[0])
        graph = graph.subgraph(component)
        tree = nx.algorithms.approximation.steiner_tree(graph, nodes, weight="weight")
    segments = [
        Segment(u[0], u[1], v[0], v[1]) for u, v in tree.edges
    ]
    return SteinerTree(net=net, terminals=terminals, segments=merge_collinear(segments))
