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

from .geometry import Obstacle, Point, Segment, merge_collinear


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
    Manhattan length weights.  Edges crossing an obstacle interior are
    dropped (boundary routing is allowed, as in channel-based flows).
    """
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
                if not any(ob.blocks_segment(seg) for ob in obstacles):
                    graph.add_edge((x1, y), (x2, y), weight=x2 - x1)
    # Vertical edges.
    for x in xs:
        for y1, y2 in zip(ys, ys[1:]):
            if (x, y1) in graph and (x, y2) in graph:
                seg = Segment(x, y1, x, y2)
                if not any(ob.blocks_segment(seg) for ob in obstacles):
                    graph.add_edge((x, y1), (x, y2), weight=y2 - y1)
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

    graph = build_escape_graph(terminals, obstacles)
    nodes = [(t.x, t.y) for t in terminals]
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
