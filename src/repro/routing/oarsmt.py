"""Obstacle-Avoiding Rectilinear Steiner Minimum Tree construction.

Paper Sec. IV-E: "we construct an OARSMT for each net to minimize
wirelength and avoid obstacles".  We use the standard escape-graph
formulation: candidate Steiner points are the intersections of the Hanan
grid induced by terminals and obstacle boundaries.  The tree is
Mehlhorn's metric-closure 2-approximation (IPL 27(3), 1988), the classic
practical approach at these problem sizes:

1. a multi-source Dijkstra assigns every grid node its nearest terminal;
2. each grid edge joining two terminals' regions proposes a terminal
   pair, weighted by the path through it; a Kruskal MST of those pairs
   is a spanning tree of the terminals;
3. each MST pair expands to a shortest grid path, a second MST over the
   union of those paths removes cycles, and non-terminal leaves are
   pruned.

The search runs on integer node ids over plain adjacency lists.  It
returns the same edges, in the same order, as *the reference*:
``oarsmt_reference`` in ``tests/oracles.py``, a general graph library's
Mehlhorn tree over the same escape graph, which the router ran before.
It replays every heap tie-break, every stable sort and the iteration
order of every graph view the reference builds on a Python ``set`` of
``(x, y)`` tuples (float hashes are not salted, so that order is
deterministic).  Identical edges keep every tree, conduit and signoff
figure unchanged; ``tests/test_routing.py`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..obs import phase
from .geometry import Obstacle, Point, Segment, merge_collinear

#: Interior tolerance, the default ``eps`` of ``Obstacle.contains_strict``.
_EPS = 1e-9

#: A grid edge ``(node, node)`` as a pair of integer node ids.
Edge = Tuple[int, int]


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


@dataclass
class EscapeGraph:
    """The escape graph on integer node ids ``a * len(ys) + b`` (x-major).

    ``nodes`` lists the routable ids in id order.  ``adj[i]`` holds node
    ``i``'s ``(neighbour id, edge length)`` pairs in the order left,
    right, down, up; a node inside an obstacle has none.
    """

    xs: List[float]
    ys: List[float]
    nodes: List[int]
    adj: List[List[Tuple[int, float]]]

    def point(self, node: int) -> Tuple[float, float]:
        """The ``(x, y)`` coordinates of a node id."""
        a, b = divmod(node, len(self.ys))
        return self.xs[a], self.ys[b]

    def node_ids(self, points: Sequence[Tuple[float, float]]) -> List[int]:
        """Node ids of grid coordinates."""
        col = {x: a for a, x in enumerate(self.xs)}
        row = {y: b for b, y in enumerate(self.ys)}
        ny = len(self.ys)
        return [col[x] * ny + row[y] for x, y in points]


def build_escape_graph(
    terminals: Sequence[Point], obstacles: Sequence[Obstacle]
) -> EscapeGraph:
    """Escape graph over the Hanan grid, with obstacle interiors removed.

    Edges connect grid-adjacent nodes and carry Manhattan lengths
    (``xs[a + 1] - xs[a]`` or ``ys[b + 1] - ys[b]``).  Nodes strictly
    inside an obstacle and edges crossing an obstacle interior are
    dropped (boundary routing is allowed, as in channel-based flows).

    Each obstacle's interior is a contiguous index range of the sorted
    grid coordinates, so it clears its nodes and edges with one slice of
    the validity grids ``node_ok (nx, ny)``, ``h_ok (nx-1, ny)`` and
    ``v_ok (nx, ny-1)``.  The interval tests are ``contains_strict``'s:
    ``x1 + eps < x < x2 - eps`` for a coordinate, and for an edge
    ``(c[k], c[k+1])`` overlap ``c[k] < x2 - eps and c[k+1] > x1 + eps``.
    Horizontal edges are appended y-major and vertical edges x-major, so
    every node's neighbours come left, right, down, up: the adjacency
    order the Steiner tree's tie-breaks follow.
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

    ny = len(ys)
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(len(xs) * ny)]
    dx = [x2 - x1 for x1, x2 in zip(xs, xs[1:])]
    dy = [y2 - y1 for y1, y2 in zip(ys, ys[1:])]
    j, i = np.nonzero(h_ok.T)  # horizontal edges, y-major
    for a, b in zip(i.tolist(), j.tolist()):
        u = a * ny + b
        adj[u].append((u + ny, dx[a]))
        adj[u + ny].append((u, dx[a]))
    i, j = np.nonzero(v_ok)  # vertical edges, x-major
    for a, b in zip(i.tolist(), j.tolist()):
        u = a * ny + b
        adj[u].append((u + 1, dy[b]))
        adj[u + 1].append((u, dy[b]))
    return EscapeGraph(xs, ys, np.flatnonzero(node_ok).tolist(), adj)


def _component(graph: EscapeGraph, source: int) -> Tuple[List[int], bytearray]:
    """The nodes connected to ``source``, in the order the reference's
    component view iterates them, and a per-id reached flag.

    That view iterates the base graph's nodes (id order) unless the
    component is under half of them; then it iterates
    ``set(n for n in seen)``, rebuilt from the BFS ``seen`` set of
    ``(x, y)`` tuples in BFS insertion order.  (``set(seen)`` would be
    sized differently and can iterate in another order.)
    """
    adj = graph.adj
    reached = bytearray(len(adj))
    reached[source] = 1
    bfs = [source]
    for v in bfs:
        for u, _ in adj[v]:
            if not reached[u]:
                reached[u] = 1
                bfs.append(u)
    if 2 * len(bfs) >= len(graph.nodes):
        return sorted(bfs), reached
    seen = set()
    for v in bfs:
        seen.add(graph.point(v))
    return graph.node_ids(set(n for n in seen)), reached


def _edge_subgraph_order(
    graph: EscapeGraph, edges: List[Edge], order: List[int]
) -> List[int]:
    """Node order of the reference's edge-induced view of ``edges`` on
    the component view, which iterates ``order``.

    The view keeps ``nodes = set(set(edges) endpoints)``; it iterates that
    set when it holds under half of the component, else ``order``.
    """
    ends = {n for edge in edges for n in edge}
    if 2 * len(ends) >= len(order):
        return [n for n in order if n in ends]
    point = graph.point
    nodes = set()
    for e in set([(point(u), point(v)) for u, v in edges]):
        nodes.update(e)
    return graph.node_ids(set(nodes))


def _edges(adj: Dict[int, Dict[int, float]]) -> List[Tuple[float, int, int]]:
    """``(weight, u, v)`` for each undirected edge of an insertion-ordered
    adjacency: nodes in order, each node's unvisited neighbours in order."""
    seen: Set[int] = set()
    out = []
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if v not in seen:
                out.append((w, u, v))
        seen.add(u)
    return out


def _kruskal(edges: List[Tuple[float, int, int]]) -> List[Edge]:
    """Kruskal's MST: a stable sort by weight, then a union-find filter
    that keeps each edge joining two trees."""
    parent: Dict[int, int] = {}

    def find(n: int) -> int:
        while n in parent:
            n = parent[n]
        return n

    tree = []
    for _, u, v in sorted(edges, key=itemgetter(0)):
        ru, rv = find(u), find(v)
        if ru != rv:
            tree.append((u, v))
            parent[ru] = rv
    return tree


def _add_edge(adj: Dict[int, Dict[int, float]], u: int, v: int, w: float) -> None:
    """Add or reweight an undirected edge.  New endpoints and new
    neighbours go last in insertion order; an existing edge keeps its
    place."""
    adj.setdefault(u, {})
    adj.setdefault(v, {})
    adj[u][v] = adj[v][u] = w


def _multi_source_dijkstra(
    adj: List[List[Tuple[int, float]]], sources: List[int]
) -> Tuple[List[float], List[int]]:
    """Distance to, and id of, every node's nearest source.

    A node takes the nearest source of the predecessor that last
    strictly improved it.  Heap ties break on push order, and duplicate
    sources are pushed twice.  Unreached nodes keep ``inf`` / ``-1``.
    """
    dist = [float("inf")] * len(adj)
    origin = [-1] * len(adj)
    done = bytearray(len(adj))
    c = count()
    fringe: List[Tuple[float, int, int]] = []
    for s in sources:
        dist[s] = 0
        origin[s] = s
        heappush(fringe, (0, next(c), s))
    while fringe:
        d, _, v = heappop(fringe)
        if done[v]:
            continue
        done[v] = 1
        src = origin[v]
        for u, w in adj[v]:
            du = d + w
            if du < dist[u]:
                dist[u] = du
                origin[u] = src
                heappush(fringe, (du, next(c), u))
    return dist, origin


def _bidirectional_dijkstra(
    adj: List[List[Tuple[int, float]]], source: int, target: int
) -> List[int]:
    """A shortest path by bidirectional Dijkstra: one shared heap
    counter, directions alternating from the source side, and the first
    strictly shorter meeting node wins."""
    dists: List[Dict[int, float]] = [{}, {}]
    preds: List[Dict[int, int]] = [{source: -1}, {target: -1}]
    seen: List[Dict[int, float]] = [{source: 0}, {target: 0}]
    fringe: List[List[Tuple[float, int, int]]] = [[], []]
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finaldist = None
    meet = -1
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        d, _, v = heappop(fringe[direction])
        done, here, there = dists[direction], seen[direction], seen[1 - direction]
        if v in done:
            continue
        done[v] = d
        if v in dists[1 - direction]:
            path = []
            n = meet
            while n != -1:
                path.append(n)
                n = preds[0][n]
            path.reverse()
            n = preds[1][meet]
            while n != -1:
                path.append(n)
                n = preds[1][n]
            return path
        pred = preds[direction]
        for u, w in adj[v]:
            if u in done:
                continue
            du = d + w
            if u not in here or du < here[u]:
                here[u] = du
                heappush(fringe[direction], (du, next(c), u))
                pred[u] = v
                if u in there:
                    total = du + there[u]
                    if finaldist is None or finaldist > total:
                        finaldist, meet = total, u
    raise RuntimeError("no path between terminals")


def _prune_nonterminal_leaves(adj: Dict[int, Dict[int, None]], terminals: Set[int]) -> None:
    """Strip non-terminal leaves until none is left (in place)."""
    leaves = {n for n, nbrs in adj.items() if len(nbrs) == 1} - terminals
    while leaves:
        candidates = set().union(*(adj[n] for n in leaves)) - (leaves | terminals)
        for n in leaves:
            for u in adj.pop(n):
                del adj[u][n]
        leaves = {n for n in candidates if len(adj[n]) == 1} - terminals


def steiner_tree_edges(graph: EscapeGraph, terminals: List[int]) -> List[Edge]:
    """Mehlhorn's Steiner tree over the terminals' component: the
    reference's edge list, order and orientation included.

    ``terminals`` are node ids, repeats allowed.  Raises ``RuntimeError``
    when a terminal is outside the first terminal's component.
    """
    adj = graph.adj
    order, reached = _component(graph, terminals[0])
    if not all(reached[t] for t in terminals):
        raise RuntimeError("terminals are disconnected by obstacles")
    dist, origin = _multi_source_dijkstra(adj, terminals)

    # G1: terminal pairs whose regions touch, weighted by the shortest
    # path through the touching edge.  A same-region edge still inserts
    # its terminal into G1 first (the reference adds a self-loop), which
    # fixes G1's node order.
    g1: Dict[int, Dict[int, float]] = {}
    visited = bytearray(len(adj))
    for u in order:
        su, du = origin[u], dist[u]
        for v, w in adj[u]:
            if visited[v]:
                continue
            sv = origin[v]
            if su == sv:
                g1.setdefault(su, {})
                continue
            d = du + w + dist[v]
            if sv in g1.get(su, ()):
                d = min(d, g1[su][sv])
            _add_edge(g1, su, sv, d)
        visited[u] = 1

    # G3: the union of the MST pairs' shortest paths.
    g3: Dict[int, Dict[int, float]] = {}
    for s, t in _kruskal(_edges(g1)):
        path = _bidirectional_dijkstra(adj, s, t)
        for u, v in zip(path, path[1:]):
            w = next(w for n, w in adj[u] if n == v)
            _add_edge(g3, u, v, w)
    mst = _kruskal(_edges(g3))

    # G4 = G.edge_subgraph(mst).copy(): nodes in the view's order, each
    # node's tree neighbours in grid adjacency order.
    tree_nbrs: Dict[int, Set[int]] = {}
    for u, v in mst:
        tree_nbrs.setdefault(u, set()).add(v)
        tree_nbrs.setdefault(v, set()).add(u)
    g4: Dict[int, Dict[int, None]] = {n: {} for n in _edge_subgraph_order(graph, mst, order)}
    for u in g4:
        for v, _ in adj[u]:
            if v in tree_nbrs[u]:
                g4[u].setdefault(v)
                g4[v].setdefault(u)
    _prune_nonterminal_leaves(g4, set(terminals))
    g4_edges = [(u, v) for _, u, v in _edges(g4)]

    # The result is G.edge_subgraph(G4.edges()); iterate its edges.
    seen: Set[int] = set()
    edges = []
    for u in _edge_subgraph_order(graph, g4_edges, order):
        nbrs = g4[u]
        edges.extend((u, v) for v, _ in adj[u] if v in nbrs and v not in seen)
        seen.add(u)
    return edges


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
    with phase("routing.steiner"):
        # Terminals are grid nodes: their coordinates seed the grid, and
        # none lies strictly inside an obstacle.
        ids = graph.node_ids([(t.x, t.y) for t in terminals])
        try:
            edges = steiner_tree_edges(graph, ids)
        except RuntimeError as err:
            raise RuntimeError(f"net {net}: {err}") from None
    point = graph.point
    segments = [Segment(*point(u), *point(v)) for u, v in edges]
    return SteinerTree(net=net, terminals=terminals, segments=merge_collinear(segments))
