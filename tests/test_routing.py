"""Tests for OARSMT, global routing, channels, detailed routing."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.baselines import SAConfig, simulated_annealing
from repro.baselines.common import PlacedRect
from repro.circuits import available_circuits, get_circuit
from repro.routing import (
    Obstacle,
    Point,
    Segment,
    SteinerTree,
    block_obstacles,
    build_escape_graph,
    congestion,
    define_channels,
    detailed_route,
    merge_collinear,
    oarsmt,
    pin_point,
    route_circuit,
)
from repro.routing.oarsmt import steiner_tree_edges

from oracles import (
    blocks_segment,
    escape_graph_reference,
    oarsmt_calls,
    oarsmt_reference,
)


class TestGeometry:
    def test_segment_must_be_rectilinear(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 1, 1)

    def test_segment_length(self):
        assert Segment(0, 0, 3, 0).length == 3
        assert Segment(1, 1, 1, 5).length == 4

    def test_canonical_orders_endpoints(self):
        s = Segment(5, 0, 2, 0).canonical()
        assert (s.x1, s.x2) == (2, 5)

    def test_obstacle_contains_strict_excludes_boundary(self):
        ob = Obstacle(0, 0, 2, 2)
        assert ob.contains_strict(1, 1)
        assert not ob.contains_strict(0, 1)
        assert not ob.contains_strict(2, 2)

    def test_obstacle_blocks_crossing_segment(self):
        ob = Obstacle(1, 1, 3, 3)
        assert blocks_segment(ob, Segment(0, 2, 4, 2))
        assert not blocks_segment(ob, Segment(0, 0, 4, 0))  # below
        assert not blocks_segment(ob, Segment(0, 1, 4, 1))  # on boundary

    def test_merge_collinear(self):
        segs = [Segment(0, 0, 1, 0), Segment(1, 0, 3, 0), Segment(0, 1, 1, 1)]
        merged = merge_collinear(segs)
        lengths = sorted(s.length for s in merged)
        assert lengths == [1, 3]

    def test_merge_drops_zero_length(self):
        assert merge_collinear([Segment(1, 1, 1, 1)]) == []


class TestOARSMT:
    def test_two_terminal_route(self):
        tree = oarsmt("n", [Point(0, 0), Point(4, 3)])
        assert tree.length == pytest.approx(7.0)
        assert tree.covers_terminals()

    def test_coincident_terminals_need_no_wire(self):
        tree = oarsmt("n", [Point(1, 1), Point(1, 1)])
        assert tree.segments == []
        assert tree.covers_terminals()

    def test_needs_two_terminals(self):
        with pytest.raises(ValueError):
            oarsmt("n", [Point(0, 0)])

    def test_terminal_inside_obstacle_rejected(self):
        with pytest.raises(ValueError):
            oarsmt("n", [Point(1, 1), Point(5, 5)], [Obstacle(0, 0, 2, 2)])

    def test_route_detours_around_obstacle(self):
        """Obstacle on the straight path forces a longer route."""
        terminals = [Point(0, 1), Point(6, 1)]
        blocked = oarsmt("n", terminals, [Obstacle(2, 0, 4, 2)])
        free = oarsmt("n", terminals, [])
        assert blocked.length > free.length
        assert blocked.covers_terminals()
        # No segment may cross the obstacle interior.
        ob = Obstacle(2, 0, 4, 2)
        assert not any(blocks_segment(ob, s) for s in blocked.segments)

    def test_multi_terminal_steiner_beats_star(self):
        """Steiner tree should not exceed the star from the first terminal."""
        terminals = [Point(0, 0), Point(10, 0), Point(5, 5), Point(5, -5)]
        tree = oarsmt("n", terminals)
        star = sum(terminals[0].manhattan(t) for t in terminals[1:])
        assert tree.length <= star + 1e-9

    def test_enclosed_terminal_raises(self):
        """A terminal sealed inside a ring of overlapping walls has no
        route (boundary routing cannot cross wall interiors)."""
        terminals = [Point(5, 5), Point(20, 20)]
        ring = [
            Obstacle(2, 2, 4, 8),   # left
            Obstacle(6, 2, 8, 8),   # right
            Obstacle(2, 2, 8, 4),   # bottom
            Obstacle(2, 6, 8, 8),   # top
        ]
        with pytest.raises(RuntimeError):
            oarsmt("n", terminals, ring)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=2, max_size=5, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_tree_length_lower_bounded_by_bbox(self, coords):
        """HPWL of the terminals lower-bounds any rectilinear tree."""
        terminals = [Point(float(x), float(y)) for x, y in coords]
        tree = oarsmt("n", terminals)
        xs = [t.x for t in terminals]
        ys = [t.y for t in terminals]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        assert tree.length >= hpwl - 1e-9


class TestEscapeGraph:
    def test_nodes_exclude_obstacle_interior(self):
        # Terminals at x=2 and y=2 put (2, 2) on the Hanan grid.
        ob = Obstacle(1, 1, 3, 3)
        graph = build_escape_graph(
            [Point(0, 0), Point(4, 4), Point(2, 0), Point(0, 2)], [ob]
        )
        points = [graph.point(n) for n in graph.nodes]
        assert (2, 2) not in points
        assert (1, 2) in points  # boundary nodes stay routable
        edges = _edge_list(graph)
        assert edges
        for u, v, _ in edges:
            assert not blocks_segment(ob, Segment(u[0], u[1], v[0], v[1]))

    def test_edges_have_manhattan_weights(self):
        graph = build_escape_graph([Point(0, 0), Point(3, 0)], [])
        a, b = graph.node_ids([(0.0, 0.0), (3.0, 0.0)])
        assert graph.adj[a] == [(b, 3.0)]
        assert graph.adj[b] == [(a, 3.0)]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, data):
        """Same nodes, edges, weights and adjacency order as the per-edge
        reference, so the Steiner tree tie-breaks as networkx's does."""
        obstacles, points = _draw_grid(data)
        # Terminals on the free grid, on obstacle boundaries, or repeated.
        terminals = data.draw(st.lists(points, min_size=1, max_size=6))
        terminals += data.draw(st.lists(st.sampled_from(terminals), max_size=2))

        _assert_same_graph(terminals, obstacles)

    def test_matches_reference_on_library_nets(self):
        """Every net of a routed library circuit, against the router's
        block obstacles (placed blocks shrunk by the margin)."""
        circuit, rects = _placed_ota()
        route = route_circuit(circuit, rects)
        obstacles = block_obstacles(rects)
        for tree in route.trees.values():
            _assert_same_graph(tree.terminals, obstacles)


class TestSteinerReplay:
    """The grid Steiner tree replays networkx's Mehlhorn tree exactly."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_on_random_grids(self, data):
        obstacles, points = _draw_grid(data)
        if data.draw(st.booleans()):
            # Seal some terminals in a hole, sometimes all of them.
            x0, y0 = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
            w, h = data.draw(st.integers(3, 5)), data.draw(st.integers(3, 5))
            obstacles += _ring(float(x0), float(y0), w, h)
            inside = st.builds(
                Point,
                st.sampled_from([x0 + 1 + k / 2 for k in range(2 * w - 3)]),
                st.sampled_from([y0 + 1 + k / 2 for k in range(2 * h - 3)]),
            )
            points = st.one_of(inside, points) if data.draw(st.booleans()) else inside
        terminals = data.draw(st.lists(points, min_size=1, max_size=6))
        terminals = [t for t in terminals
                     if not any(ob.contains_strict(t.x, t.y) for ob in obstacles)]
        if not terminals:
            return
        # Coincident terminals.
        terminals += data.draw(st.lists(st.sampled_from(terminals), max_size=2))

        reference = escape_graph_reference(terminals, obstacles)
        if _assert_same_tree(terminals, obstacles, reference):
            event("component under half the graph")

    def test_sealed_ring_takes_the_set_order_branch(self):
        """Terminals sealed in a hole form a component under half the
        graph, which networkx iterates in the order of a set rebuilt from
        its BFS set; on this case a copy of the BFS set (``set(seen)``)
        orders it differently and changes the tree."""
        terminals = [Point(13.0, 7.0), Point(12.0, 8.0), Point(13.0, 10.0)]
        obstacles = _ring(9.0, 6.0, 8, 5) + [
            Obstacle(7.2, 19.1, 8.6, 21.8),
            Obstacle(17.0, 12.4, 18.6, 14.7),
            Obstacle(13.9, 8.4, 14.4, 8.9),  # inside the hole
        ]
        reference = escape_graph_reference(terminals, obstacles)
        assert _assert_same_tree(terminals, obstacles, reference)

    def test_matches_networkx_on_library_nets(self):
        """Every OARSMT call ``route_circuit`` makes (fallback attempts
        included) on every library circuit under the default floorplanner."""
        calls = [call for name in available_circuits() for call in oarsmt_calls(name)]
        assert len(calls) > 50
        for terminals, obstacles in calls:
            reference = escape_graph_reference(terminals, obstacles)
            _assert_same_tree(terminals, obstacles, reference)


def _draw_grid(data):
    """Up to five random obstacles on a 0..8 grid, and a strategy for
    points on that grid or on the obstacles' boundaries."""
    # ±1e-6 is the router's block margin; ±1e-9 lands exactly on the
    # interior tolerance of an obstacle at the unshifted coordinate.
    offset = st.sampled_from([0.0, 0.0, 1e-6, -1e-6, 1e-9, -1e-9])
    coord = st.builds(lambda c, d: c + d, st.integers(0, 8).map(float), offset)
    obstacles = []
    for x1, x2, y1, y2 in data.draw(st.lists(
            st.tuples(coord, coord, coord, coord), max_size=5)):
        if x1 != x2 and y1 != y2:
            obstacles.append(Obstacle(min(x1, x2), min(y1, y2),
                                      max(x1, x2), max(y1, y2)))
    xs = [float(c) for c in range(9)] + [v for ob in obstacles for v in (ob.x1, ob.x2)]
    ys = [float(c) for c in range(9)] + [v for ob in obstacles for v in (ob.y1, ob.y2)]
    return obstacles, st.builds(Point, st.sampled_from(xs), st.sampled_from(ys))


def _edge_list(graph):
    """``(u, v, weight)`` in the order ``nx.Graph.edges`` yields them over
    the same nodes and adjacency."""
    seen = set()
    edges = []
    for u in graph.nodes:
        for v, w in graph.adj[u]:
            if v not in seen:
                edges.append((graph.point(u), graph.point(v), w))
        seen.add(u)
    return edges


def _assert_same_graph(terminals, obstacles):
    graph = build_escape_graph(terminals, obstacles)
    reference = escape_graph_reference(terminals, obstacles)
    assert [graph.point(n) for n in graph.nodes] == list(reference.nodes)
    assert _edge_list(graph) == [
        (u, v, d["weight"]) for u, v, d in reference.edges(data=True)
    ]
    for n in graph.nodes:
        assert [(graph.point(v), w) for v, w in graph.adj[n]] == [
            (v, d["weight"]) for v, d in reference.adj[graph.point(n)].items()
        ]
    blocked = set(range(len(graph.adj))) - set(graph.nodes)
    assert not any(graph.adj[n] for n in blocked)


def _assert_same_tree(terminals, obstacles, reference_graph):
    """``steiner_tree_edges`` and ``oarsmt`` against networkx's Steiner tree
    on ``reference_graph``: the same edge list, order included, and the
    same merged segments.  Returns whether networkx's component view
    iterated its node set (the component is under half the graph)."""
    graph = build_escape_graph(terminals, obstacles)
    ids = graph.node_ids([(t.x, t.y) for t in terminals])
    try:
        expected = oarsmt_reference(reference_graph, terminals)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            steiner_tree_edges(graph, ids)
        return False
    edges = [(graph.point(u), graph.point(v)) for u, v in steiner_tree_edges(graph, ids)]
    assert edges == expected
    if len(terminals) >= 2:
        tree = oarsmt("n", terminals, obstacles)
        assert tree.segments == merge_collinear(
            [Segment(u[0], u[1], v[0], v[1]) for u, v in expected]
        )
    component = nx.node_connected_component(reference_graph, (terminals[0].x, terminals[0].y))
    return 2 * len(component) < len(reference_graph)


def _ring(x0, y0, width, height):
    """Four overlapping unit-thick walls around a hole: boundary routing
    cannot leave the hole, whose nodes form their own component."""
    x1, y1 = x0 + width, y0 + height
    return [
        Obstacle(x0, y0, x0 + 1, y1),   # left
        Obstacle(x1 - 1, y0, x1, y1),   # right
        Obstacle(x0, y0, x1, y0 + 1),   # bottom
        Obstacle(x0, y1 - 1, x1, y1),   # top
    ]


def _placed_ota(seed=0):
    ckt = get_circuit("ota1")
    result = simulated_annealing(ckt, SAConfig(
        moves_per_temperature=10, cooling=0.8, seed=seed))
    return ckt, result.rects


class TestGlobalRouter:
    def test_routes_all_nets(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        assert route.num_nets == len(ckt.nets)
        assert route.total_wirelength > 0
        for tree in route.trees.values():
            assert tree.covers_terminals()

    def test_conduits_carry_preferred_layers(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        for conduit in route.conduits:
            if conduit.segment.is_horizontal and conduit.segment.length > 0:
                assert conduit.layer == "metal3"
            elif conduit.segment.is_vertical and conduit.segment.length > 0:
                assert conduit.layer == "metal2"

    def test_pin_point_on_boundary(self):
        rect = PlacedRect(0, 0, 0.0, 0.0, 4.0, 2.0)
        pin = pin_point(rect, toward=(10.0, 1.0))
        assert pin.x == pytest.approx(4.0)  # right edge
        assert pin.y == pytest.approx(1.0)

    def test_incomplete_placement_rejected(self):
        ckt, rects = _placed_ota()
        with pytest.raises(ValueError):
            route_circuit(ckt, rects[:-1])

    def test_routing_without_obstacles(self):
        """Both modes must route everything; lengths stay comparable (the
        Steiner approximation is not exactly monotone in obstacle removal,
        so only a loose factor is a valid invariant)."""
        ckt, rects = _placed_ota()
        free = route_circuit(ckt, rects, avoid_blocks=False)
        avoided = route_circuit(ckt, rects, avoid_blocks=True)
        assert free.num_nets == avoided.num_nets == len(ckt.nets)
        assert free.total_wirelength <= 2.0 * avoided.total_wirelength


class TestChannelsAndCongestion:
    def test_congestion_map_shapes(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        cmap = congestion(rects, route, resolution=32)
        assert cmap.demand.shape == cmap.free.shape
        assert cmap.max_demand >= 1

    def test_block_cells_marked_not_free(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        cmap = congestion(rects, route, resolution=32)
        assert (~cmap.free).any()

    def test_channels_follow_conduits(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        channels = define_channels(rects, route)
        nonzero = [c for c in route.conduits if c.segment.length > 0]
        assert len(channels) == len(nonzero)
        for ch in channels:
            assert ch.width > 0
            assert ch.capacity >= 0

    def test_empty_placement_rejected(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        with pytest.raises(ValueError):
            congestion([], route)


class TestDetailedRoute:
    def test_wires_generated_for_all_conduits(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        detail = detailed_route(route)
        assert len(detail.wires) == len(route.conduits)
        assert detail.total_wire_length > 0

    def test_different_nets_on_same_track_get_offsets(self):
        from repro.routing.global_router import Conduit, GlobalRoute

        route = GlobalRoute(circuit_name="t")
        route.conduits = [
            Conduit("a", Segment(0, 5, 10, 5), "metal3"),
            Conduit("b", Segment(2, 5, 8, 5), "metal3"),
        ]
        detail = detailed_route(route)
        ya = [w for w in detail.wires if w.net == "a"][0]
        yb = [w for w in detail.wires if w.net == "b"][0]
        assert ya.y1 != yb.y1  # spread to different tracks

    def test_vias_inserted_at_layer_changes(self):
        from repro.routing.global_router import Conduit, GlobalRoute

        route = GlobalRoute(circuit_name="t")
        route.conduits = [
            Conduit("n", Segment(0, 0, 5, 0), "metal3"),
            Conduit("n", Segment(5, 0, 5, 4), "metal2"),
        ]
        detail = detailed_route(route)
        assert len(detail.vias) == 1
        via = detail.vias[0]
        assert via.lower_layer == "metal2"
        assert via.upper_layer == "metal3"

    def test_wires_of_filters_by_net(self):
        ckt, rects = _placed_ota()
        route = route_circuit(ckt, rects)
        detail = detailed_route(route)
        net = ckt.nets[0].name
        assert all(w.net == net for w in detail.wires_of(net))
