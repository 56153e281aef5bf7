"""Tests for layout geometry, generation, DRC and LVS."""

import numpy as np
import pytest

from repro.baselines import SAConfig, simulated_annealing
from repro.circuits import available_circuits, get_circuit
from repro.layout import (
    Layer,
    Layout,
    Shape,
    check_drc,
    check_lvs,
    extract_components,
    generate_layout,
)
from repro.pipeline import run_pipeline
from repro.routing import detailed_route, route_circuit

from oracles import extract_components_reference


@pytest.fixture(scope="module")
def placed_and_routed():
    ckt = get_circuit("ota_small")
    result = simulated_annealing(ckt, SAConfig(moves_per_temperature=10, cooling=0.8, seed=0))
    route = route_circuit(ckt, result.rects)
    detail = detailed_route(route)
    return ckt, result.rects, detail


class TestGeometry:
    def test_shape_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Shape(Layer.METAL1, 0, 0, 0, 1)

    def test_overlap(self):
        a = Shape(Layer.METAL1, 0, 0, 2, 2)
        b = Shape(Layer.METAL1, 1, 1, 3, 3)
        c = Shape(Layer.METAL1, 5, 5, 6, 6)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_spacing(self):
        a = Shape(Layer.METAL1, 0, 0, 1, 1)
        b = Shape(Layer.METAL1, 3, 0, 4, 1)
        assert a.spacing_to(b) == pytest.approx(2.0)
        diag = Shape(Layer.METAL1, 2, 2, 3, 3)
        assert a.spacing_to(diag) == pytest.approx(np.sqrt(2))

    def test_layout_bbox_ignores_boundary_layer(self):
        layout = Layout("t")
        layout.add(Shape(Layer.BOUNDARY, -100, -100, 100, 100))
        layout.add(Shape(Layer.METAL1, 0, 0, 1, 1))
        assert layout.bounding_box() == (0, 0, 1, 1)

    def test_empty_layout_bbox_raises(self):
        with pytest.raises(ValueError):
            Layout("t").bounding_box()


class TestGenerator:
    def test_generates_shapes_for_all_blocks(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects, routing=detail)
        boundaries = layout.on_layer(Layer.BOUNDARY)
        assert len(boundaries) == ckt.num_blocks
        assert len(layout.on_layer(Layer.ACTIVE)) > 0
        assert len(layout.on_layer(Layer.METAL1)) > 0

    def test_pmos_blocks_get_nwell(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects)
        nwells = layout.on_layer(Layer.NWELL)
        pmos_blocks = [b.name for b in ckt.blocks
                       if any(d.dtype.value == "pmos" for d in b.devices)]
        assert {s.owner for s in nwells} == set(pmos_blocks)

    def test_routing_wires_present(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects, routing=detail)
        # Routing wires carry no owner; pin-stack pads carry their block.
        m2 = [s for s in layout.on_layer(Layer.METAL2) if s.owner is None]
        m3 = [s for s in layout.on_layer(Layer.METAL3) if s.owner is None]
        assert len(m2) + len(m3) == len(detail.wires)

    def test_pins_carry_net_labels(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects)
        pins = [s for s in layout.on_layer(Layer.METAL1) if s.net]
        pin_nets = {s.net for s in pins}
        for net in ckt.nets:
            assert net.name in pin_nets

    def test_stripes_inside_block(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects)
        outlines = {s.owner: s for s in layout.on_layer(Layer.BOUNDARY)}
        for active in layout.on_layer(Layer.ACTIVE):
            block_name = active.owner.split(".")[0]
            outline = outlines[block_name]
            assert active.x1 >= outline.x1 - 1e-9
            assert active.y1 >= outline.y1 - 1e-9
            assert active.x2 <= outline.x2 + 1e-9
            assert active.y2 <= outline.y2 + 1e-9

    def test_wrong_rect_count_rejected(self, placed_and_routed):
        ckt, rects, _ = placed_and_routed
        with pytest.raises(ValueError):
            generate_layout(ckt, rects[:-1])

    def test_layout_area_positive(self, placed_and_routed):
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects, routing=detail)
        assert layout.area > 0
        assert layout.device_area() > 0


class TestDRC:
    def test_generated_layout_min_width_clean(self, placed_and_routed):
        """The generator is correct-by-construction for widths."""
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects, routing=detail)
        report = check_drc(layout)
        assert report.count("min_width") == 0, [
            str(v) for v in report.violations if v.rule == "min_width"
        ][:5]

    def test_detects_injected_width_violation(self):
        layout = Layout("bad")
        layout.add(Shape(Layer.METAL1, 0, 0, 0.05, 1.0, net="a"))
        report = check_drc(layout)
        assert report.count("min_width") == 1

    def test_detects_injected_spacing_violation(self):
        layout = Layout("bad")
        layout.add(Shape(Layer.METAL1, 0, 0, 1, 1, net="a"))
        layout.add(Shape(Layer.METAL1, 1.05, 0, 2, 1, net="b"))
        report = check_drc(layout)
        assert report.count("min_spacing") == 1

    def test_same_net_spacing_waived(self):
        layout = Layout("ok")
        layout.add(Shape(Layer.METAL1, 0, 0, 1, 1, net="a"))
        layout.add(Shape(Layer.METAL1, 1.01, 0, 2, 1, net="a"))
        assert check_drc(layout).clean

    def test_violation_str_renders(self):
        layout = Layout("bad")
        layout.add(Shape(Layer.METAL1, 0, 0, 0.05, 1.0, net="a"))
        report = check_drc(layout)
        assert "min_width" in str(report.violations[0])


class TestLVS:
    def test_connected_net_extracts_one_component(self):
        layout = Layout("t")
        layout.add(Shape(Layer.METAL1, 0, 0, 1, 1, net="a"))
        layout.add(Shape(Layer.VIA1, 0.5, 0.5, 0.9, 0.9, net="a"))
        layout.add(Shape(Layer.METAL2, 0.4, 0.4, 5, 1, net="a"))
        components = extract_components(layout)
        assert len(components) == 1

    def test_disjoint_layers_do_not_connect(self):
        layout = Layout("t")
        layout.add(Shape(Layer.METAL1, 0, 0, 1, 1, net="a"))
        layout.add(Shape(Layer.METAL3, 0, 0, 1, 1, net="a"))  # no via
        components = extract_components(layout)
        assert len(components) == 2

    def test_routed_layout_is_lvs_clean(self, placed_and_routed):
        """End-to-end: place -> route -> generate -> extract == netlist."""
        ckt, rects, detail = placed_and_routed
        layout = generate_layout(ckt, rects, routing=detail)
        report = check_lvs(ckt, layout)
        # Opens can occur if a pin pad misses its wire; the flow is built
        # so nets with routing land on pins. Require no shorts and at
        # most a small number of opens.
        assert not report.short_pairs
        assert len(report.open_nets) <= len(ckt.nets)

    def test_components_match_networkx_on_library_layouts(self):
        """Same components in the same order (by lowest shape index), so
        ``check_lvs`` reports shorts in the same order."""
        for name in available_circuits():
            layout = run_pipeline(get_circuit(name)).layout
            assert extract_components(layout) == extract_components_reference(layout)

    def test_unrouted_layout_has_opens(self, placed_and_routed):
        ckt, rects, _ = placed_and_routed
        layout = generate_layout(ckt, rects, routing=None)
        report = check_lvs(ckt, layout)
        assert len(report.open_nets) > 0
        assert not report.clean
