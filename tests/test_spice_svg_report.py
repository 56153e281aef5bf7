"""Tests for the SPICE I/O and SVG export modules."""

import pytest

from repro.baselines import SAConfig, simulated_annealing
from repro.circuits import DeviceType, get_circuit
from repro.circuits.spice import parse_spice, write_spice
from repro.layout import generate_layout
from repro.layout.svg import floorplan_svg, layout_svg
from repro.routing import detailed_route, route_circuit
from repro.sr import recognize_rules


class TestSpiceParse:
    def test_parse_mos_card(self):
        devices = parse_spice("M1 out in vss vss nch W=10u L=0.5u M=2")
        d = devices[0]
        assert d.dtype is DeviceType.NMOS
        assert d.width == pytest.approx(10.0)
        assert d.length == pytest.approx(0.5)
        assert d.stripes == 2
        assert d.terminals == {"D": "out", "G": "in", "S": "vss", "B": "vss"}

    def test_parse_pmos_model(self):
        devices = parse_spice("M2 a b vdd vdd pch W=4u L=1u")
        assert devices[0].dtype is DeviceType.PMOS

    @pytest.mark.parametrize("model, dtype", [
        ("nch_lp", DeviceType.NMOS),
        ("nmos_rf_hp", DeviceType.NMOS),
        ("pch_lvt", DeviceType.PMOS),
    ])
    def test_mos_type_from_model_prefix(self, model, dtype):
        devices = parse_spice(f"M1 d g s b {model} W=1u L=0.1u")
        assert devices[0].dtype is dtype

    def test_parse_resistor_and_capacitor(self):
        text = """
        R1 a vss 10k W=1u L=40u M=4
        C1 out vss 900f
        """
        devices = parse_spice(text)
        assert devices[0].dtype is DeviceType.RESISTOR
        assert devices[0].stripes == 4
        assert devices[1].dtype is DeviceType.CAPACITOR
        assert devices[1].width == pytest.approx(900.0)  # fF

    def test_comments_and_subckt_ignored(self):
        text = """* comment
        .subckt ota in out vss vdd
        M1 out in vss vss nch W=2u L=0.5u
        .ends
        """
        assert len(parse_spice(text)) == 1

    def test_unsupported_card_raises(self):
        with pytest.raises(ValueError):
            parse_spice("X1 a b mysub")

    def test_missing_wl_raises(self):
        with pytest.raises(ValueError):
            parse_spice("M1 d g s b nch")

    def test_value_units(self):
        devices = parse_spice("C1 a b 1.5p")
        assert devices[0].width == pytest.approx(1500.0)  # 1.5 pF in fF


class TestSpiceRoundtrip:
    @pytest.mark.parametrize("name", ["ota_small", "ota2", "bias1"])
    def test_roundtrip_preserves_devices(self, name):
        circuit = get_circuit(name)
        original = [d for b in circuit.blocks for d in b.devices]
        parsed = parse_spice(write_spice(circuit))
        assert len(parsed) == len(original)
        by_name = {d.name: d for d in parsed}
        for d in original:
            p = by_name[d.name]
            assert p.dtype is d.dtype
            assert p.width == pytest.approx(d.width, rel=1e-6)
            assert p.stripes == d.stripes
            assert p.terminals == d.terminals

    def test_roundtrip_supports_structure_recognition(self):
        """Parsed netlists feed SR exactly like in-memory circuits."""
        circuit = get_circuit("ota_small")
        devices = parse_spice(write_spice(circuit))
        blocks = recognize_rules(devices)
        structures = {b.structure.name for b in blocks}
        assert "DIFFERENTIAL_PAIR" in structures

    def test_write_contains_ports_and_blocks(self):
        text = write_spice(get_circuit("ota_small"))
        assert ".subckt" in text and ".ends" in text
        assert "* block DP" in text


@pytest.fixture(scope="module")
def placed():
    ckt = get_circuit("ota_small")
    result = simulated_annealing(ckt, SAConfig(moves_per_temperature=8,
                                               cooling=0.8, seed=0))
    return ckt, result.rects


class TestSVG:
    def test_floorplan_svg_structure(self, placed):
        ckt, rects = placed
        svg = floorplan_svg(ckt, rects)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == len(rects)
        assert "DP" in svg  # block label

    def test_floorplan_svg_with_routing(self, placed):
        ckt, rects = placed
        route = route_circuit(ckt, rects)
        svg = floorplan_svg(ckt, rects, route=route)
        assert "<line" in svg

    def test_layout_svg(self, placed):
        ckt, rects = placed
        detail = detailed_route(route_circuit(ckt, rects))
        layout = generate_layout(ckt, rects, routing=detail)
        svg = layout_svg(layout)
        assert svg.count("<rect") >= len(layout.shapes) - 1
        assert "</svg>" in svg

    def test_empty_placement_rejected(self, placed):
        ckt, _ = placed
        with pytest.raises(ValueError):
            floorplan_svg(ckt, [])
