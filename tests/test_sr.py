"""Tests for rule-based structure recognition."""

from repro.circuits import StructureType, get_circuit, nmos, pmos, resistor
from repro.sr import recognize_rules


class TestRuleRecognizer:
    def test_detects_differential_pair(self):
        devices = [
            nmos("N1", 10, 0.5, D="A", G="INP", S="TAIL"),
            nmos("N2", 10, 0.5, D="B", G="INN", S="TAIL"),
        ]
        blocks = recognize_rules(devices)
        assert len(blocks) == 1
        assert blocks[0].structure is StructureType.DIFFERENTIAL_PAIR

    def test_detects_current_mirror(self):
        devices = [
            pmos("P1", 10, 1.0, D="BIAS", G="BIAS", S="VDD"),
            pmos("P2", 10, 1.0, D="OUT", G="BIAS", S="VDD"),
        ]
        blocks = recognize_rules(devices)
        assert blocks[0].structure is StructureType.SIMPLE_CURRENT_MIRROR

    def test_detects_inverter(self):
        devices = [
            nmos("N1", 4, 0.35, D="OUT", G="IN", S="VSS"),
            pmos("P1", 8, 0.35, D="OUT", G="IN", S="VDD"),
        ]
        blocks = recognize_rules(devices)
        assert blocks[0].structure is StructureType.INVERTER

    def test_leftover_types(self):
        devices = [
            resistor("R1", 1, 20, P="A", N="VSS"),
            nmos("N1", 4, 0.5, D="B", G="C", S="VSS"),
        ]
        blocks = recognize_rules(devices)
        structures = {b.structure for b in blocks}
        assert StructureType.BIAS_RESISTOR in structures
        assert StructureType.SINGLE_DEVICE in structures

    def test_each_device_in_one_block(self):
        ckt = get_circuit("ota2")
        devices = [d for b in ckt.blocks for d in b.devices]
        blocks = recognize_rules(devices)
        names = [n for b in blocks for n in b.device_names]
        assert sorted(names) == sorted(d.name for d in devices)

    def test_recovers_ota_mirror_and_pair(self):
        """On the Fig. 2-style OTA the rules must find the DP and the CM."""
        ckt = get_circuit("ota_small")
        devices = [d for b in ckt.blocks for d in b.devices]
        blocks = recognize_rules(devices)
        structures = [b.structure for b in blocks]
        assert StructureType.DIFFERENTIAL_PAIR in structures
        assert StructureType.SIMPLE_CURRENT_MIRROR in structures
