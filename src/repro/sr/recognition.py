"""Rule-based structure recognition over a device list.

Paper Sec. IV-B takes functional blocks from Infineon's external SR tool
[21]; it does not train one.  `recognize_rules` stands in for that tool:
deterministic analog pattern matching (diode connections, shared
gates/sources) that returns device groups, each with a
:class:`~repro.circuits.blocks.StructureType`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..circuits.blocks import StructureType
from ..circuits.devices import Device, DeviceType
from ..circuits.netlist import SUPPLY_NETS


@dataclass
class RecognizedBlock:
    """One recognized functional group."""

    devices: List[Device]
    structure: StructureType

    @property
    def device_names(self) -> List[str]:
        return [d.name for d in self.devices]


def _is_mos(d: Device) -> bool:
    return d.dtype in (DeviceType.NMOS, DeviceType.PMOS)


def recognize_rules(devices: Sequence[Device]) -> List[RecognizedBlock]:
    """Deterministic analog pattern matching.

    Priority order (each device joins at most one group):

    1. differential pair — same-type MOS pair sharing the source net,
       distinct gates;
    2. current mirror — same-type MOS sharing the gate net with at least
       one diode-connected member;
    3. inverter pair — N/P MOS sharing gate and drain;
    4. leftovers by type: resistors, capacitors, single devices.
    """
    remaining: List[Device] = list(devices)
    blocks: List[RecognizedBlock] = []

    def take(group: List[Device], structure: StructureType) -> None:
        for d in group:
            remaining.remove(d)
        blocks.append(RecognizedBlock(group, structure))

    # 1. Differential pairs.
    changed = True
    while changed:
        changed = False
        mos = [d for d in remaining if _is_mos(d)]
        for i, a in enumerate(mos):
            for b in mos[i + 1:]:
                if (a.dtype is b.dtype
                        and a.terminals.get("S") == b.terminals.get("S")
                        and a.terminals.get("S") not in SUPPLY_NETS
                        and a.terminals.get("G") != b.terminals.get("G")
                        and a.terminals.get("D") != b.terminals.get("D")):
                    take([a, b], StructureType.DIFFERENTIAL_PAIR)
                    changed = True
                    break
            if changed:
                break

    # 2. Current mirrors (gate groups with a diode-connected device).
    changed = True
    while changed:
        changed = False
        mos = [d for d in remaining if _is_mos(d)]
        by_gate: Dict[Tuple[str, DeviceType], List[Device]] = {}
        for d in mos:
            gate = d.terminals.get("G")
            if gate and gate not in SUPPLY_NETS:
                by_gate.setdefault((gate, d.dtype), []).append(d)
        for (gate, _), group in by_gate.items():
            if len(group) >= 2 and any(x.terminals.get("D") == gate for x in group):
                take(group, StructureType.SIMPLE_CURRENT_MIRROR)
                changed = True
                break

    # 3. Inverters.
    changed = True
    while changed:
        changed = False
        nmos_list = [d for d in remaining if d.dtype is DeviceType.NMOS]
        pmos_list = [d for d in remaining if d.dtype is DeviceType.PMOS]
        for a in nmos_list:
            for b in pmos_list:
                if (a.terminals.get("G") == b.terminals.get("G")
                        and a.terminals.get("D") == b.terminals.get("D")):
                    take([a, b], StructureType.INVERTER)
                    changed = True
                    break
            if changed:
                break

    # 4. Leftovers.
    for d in list(remaining):
        if d.dtype is DeviceType.RESISTOR:
            take([d], StructureType.BIAS_RESISTOR)
        elif d.dtype is DeviceType.CAPACITOR:
            take([d], StructureType.CAPACITOR_BANK)
        else:
            take([d], StructureType.SINGLE_DEVICE)
    return blocks
