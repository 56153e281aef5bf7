"""SPICE-flavoured netlist reader / writer.

The paper's pipeline starts from "Circuit Schematic / Netlist" (Fig. 1).
This module gives the reproduction a real netlist interface: a small
SPICE dialect covering the devices the library uses —

* ``Mname drain gate source bulk model W=<um> L=<um> [M=<stripes>]``
* ``Rname p n <value> [W=<um>] [L=<um>] [M=<stripes>]``
* ``Cname p n <fF>f``
* ``.subckt / .ends`` wrappers and ``*`` comments are tolerated.

``parse_spice`` returns flat :class:`~repro.circuits.devices.Device`
lists ready for structure recognition; ``write_spice`` serializes any
circuit back, so library circuits round-trip.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .devices import Device, DeviceType, capacitor, nmos, pmos, resistor
from .netlist import Circuit

_UNIT_SCALE = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
    "k": 1e3, "meg": 1e6, "g": 1e9, "": 1.0,
}


def _parse_value(token: str) -> float:
    """Parse a SPICE number like ``10u``, ``0.5``, ``1.2k``, ``900f``."""
    match = re.fullmatch(r"([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(meg|[fpnumkg]?)",
                         token.strip().lower())
    if not match:
        raise ValueError(f"cannot parse SPICE value {token!r}")
    return float(match.group(1)) * _UNIT_SCALE[match.group(2)]


def _parse_params(tokens: Sequence[str]) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for token in tokens:
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        params[key.lower()] = _parse_value(value)
    return params


def parse_spice(text: str) -> List[Device]:
    """Parse a SPICE netlist into a flat device list.

    Geometry is converted to the library's conventions: MOS W/L in um,
    capacitance in fF.  Unknown cards raise ``ValueError`` so silent
    mis-parses cannot occur.
    """
    devices: List[Device] = []
    for raw_line in text.splitlines():
        line = raw_line.split("$")[0].strip()
        if not line or line.startswith("*"):
            continue
        lower = line.lower()
        if lower.startswith((".subckt", ".ends", ".end", ".global", ".param")):
            continue
        tokens = line.split()
        name = tokens[0]
        kind = name[0].upper()
        # Analog netlists often use bare instance names (N33, P18); infer
        # the card type from the model column when the prefix is ambiguous.
        if kind not in ("M", "R", "C"):
            lowered = [t.lower() for t in tokens]
            if any(t in ("nch", "pch", "nmos", "pmos") for t in lowered):
                kind = "M"
            elif any(t in ("rpoly", "res", "rhi") for t in lowered):
                kind = "R"
            elif len(tokens) >= 4 and re.fullmatch(r"[0-9.eE+-]+f", tokens[3]):
                kind = "C"
        if kind == "M":
            if len(tokens) < 6:
                raise ValueError(f"malformed MOS card: {line!r}")
            drain, gate, source, bulk, model = tokens[1:6]
            params = _parse_params(tokens[6:])
            if "w" not in params or "l" not in params:
                raise ValueError(f"MOS card missing W/L: {line!r}")
            width_um = params["w"] * 1e6 if params["w"] < 1e-2 else params["w"]
            length_um = params["l"] * 1e6 if params["l"] < 1e-2 else params["l"]
            stripes = int(params.get("m", 1))
            # PMOS models start with "p" (pch, pmos, pfet); a "p" elsewhere
            # (nch_lp, nmos_rf_hp) does not flip the type.
            maker = pmos if model.lower().startswith("p") else nmos
            devices.append(maker(name, width_um, length_um, stripes=stripes,
                                 D=drain, G=gate, S=source, B=bulk))
        elif kind == "R":
            if len(tokens) < 4:
                raise ValueError(f"malformed resistor card: {line!r}")
            p, n = tokens[1:3]
            params = _parse_params(tokens[4:])
            width_um = params.get("w", 1e-6)
            length_um = params.get("l", 10e-6)
            width_um = width_um * 1e6 if width_um < 1e-2 else width_um
            length_um = length_um * 1e6 if length_um < 1e-2 else length_um
            stripes = int(params.get("m", 1))
            devices.append(resistor(name, width_um, length_um, stripes=stripes, P=p, N=n))
        elif kind == "C":
            if len(tokens) < 4:
                raise ValueError(f"malformed capacitor card: {line!r}")
            p, n = tokens[1:3]
            farads = _parse_value(tokens[3])
            devices.append(capacitor(name, farads * 1e15, P=p, N=n))
        else:
            raise ValueError(f"unsupported SPICE card {name!r} in line {line!r}")
    return devices


def write_spice(circuit: Circuit, title: Optional[str] = None) -> str:
    """Serialize a circuit's devices as a SPICE subcircuit."""
    lines = [f"* {title or circuit.name} — generated by repro"]
    ports = sorted({net.name for net in circuit.nets})
    lines.append(f".subckt {circuit.name.replace(' ', '_')} {' '.join(ports)}")
    for block in circuit.blocks:
        lines.append(f"* block {block.name} ({block.structure.name})")
        for d in block.devices:
            if d.dtype in (DeviceType.NMOS, DeviceType.PMOS):
                model = "pch" if d.dtype is DeviceType.PMOS else "nch"
                t = d.terminals
                lines.append(
                    f"{d.name} {t.get('D', '0')} {t.get('G', '0')} "
                    f"{t.get('S', '0')} {t.get('B', '0')} {model} "
                    f"W={d.width}u L={d.length}u M={d.stripes}"
                )
            elif d.dtype is DeviceType.RESISTOR:
                t = d.terminals
                lines.append(
                    f"{d.name} {t.get('P', '0')} {t.get('N', '0')} rpoly "
                    f"W={d.width}u L={d.length}u M={d.stripes}"
                )
            else:
                t = d.terminals
                lines.append(f"{d.name} {t.get('P', '0')} {t.get('N', '0')} {d.width}f")
    lines.append(".ends")
    return "\n".join(lines) + "\n"
