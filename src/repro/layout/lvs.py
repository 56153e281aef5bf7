"""Layout-versus-schematic connectivity check.

Extracts electrical connectivity from layout shapes (same-layer overlap +
the inter-layer pairs of :data:`repro.layout.geometry.CONNECTIVITY`) and
compares against the circuit's block-level netlist: for every net, the
blocks that should connect must end up in one extracted electrical
component.  This is the "LVS clean" criterion of paper Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuits.netlist import Circuit
from .geometry import CONNECTIVITY, Layer, Layout, Shape

_CONNECTED_PAIRS: Set[frozenset] = {frozenset((a, b)) for a, b in CONNECTIVITY}


def _layers_connect(a: Layer, b: Layer) -> bool:
    if a is b:
        return a is not Layer.BOUNDARY
    return frozenset((a, b)) in _CONNECTED_PAIRS


@dataclass
class LVSReport:
    layout_name: str
    open_nets: List[str] = field(default_factory=list)
    short_pairs: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.open_nets and not self.short_pairs


def extract_components(layout: Layout) -> List[Set[int]]:
    """Connected components over labelled (net-carrying) shapes, as sets
    of shape indices ordered by their lowest index."""
    shapes = [(i, s) for i, s in enumerate(layout.shapes) if s.net is not None]
    parent = {i: i for i, _ in shapes}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a_pos in range(len(shapes)):
        i, a = shapes[a_pos]
        for b_pos in range(a_pos + 1, len(shapes)):
            j, b = shapes[b_pos]
            if _layers_connect(a.layer, b.layer) and a.overlaps(b):
                parent[find(i)] = find(j)
    components: Dict[int, Set[int]] = {}
    for i, _ in shapes:
        components.setdefault(find(i), set()).add(i)
    return list(components.values())


def check_lvs(circuit: Circuit, layout: Layout) -> LVSReport:
    """Compare extracted connectivity against the netlist.

    * An **open** is a net whose labelled shapes span more than one
      electrical component (some pins are unreached).
    * A **short** is a component containing shapes of two different nets.
    """
    report = LVSReport(layout_name=layout.name)
    components = extract_components(layout)
    shape_net = {i: s.net for i, s in enumerate(layout.shapes) if s.net is not None}

    # Shorts: one component, many nets.
    for component in components:
        nets = {shape_net[i] for i in component}
        if len(nets) > 1:
            ordered = sorted(nets)
            for a_net, b_net in zip(ordered, ordered[1:]):
                report.short_pairs.append((a_net, b_net))

    # Opens: a net split across components.
    net_components: Dict[str, Set[int]] = {}
    for ci, component in enumerate(components):
        for i in component:
            net_components.setdefault(shape_net[i], set()).add(ci)
    for net in circuit.nets:
        comps = net_components.get(net.name, set())
        if len(comps) != 1:
            report.open_nets.append(net.name)
    return report
