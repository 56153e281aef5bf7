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

#: One bit per layer.
_LAYER_BIT: Dict[Layer, int] = {layer: 1 << k for k, layer in enumerate(Layer)}


def _connect_masks() -> Dict[Layer, int]:
    """Per layer, the bits of the layers its shapes connect to when they
    overlap: itself (every layer but ``BOUNDARY``) and its
    :data:`CONNECTIVITY` partners.  Built once, so the pair scan tests an
    integer mask instead of hashing two ``Layer`` members per pair."""
    masks = {layer: 0 if layer is Layer.BOUNDARY else _LAYER_BIT[layer] for layer in Layer}
    for a, b in CONNECTIVITY:
        masks[a] |= _LAYER_BIT[b]
        masks[b] |= _LAYER_BIT[a]
    return masks


_CONNECT_MASKS = _connect_masks()


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
    shapes = [(i, s, _LAYER_BIT[s.layer]) for i, s in enumerate(layout.shapes)
              if s.net is not None]
    parent = {i: i for i, _, _ in shapes}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a_pos, (i, a, _) in enumerate(shapes):
        reach = _CONNECT_MASKS[a.layer]
        for j, b, bit in shapes[a_pos + 1:]:
            if reach & bit and a.overlaps(b):
                parent[find(i)] = find(j)
    components: Dict[int, Set[int]] = {}
    for i, _, _ in shapes:
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
