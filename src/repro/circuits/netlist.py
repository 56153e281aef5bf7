"""Circuit model: device netlist, block-level nets, and the Circuit class.

The floorplanner operates at block granularity; HPWL (paper Eq. 3) is
computed over block-level nets.  ``Circuit.from_blocks`` derives the
block-level nets from device terminals: a net that touches devices in two
or more blocks becomes an inter-block net (power/ground rails are excluded
by default, as routers treat them separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .blocks import FunctionalBlock
from .constraints import Constraint

#: Nets excluded from HPWL accounting (supply rails are routed as rings /
#: stripes, not point-to-point, in analog flows).
SUPPLY_NETS = frozenset({"VDD", "VSS", "GND", "VDDA", "VSSA"})


@dataclass(frozen=True)
class Net:
    """A block-level net: a name and the indices of blocks it touches."""

    name: str
    blocks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) < 2:
            raise ValueError(f"net {self.name}: needs at least two blocks, got {self.blocks}")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError(f"net {self.name}: duplicate block indices {self.blocks}")

    @property
    def degree(self) -> int:
        return len(self.blocks)


class NetIncidence:
    """Precomputed net <-> block incidence in flat (CSR-style) arrays.

    Built once per circuit and shared by the metrics, mask, and baseline
    hot paths so none of them rescans ``Circuit.nets`` per evaluation:

    * ``net_offsets`` / ``net_members``: net ``i``'s member block indices
      are ``net_members[net_offsets[i]:net_offsets[i + 1]]``, in the
      net's declaration order.
    * ``block_offsets`` / ``block_nets``: block ``b``'s incident net
      indices are ``block_nets[block_offsets[b]:block_offsets[b + 1]]``,
      ascending (= ``Circuit.nets`` order).
    """

    __slots__ = (
        "num_blocks",
        "num_nets",
        "net_offsets",
        "net_members",
        "net_degrees",
        "block_offsets",
        "block_nets",
    )

    def __init__(self, num_blocks: int, nets: Sequence[Net]):
        self.num_blocks = num_blocks
        self.num_nets = len(nets)
        degrees = [net.degree for net in nets]
        self.net_degrees = np.asarray(degrees, dtype=np.intp)
        self.net_offsets = np.zeros(len(nets) + 1, dtype=np.intp)
        np.cumsum(self.net_degrees, out=self.net_offsets[1:])
        self.net_members = np.asarray(
            [b for net in nets for b in net.blocks], dtype=np.intp
        ).reshape(-1)

        per_block: List[List[int]] = [[] for _ in range(num_blocks)]
        for i, net in enumerate(nets):
            for b in net.blocks:
                per_block[b].append(i)
        self.block_offsets = np.zeros(num_blocks + 1, dtype=np.intp)
        np.cumsum([len(ids) for ids in per_block], out=self.block_offsets[1:])
        self.block_nets = np.asarray(
            [i for ids in per_block for i in ids], dtype=np.intp
        ).reshape(-1)

    def nets_of(self, block: int) -> np.ndarray:
        """Indices of the nets incident to ``block`` (ascending)."""
        return self.block_nets[self.block_offsets[block]:self.block_offsets[block + 1]]

    def members_of(self, net: int) -> np.ndarray:
        """Member block indices of net ``net`` (declaration order)."""
        return self.net_members[self.net_offsets[net]:self.net_offsets[net + 1]]


@dataclass
class Circuit:
    """A circuit ready for floorplanning.

    Attributes
    ----------
    name:
        Circuit identifier (e.g. ``"OTA-2"``).
    blocks:
        Functional blocks in placement order (the environment re-sorts by
        decreasing area per paper Sec. IV-D1).
    nets:
        Block-level nets for HPWL.
    constraints:
        Positional constraints over block indices.

    ``blocks`` and ``nets`` are treated as immutable after construction:
    the hot paths cache derived structures (incidence arrays, total area,
    shape sets, HPWL bounds) per circuit, keyed only on element counts.
    To change the net or block list, build a new ``Circuit`` (as
    :meth:`with_constraints` does) instead of mutating in place.
    """

    name: str
    blocks: List[FunctionalBlock]
    nets: List[Net] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != n:
            raise ValueError(f"circuit {self.name}: duplicate block names")
        for net in self.nets:
            if any(i >= n or i < 0 for i in net.blocks):
                raise ValueError(f"circuit {self.name}: net {net.name} references unknown block")
        for constraint in self.constraints:
            if any(i >= n or i < 0 for i in constraint.blocks):
                raise ValueError(f"circuit {self.name}: constraint references unknown block")

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_area(self) -> float:
        """Sum of block areas (um^2); denominator of dead space.

        Cached: the naive sum walks every device of every block, and the
        metric hot paths (dead space, rewards, placement evaluation) read
        this once or twice per evaluation.
        """
        cached = self.__dict__.get("_total_area")
        if cached is None or self.__dict__.get("_total_area_blocks") != len(self.blocks):
            cached = sum(block.area for block in self.blocks)
            self.__dict__["_total_area"] = cached
            self.__dict__["_total_area_blocks"] = len(self.blocks)
        return cached

    @property
    def incidence(self) -> NetIncidence:
        """Cached :class:`NetIncidence` for this circuit's current nets."""
        cached = self.__dict__.get("_incidence")
        if cached is None or cached.num_nets != len(self.nets):
            cached = NetIncidence(self.num_blocks, self.nets)
            self.__dict__["_incidence"] = cached
        return cached

    def block_index(self, name: str) -> int:
        for i, block in enumerate(self.blocks):
            if block.name == name:
                return i
        raise KeyError(f"circuit {self.name}: no block named {name!r}")

    def with_constraints(self, constraints: Sequence[Constraint]) -> "Circuit":
        """A copy of this circuit with a different constraint set."""
        return Circuit(self.name, self.blocks, self.nets, list(constraints))

    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(
        cls,
        name: str,
        blocks: Sequence[FunctionalBlock],
        constraints: Sequence[Constraint] = (),
        exclude_nets: FrozenSet[str] = SUPPLY_NETS,
    ) -> "Circuit":
        """Build a circuit, deriving block-level nets from device terminals."""
        net_to_blocks: Dict[str, Set[int]] = {}
        for index, block in enumerate(blocks):
            for net_name in block.nets():
                if net_name in exclude_nets:
                    continue
                net_to_blocks.setdefault(net_name, set()).add(index)
        nets = [
            Net(net_name, tuple(sorted(touching)))
            for net_name, touching in sorted(net_to_blocks.items())
            if len(touching) >= 2
        ]
        return cls(name, list(blocks), nets, list(constraints))

    def summary(self) -> str:
        """One-line description used in logs and examples."""
        return (
            f"{self.name}: {self.num_blocks} blocks, {len(self.nets)} nets, "
            f"{len(self.constraints)} constraints, total area {self.total_area:.1f} um^2"
        )
