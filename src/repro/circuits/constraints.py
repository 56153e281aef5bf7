"""Positional constraints: symmetry and alignment groups.

The paper's floorplanner guarantees "adherence to constraints such as
symmetry and alignment" (Sec. IV-A) via positional masks.  A constraint
references blocks by index within a circuit.

Semantics (documented here once, used by masks and checkers):

* ``SYM_V`` — mirror about a *vertical* axis: the two blocks of a pair sit
  at the same y, mirrored left/right.  If ``axis`` is ``None`` the axis is
  free and gets fixed by the first placed pair member.  A single-block
  group means the block is self-symmetric: its x-center must lie on the
  axis.
* ``SYM_H`` — mirror about a *horizontal* axis (same x, mirrored up/down).
* ``ALIGN_V`` — blocks share the same x of their left edge (stacked in a
  column, like the violet edges of paper Fig. 2).
* ``ALIGN_H`` — blocks share the same y of their bottom edge (in a row).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


class ConstraintKind(Enum):
    SYM_V = "sym_v"
    SYM_H = "sym_h"
    ALIGN_V = "align_v"
    ALIGN_H = "align_h"


@dataclass(frozen=True)
class Constraint:
    """A positional constraint over block indices.

    Parameters
    ----------
    kind:
        The :class:`ConstraintKind`.
    blocks:
        Block indices.  Symmetry groups contain 1 (self-symmetric) or 2
        blocks; alignment groups contain 2 or more.
    axis:
        Optional fixed axis coordinate in *real* um.  ``None`` means the
        axis is free (derived from the first placement).
    """

    kind: ConstraintKind
    blocks: Tuple[int, ...]
    axis: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.blocks) == 0:
            raise ValueError("constraint must reference at least one block")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError(f"constraint references duplicate blocks: {self.blocks}")
        if self.kind in (ConstraintKind.SYM_V, ConstraintKind.SYM_H):
            if len(self.blocks) > 2:
                raise ValueError("symmetry groups contain at most two blocks")
        else:
            if len(self.blocks) < 2:
                raise ValueError("alignment groups need at least two blocks")

    @property
    def is_symmetry(self) -> bool:
        return self.kind in (ConstraintKind.SYM_V, ConstraintKind.SYM_H)

    def involves(self, block_index: int) -> bool:
        return block_index in self.blocks

    def partner(self, block_index: int) -> Optional[int]:
        """For a two-block group, the other block; ``None`` otherwise."""
        if len(self.blocks) != 2 or block_index not in self.blocks:
            return None
        a, b = self.blocks
        return b if block_index == a else a


def sym_pair_v(a: int, b: int, axis: Optional[float] = None) -> Constraint:
    """Vertical-axis symmetry between blocks ``a`` and ``b``."""
    return Constraint(ConstraintKind.SYM_V, (a, b), axis)


def sym_pair_h(a: int, b: int, axis: Optional[float] = None) -> Constraint:
    """Horizontal-axis symmetry between blocks ``a`` and ``b``."""
    return Constraint(ConstraintKind.SYM_H, (a, b), axis)


def align_v(*blocks: int) -> Constraint:
    """Left-edge (column) alignment of the given blocks."""
    return Constraint(ConstraintKind.ALIGN_V, tuple(blocks))


def align_h(*blocks: int) -> Constraint:
    """Bottom-edge (row) alignment of the given blocks."""
    return Constraint(ConstraintKind.ALIGN_H, tuple(blocks))
