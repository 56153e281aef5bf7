"""Sequence-Pair floorplan representation and packing.

The classic topological model (Murata et al.; paper refs [14]) used by all
metaheuristic baselines: a pair of permutations ``(gamma_plus,
gamma_minus)`` encodes relative block positions —

* ``a`` left-of ``b``  iff ``a`` precedes ``b`` in *both* sequences;
* ``a`` below   ``b``  iff ``a`` follows ``b`` in ``gamma_plus`` and
  precedes it in ``gamma_minus``.

Packing evaluates the two constraint graphs with a longest-path sweep
over position-rank arrays (:func:`pack_coords`), golden-tested
bit-identical to the classic O(n^2) double loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .common import PlacedRect


@dataclass(frozen=True)
class SequencePair:
    """A pair of permutations plus a shape choice per block."""

    gamma_plus: Tuple[int, ...]
    gamma_minus: Tuple[int, ...]
    shapes: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.gamma_plus)
        if sorted(self.gamma_plus) != list(range(n)) or sorted(self.gamma_minus) != list(range(n)):
            raise ValueError("sequence pair entries must be permutations of 0..n-1")
        if len(self.shapes) != n:
            raise ValueError("need one shape index per block")

    @property
    def num_blocks(self) -> int:
        return len(self.gamma_plus)

    @staticmethod
    def random(n: int, num_shapes: int, rng: np.random.Generator) -> "SequencePair":
        return SequencePair(
            tuple(rng.permutation(n).tolist()),
            tuple(rng.permutation(n).tolist()),
            tuple(int(s) for s in rng.integers(0, num_shapes, size=n)),
        )


def pack_coords(
    pair: SequencePair,
    sizes: Sequence[Sequence[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack a sequence pair into dense coordinate arrays ``(x, y, w, h)``.

    The object-free hot path behind :func:`pack`: a single longest-path
    sweep in ``gamma_minus`` order over *position-rank arrays*.  Block
    ``a`` is left of ``b`` iff ``a`` precedes ``b`` in both sequences, so
    when blocks are processed in ``gamma_minus`` order the left-of
    predecessors of ``b`` are exactly the already-processed blocks with a
    smaller ``gamma_plus`` rank — a prefix-max over an array indexed by
    plus-rank (and symmetrically a suffix-max for below).  This replaces
    the reference's O(n^2) Python double loop with C-speed slice maxima
    and is bit-identical to the double loop (golden-tested).
    """
    n = pair.num_blocks
    if len(sizes) != n:
        raise ValueError(f"expected sizes for {n} blocks, got {len(sizes)}")
    shapes = pair.shapes
    w = [sizes[b][shapes[b]][0] for b in range(n)]
    h = [sizes[b][shapes[b]][1] for b in range(n)]
    pos_plus = [0] * n
    for i, b in enumerate(pair.gamma_plus):
        pos_plus[b] = i

    x = [0.0] * n
    y = [0.0] * n
    # ends_x[p] / ends_y[p]: right edge / top edge of the processed block
    # whose gamma_plus rank is p (0.0 where unprocessed — harmless, the
    # reference floors at 0.0 too since all coordinates are >= 0).
    ends_x = [0.0] * n
    ends_y = [0.0] * n
    for b in pair.gamma_minus:
        p = pos_plus[b]
        xb = max(ends_x[:p], default=0.0)
        yb = max(ends_y[p + 1:], default=0.0)
        x[b] = xb
        y[b] = yb
        ends_x[p] = xb + w[b]
        ends_y[p] = yb + h[b]
    return np.asarray(x), np.asarray(y), np.asarray(w), np.asarray(h)


def pack(
    pair: SequencePair,
    sizes: Sequence[Sequence[Tuple[float, float]]],
) -> List[PlacedRect]:
    """Pack a sequence pair into placed rectangles (lower-left at origin).

    ``sizes[b][s]`` is the (width, height) of block ``b`` under shape
    ``s``.  Longest-path over the horizontal / vertical constraint graphs
    yields the minimal compliant placement; see :func:`pack_coords` for
    the sweep itself.
    """
    x, y, w, h = pack_coords(pair, sizes)
    return [
        PlacedRect(b, pair.shapes[b], float(x[b]), float(y[b]), float(w[b]), float(h[b]))
        for b in range(pair.num_blocks)
    ]


# ---------------------------------------------------------------------------
# Neighbourhood moves shared by SA / GA mutation
# ---------------------------------------------------------------------------

def swap_in_plus(pair: SequencePair, i: int, j: int) -> SequencePair:
    seq = list(pair.gamma_plus)
    seq[i], seq[j] = seq[j], seq[i]
    return SequencePair(tuple(seq), pair.gamma_minus, pair.shapes)


def swap_in_minus(pair: SequencePair, i: int, j: int) -> SequencePair:
    seq = list(pair.gamma_minus)
    seq[i], seq[j] = seq[j], seq[i]
    return SequencePair(pair.gamma_plus, tuple(seq), pair.shapes)


def swap_in_both(pair: SequencePair, i: int, j: int) -> SequencePair:
    return swap_in_minus(swap_in_plus(pair, i, j), i, j)


def change_shape(pair: SequencePair, block: int, shape: int) -> SequencePair:
    shapes = list(pair.shapes)
    shapes[block] = shape
    return SequencePair(pair.gamma_plus, pair.gamma_minus, tuple(shapes))


def random_neighbor(pair: SequencePair, num_shapes: int, rng: np.random.Generator) -> SequencePair:
    """One random move among the four classic SP move types."""
    n = pair.num_blocks
    move = int(rng.integers(0, 4))
    if n < 2:
        move = 3
    if move == 3:
        block = int(rng.integers(0, n))
        shape = int(rng.integers(0, num_shapes))
        return change_shape(pair, block, shape)
    i, j = rng.choice(n, size=2, replace=False)
    if move == 0:
        return swap_in_plus(pair, int(i), int(j))
    if move == 1:
        return swap_in_minus(pair, int(i), int(j))
    return swap_in_both(pair, int(i), int(j))
