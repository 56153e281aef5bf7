"""Sequence-Pair floorplan representation, packing and the baselines' move path.

The classic topological model (Murata et al.; paper refs [14]) used by all
metaheuristic baselines: a pair of permutations ``(gamma_plus,
gamma_minus)`` encodes relative block positions —

* ``a`` left-of ``b``  iff ``a`` precedes ``b`` in *both* sequences;
* ``a`` below   ``b``  iff ``a`` follows ``b`` in ``gamma_plus`` and
  precedes it in ``gamma_minus``.

Packing evaluates the two constraint graphs with a longest-path sweep
over position-rank lists (:func:`pack_coords`), golden-tested
bit-identical to the classic O(n^2) double loop.

The per-move path of the annealers and the GA lives here too, all on
plain Python objects because candidates have at most a few dozen blocks
and numpy's per-call overhead would dominate:

* :func:`pair_evaluator` builds one scalar cost per run: the packing
  sweep records block centres and the bounding box as it goes, and
  :func:`repro.baselines.common.placement_scorer` scores them;
* :func:`memoized_cost` wraps it in a per-run ``SequencePair -> cost``
  dict, since annealers often revisit candidates;
* :class:`DrawReplay` replays ``Generator.integers(low, high)`` and
  ``Generator.random()`` from raw PCG64 words, and leaves the generator
  in the state numpy's own calls would have; SA, RL-SA and GA draw
  through it after their initial candidates;
* :func:`apply_move` is the one neighbourhood move (SA, RL-SA and GA
  mutation), and :func:`choose` replays ``rng.choice(n, k,
  replace=False)`` draw for draw (the swap operands, GA's tournament and
  OX cut points); both take a ``Generator`` or a :class:`DrawReplay`.
  :func:`choice_cdf` replays ``rng.choice(k, p=probs)``.  Every replay
  is pinned to numpy by a hypothesis test that compares the draws *and*
  the bit-generator states.
  A swap or shape change of a valid pair is valid, so the moved pair
  skips the permutation re-check that ``SequencePair(...)`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Circuit
from .common import PlacedRect, placement_scorer

Sizes = Sequence[Sequence[Tuple[float, float]]]


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

    @classmethod
    def _trusted(
        cls, gamma_plus: Tuple[int, ...], gamma_minus: Tuple[int, ...], shapes: Tuple[int, ...]
    ) -> "SequencePair":
        """A pair built from parts already known to be valid (a move of a
        valid pair), skipping :meth:`__post_init__`'s permutation check."""
        pair = object.__new__(cls)
        pair.__dict__.update(gamma_plus=gamma_plus, gamma_minus=gamma_minus, shapes=shapes)
        return pair

    @staticmethod
    def random(n: int, num_shapes: int, rng: np.random.Generator) -> "SequencePair":
        return SequencePair(
            tuple(rng.permutation(n).tolist()),
            tuple(rng.permutation(n).tolist()),
            tuple(int(s) for s in rng.integers(0, num_shapes, size=n)),
        )


def pack_coords(
    pair: SequencePair, sizes: Sizes
) -> Tuple[List[float], List[float], List[float], List[float]]:
    """Pack a sequence pair into per-block coordinate lists ``(x, y, w, h)``.

    The object-free hot path behind :func:`pack`: a single longest-path
    sweep in ``gamma_minus`` order over *position-rank lists*.  Block
    ``a`` is left of ``b`` iff ``a`` precedes ``b`` in both sequences, so
    when blocks are processed in ``gamma_minus`` order the left-of
    predecessors of ``b`` are exactly the already-processed blocks with a
    smaller ``gamma_plus`` rank — a prefix-max over a list indexed by
    plus-rank (and symmetrically a suffix-max for below).  This replaces
    the reference's O(n^2) double loop with slice maxima and is
    bit-identical to it (golden-tested).
    """
    n = pair.num_blocks
    if len(sizes) != n:
        raise ValueError(f"expected sizes for {n} blocks, got {len(sizes)}")
    dims = list(map(getitem, sizes, pair.shapes))
    w = [d[0] for d in dims]
    h = [d[1] for d in dims]
    pos_plus = [0] * n
    for i, b in enumerate(pair.gamma_plus):
        pos_plus[b] = i

    x = [0.0] * n
    y = [0.0] * n
    # ends_x[p + 1] / ends_y[p]: right edge / top edge of the processed
    # block whose gamma_plus rank is p.  ends_x[0] and ends_y[n] are 0.0
    # sentinels, so every prefix / suffix slice is non-empty; the
    # reference floors at 0.0 too, and unprocessed slots (0.0) are
    # harmless since all coordinates are >= 0.
    ends_x = [0.0] * (n + 1)
    ends_y = [0.0] * (n + 1)
    for b in pair.gamma_minus:
        p = pos_plus[b]
        xb = max(ends_x[:p + 1])
        yb = max(ends_y[p + 1:])
        x[b] = xb
        y[b] = yb
        ends_x[p + 1] = xb + w[b]
        ends_y[p] = yb + h[b]
    return x, y, w, h


def pack_population(
    pairs: Sequence[SequencePair], sizes: Sizes
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pack_coords` over a population: four ``(P, num_blocks)``
    arrays, the input of
    :func:`repro.baselines.common.evaluate_coords_population`."""
    x, y, w, h = (np.array(column) for column in zip(*(pack_coords(p, sizes) for p in pairs)))
    return x, y, w, h


def pack(pair: SequencePair, sizes: Sizes) -> List[PlacedRect]:
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


def pair_evaluator(
    circuit: Circuit,
    sizes: Sizes,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
) -> Callable[[SequencePair], Tuple[float, float, float, float]]:
    """Build once per run: ``pair -> (area, hpwl, dead_space, reward)``.

    Runs :func:`pack_coords`'s sweep, but records each block's centre
    ``x + w / 2.0`` as it is placed and takes the extents as the maxima of
    the sweep's edge lists; one
    :func:`repro.baselines.common.placement_scorer` scores them.  The
    packed origin is exactly 0.0 (the first block swept sits on the 0.0
    sentinels), so ``max(ends_x)`` is the very float ``max(x + w) -
    min(x)`` is, and every candidate costs exactly what
    :func:`repro.baselines.common.evaluate_placement` reports for
    ``pack(pair, sizes)``.
    """
    n = circuit.num_blocks
    if len(sizes) != n:
        raise ValueError(f"expected sizes for {n} blocks, got {len(sizes)}")
    score = placement_scorer(circuit, hpwl_min, target_aspect)

    def evaluate_pair(pair: SequencePair) -> Tuple[float, float, float, float]:
        if pair.num_blocks != n:
            raise ValueError(f"expected a pair of {n} blocks, got {pair.num_blocks}")
        dims = list(map(getitem, sizes, pair.shapes))
        pos_plus = [0] * n
        for i, b in enumerate(pair.gamma_plus):
            pos_plus[b] = i
        cx = [0.0] * n
        cy = [0.0] * n
        ends_x = [0.0] * (n + 1)
        ends_y = [0.0] * (n + 1)
        for b in pair.gamma_minus:
            p = pos_plus[b]
            wb, hb = dims[b]
            xb = max(ends_x[:p + 1])
            yb = max(ends_y[p + 1:])
            cx[b] = xb + wb / 2.0
            cy[b] = yb + hb / 2.0
            ends_x[p + 1] = xb + wb
            ends_y[p] = yb + hb
        return score(cx, cy, max(ends_x), max(ends_y))

    return evaluate_pair


def memoized_cost(
    evaluate_pair: Callable[[SequencePair], Tuple[float, float, float, float]],
) -> Tuple[Callable[[SequencePair], float], Dict[SequencePair, float]]:
    """Per-run cost memo over a :func:`pair_evaluator`.

    Returns ``(cost_of, memo)``: ``cost_of(pair)`` is ``-reward``, looked
    up in ``memo`` before packing.  The evaluation is a pure function of
    the pair, so a hit returns the very float a re-evaluation would.
    Build one per annealing run; ``evaluations - len(memo)`` afterwards
    counts the revisits it saved.
    """
    memo: Dict[SequencePair, float] = {}

    def cost_of(pair: SequencePair) -> float:
        cost = memo.get(pair)
        if cost is None:
            cost = memo[pair] = -evaluate_pair(pair)[3]
        return cost

    return cost_of, memo


# ---------------------------------------------------------------------------
# numpy's scalar draws, replayed from raw PCG64 words
# ---------------------------------------------------------------------------

_TWO_TO_MINUS_53 = 2.0 ** -53


class DrawReplay:
    """``Generator.integers(low, high)`` and ``Generator.random()``,
    replayed from raw PCG64 words; a context manager over one generator.

    A scalar ``Generator`` call costs microseconds of argument handling
    for a few nanoseconds of arithmetic.  Inside the ``with`` block this
    object draws 64-bit words in chunks (``bit_generator.random_raw``) and
    applies numpy's own arithmetic to them in Python:

    * ``next_uint32`` hands out the low half of a fresh word and keeps the
      high half for the next call (PCG64's ``has_uint32`` / ``uinteger``
      carry), starting from the generator's carry on entry;
    * ``integers(low, high)`` is numpy's 32-bit Lemire bounded integer,
      rejection loop included; ``high - low == 1`` consumes nothing (a
      span of exactly 2**32, which numpy special-cases as one
      ``next_uint32``, comes out the same from the Lemire step);
    * ``random()`` is ``(word >> 11) * 2**-53``.

    On exit the generator is rewound to the start of the current chunk,
    the consumed words are drawn again and the carry is restored, so it
    holds the state the same calls on it would have left.  Values and
    that state are pinned to numpy by a hypothesis test.  The generator
    itself must not be drawn from inside the block.  Only PCG64 (what
    ``np.random.default_rng`` builds) is replayed; spans above 2**32
    take numpy's 64-bit path, which is not.
    """

    #: Raw words per ``random_raw`` call; an exit re-draws at most this many.
    CHUNK = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"DrawReplay replays PCG64 only, not {type(bitgen).__name__}")
        self._bitgen = bitgen
        state = bitgen.state
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]
        self._words: List[int] = []
        # The state before the current chunk was drawn (None: no chunk yet).
        self._chunk_state: Optional[Dict] = None

    def __enter__(self) -> "DrawReplay":
        return self

    def __exit__(self, *exc_info) -> None:
        bitgen = self._bitgen
        if self._chunk_state is not None:
            bitgen.state = self._chunk_state
            bitgen.random_raw(self.CHUNK - len(self._words))
        state = bitgen.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        bitgen.state = state

    def _next64(self) -> int:
        words = self._words
        if not words:
            self._chunk_state = self._bitgen.state
            words.extend(self._bitgen.random_raw(self.CHUNK)[::-1].tolist())
        return words.pop()

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """``int(rng.integers(low, high))``, for ``0 < high - low <= 2**32``."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= 0x100000000:
            raise ValueError(f"DrawReplay.integers needs 0 < high - low <= 2**32, got {span}")
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:
            # numpy's threshold (UINT32_MAX - (span - 1)) % span.
            threshold = (0x100000000 - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def random(self) -> float:
        """``rng.random()``."""
        return (self._next64() >> 11) * _TWO_TO_MINUS_53


#: What the moves draw from: a ``Generator`` or a :class:`DrawReplay` of
#: one.  They call only ``integers(low, high)`` and ``random()``.
Draws = Union[np.random.Generator, DrawReplay]


# ---------------------------------------------------------------------------
# Neighbourhood moves shared by SA / RL-SA / GA mutation
# ---------------------------------------------------------------------------

def choose(n: int, k: int, rng: Draws) -> List[int]:
    """``rng.choice(n, k, replace=False).tolist()``, replayed draw for draw.

    Without weights numpy's ``Generator.choice`` runs Floyd's sampler
    (Bentley & Floyd, CACM 1987): for ``j`` from ``n - k`` to ``n - 1`` a
    draw in ``[0, j]``, which becomes ``j`` when it was already picked.
    It then shuffles the picks with one draw in ``[0, i]`` for ``i`` from
    ``k - 1`` down to 1.  Each step is an ``rng.integers`` call on the
    same bounded-integer path, so the picks and the bit-generator state
    afterwards are identical, at a fraction of the cost of the ``choice``
    call.  ``k = 2`` (every swap move) runs the same draws unrolled.
    For ``n > 10_000`` and ``k > n // 50`` numpy shuffles the tail
    of ``arange(n)`` instead; that corner raises ``ValueError`` (no caller
    reaches it: ``GAConfig`` caps the population at 10_000).
    """
    if n > 10_000 and k > n // 50:
        raise ValueError(
            f"choose replays Floyd's sampler, which numpy skips for n > 10_000 "
            f"and k > n // 50; got n={n}, k={k}"
        )
    if k == 2:
        # Every swap move: the loop's draws, unrolled (the loop's set and
        # ranges cost ~0.8 us a call, ~2% of an annealing run).
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(0, n))
        if j == i:
            j = n - 1
        return [i, j] if rng.integers(0, 2) else [j, i]
    picks: List[int] = []
    seen = set()
    for j in range(n - k, n):
        v = int(rng.integers(0, j + 1))
        if v in seen:
            v = j
        seen.add(v)
        picks.append(v)
    for i in range(k - 1, 0, -1):
        s = int(rng.integers(0, i + 1))
        picks[i], picks[s] = picks[s], picks[i]
    return picks


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised cumulative sum ``rng.choice(k, p=row)`` searches,
    for each row of ``probs`` (last axis).

    ``choice`` then draws one ``rng.random()`` ``u`` and returns the
    number of entries ``<= u`` (``cdf.searchsorted(u, side="right")``), so
    a caller holding the uniforms replays its draws exactly.  Pinned to
    numpy's ``Generator.choice`` by a hypothesis test that compares draws
    *and* bit-generator states.
    """
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _swapped(seq: Tuple[int, ...], i: int, j: int) -> Tuple[int, ...]:
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def apply_move(
    pair: SequencePair, move: int, num_shapes: int, rng: Draws
) -> SequencePair:
    """Apply one of the four classic SP moves, drawing its operands.

    ``move`` 0 swaps two positions in ``gamma_plus``, 1 in
    ``gamma_minus``, 2 in both; 3 (forced for a single block) gives a
    random block a random shape.
    """
    n = pair.num_blocks
    if move == 3 or n < 2:
        block = int(rng.integers(0, n))
        shapes = list(pair.shapes)
        shapes[block] = int(rng.integers(0, num_shapes))
        return SequencePair._trusted(pair.gamma_plus, pair.gamma_minus, tuple(shapes))
    i, j = choose(n, 2, rng)
    plus, minus = pair.gamma_plus, pair.gamma_minus
    if move != 1:
        plus = _swapped(plus, i, j)
    if move != 0:
        minus = _swapped(minus, i, j)
    return SequencePair._trusted(plus, minus, pair.shapes)


def random_neighbor(pair: SequencePair, num_shapes: int, rng: Draws) -> SequencePair:
    """One random move among the four classic SP move types."""
    return apply_move(pair, int(rng.integers(0, 4)), num_shapes, rng)
