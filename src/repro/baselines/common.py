"""Shared infrastructure for floorplanning baselines.

All baselines (SA / GA / PSO / RL-SP / RL-SA) optimize the same cost the
RL agent is rewarded on (paper Eq. 5), so Table I rewards are directly
comparable.  Baselines place blocks at real (um) coordinates derived from
a sequence-pair packing; this module provides the result container and the
shared evaluation, including the *congestion-aware device spacing* the
paper applies to non-RL methods ("to allocate sufficient room for routing
channels, as our methodology provides routing-ready floorplans").
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from operator import add, itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Circuit
from ..config import REWARD_ALPHA, REWARD_BETA, REWARD_GAMMA
from ..floorplan.metrics import hpwl_lower_bound, incidence_hpwl_batch
from ..obs import OBS, get_logger
from ..shapes.configuration import configure_circuit

logger = get_logger("baselines")

#: Default congestion-aware spacing: blocks inflated by this fraction per
#: side before packing (routing channel reservation).
DEFAULT_SPACING = 0.10


def require_field_types(config: Any) -> None:
    """Raise ``ValueError`` unless every field of a baseline config holds
    a value of its declared type.

    Every field is annotated ``int`` or ``float`` (a string, under
    ``from __future__ import annotations``).  ``int`` fields need an
    integral number and ``float`` fields a finite real one; a ``bool`` is
    neither.  ``spacing`` must also be >= 0: a negative one shrinks the
    packed blocks in :func:`inflated_shapes`.
    """
    cls = type(config).__name__
    for spec in fields(config):
        value = getattr(config, spec.name)
        if spec.type == "int":
            ok, expected = isinstance(value, Integral), "an integer"
        else:
            # Rejects NaN, infinities and ints too big for a float (which
            # would make ``math.isfinite`` raise OverflowError).
            ok = isinstance(value, Real) and abs(value) <= sys.float_info.max
            expected = "a finite number"
        if not ok or isinstance(value, bool):
            raise ValueError(f"{cls}.{spec.name} must be {expected}, got {value!r}")
    if config.spacing < 0:
        raise ValueError(f"{cls}.spacing must be >= 0, got {config.spacing}")


def require_budgets(config: Any, *names: str) -> None:
    """Raise ``ValueError`` unless every named count of ``config`` is >= 1
    (a zero population or batch has nothing to score or return)."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{type(config).__name__}.{name} must be >= 1, got {value}")


def require_cooling_schedule(config: Any) -> None:
    """Raise ``ValueError`` for an annealing schedule that never ends.

    The annealers cool ``temperature *= cooling`` from
    ``initial_temperature`` until it is no longer above
    ``final_temperature``; that needs a positive end and a factor in
    (0, 1) (:func:`require_field_types` has already made the start
    finite).
    """
    cls = type(config).__name__
    if not 0.0 < config.cooling < 1.0:
        raise ValueError(f"{cls}.cooling must be in (0, 1), got {config.cooling}")
    if not config.final_temperature > 0.0:
        raise ValueError(
            f"{cls}.final_temperature must be > 0, got {config.final_temperature}"
        )


@dataclass(frozen=True)
class PlacedRect:
    """A block placed at real coordinates (um)."""

    index: int
    shape_index: int
    x: float
    y: float
    width: float
    height: float

    @property
    def center(self) -> Tuple[float, float]:
        return self.x + self.width / 2.0, self.y + self.height / 2.0

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height


@dataclass
class FloorplanResult:
    """Outcome of one floorplanning run (any method)."""

    circuit_name: str
    method: str
    rects: List[PlacedRect]
    area: float
    hpwl: float
    dead_space: float
    reward: float
    runtime: float
    extra: Dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.method} on {self.circuit_name}: reward={self.reward:.3f}, "
            f"dead_space={100 * self.dead_space:.1f}%, HPWL={self.hpwl:.1f} um, "
            f"runtime={self.runtime:.2f} s"
        )


def publish_result(
    result: FloorplanResult,
    started: Optional[float] = None,
    evaluations: Optional[int] = None,
    name: Optional[str] = None,
) -> FloorplanResult:
    """Report one finished baseline run through ``repro.obs``.

    Logged at DEBUG (so ``-q`` sweeps stay silent); with telemetry
    enabled the run is counted, its candidate-evaluation budget recorded
    (and, for the annealers, ``extra["cost_cache_hits"]`` as
    ``baseline.cost_cache_hits``), its wall time added to a per-method
    histogram, and a trace span emitted covering ``[started, now]``.
    Returns ``result`` unchanged so call sites can use it in the return
    statement.
    """
    logger.debug("%s", result.summary())
    if OBS.enabled:
        method = name or result.method.lower().replace(" ", "_").replace("-", "_")
        registry = OBS.registry
        registry.inc("baseline.runs")
        if evaluations is not None:
            registry.inc("baseline.evaluations", int(evaluations))
        hits = result.extra.get("cost_cache_hits")
        if hits is not None:
            registry.inc("baseline.cost_cache_hits", int(hits))
        registry.observe(f"baseline.{method}.seconds", result.runtime)
        if started is not None:
            OBS.tracer.add_complete(
                f"baseline.{method}", started, time.perf_counter(),
                {"circuit": result.circuit_name, "reward": round(result.reward, 4)},
            )
    return result


def rects_overlap(a: PlacedRect, b: PlacedRect, tol: float = 1e-9) -> bool:
    return not (
        a.x2 <= b.x + tol or b.x2 <= a.x + tol or a.y2 <= b.y + tol or b.y2 <= a.y + tol
    )


def _placement_coords(
    circuit: Circuit, rects: Sequence[PlacedRect]
) -> Tuple[List[float], List[float], List[float], List[float]]:
    """Per-block (x, y, w, h) lists for one full placement.

    Validates that the rects cover every block exactly once — the list
    form has no "missing key" to trip over, so coverage is checked
    eagerly (mirroring the reference path's ``KeyError`` on unplaced
    net members).
    """
    n = circuit.num_blocks
    if len(rects) != n:
        raise ValueError(f"expected {n} rects, got {len(rects)}")
    x = [0.0] * n
    y = [0.0] * n
    w = [0.0] * n
    h = [0.0] * n
    seen = [False] * n
    for r in rects:
        if not 0 <= r.index < n or seen[r.index]:
            raise KeyError(
                f"placement must cover every block exactly once; bad index {r.index}"
            )
        seen[r.index] = True
        x[r.index] = r.x
        y[r.index] = r.y
        w[r.index] = r.width
        h[r.index] = r.height
    return x, y, w, h


def placement_scorer(
    circuit: Circuit,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Callable[..., Tuple[float, float, float, float]]:
    """Build the scalar placement cost once: ``(cx, cy, width, height) ->
    (area, hpwl, dead_space, reward)`` from per-block centre lists and the
    bounding box's extents.

    The package's one scalar cost, shared by :func:`coords_evaluator` and
    :func:`repro.baselines.seqpair.pair_evaluator` (which computes the
    centres and extents inside its packing sweep).  Everything that does
    not depend on the placement is fixed here: each net's members in
    ``circuit.incidence``, the total block area and the HPWL normalizer.
    A call is plain Python float arithmetic in a fixed order: HPWL adds
    ``(max - min) + (max - min)`` per net left to right, as the scalar
    per-net loop does.  A two-pin net ``(a, b)`` adds ``abs(cx[a] -
    cx[b]) + abs(cy[a] - cy[b])``, which is that very float: IEEE
    subtraction is exact up to sign symmetry, so ``abs(a - b)`` is
    ``max - min`` bit for bit (``+0.0`` for equal centres).  Larger nets
    take their coordinates with one ``itemgetter``.
    """
    inc = circuit.incidence
    # (a, b, None) for a two-pin net, (0, 0, itemgetter) for a larger one.
    nets = []
    for i in range(inc.num_nets):
        members = inc.members_of(i).tolist()
        if len(members) == 2:
            nets.append((members[0], members[1], None))
        else:
            nets.append((0, 0, itemgetter(*members)))
    total_area = circuit.total_area
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)

    def score(cx, cy, width: float, height: float) -> Tuple[float, float, float, float]:
        area = width * height
        wirelength = 0.0
        for a, b, net in nets:
            if net is None:
                wirelength += abs(cx[a] - cx[b]) + abs(cy[a] - cy[b])
            else:
                xs = net(cx)
                ys = net(cy)
                wirelength += (max(xs) - min(xs)) + (max(ys) - min(ys))
        ds = 1.0 - total_area / area if area > 0 else 0.0
        cost = alpha * (area / total_area - 1.0) + beta * (wirelength / hmin - 1.0)
        if target_aspect is not None:
            ratio = width / height if height > 0 else 1.0
            cost += gamma * (target_aspect - ratio) ** 2
        return area, wirelength, ds, -cost

    return score


def coords_evaluator(
    circuit: Circuit,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Callable[..., Tuple[float, float, float, float]]:
    """Build once: ``(x, y, w, h) -> (area, hpwl, dead_space, reward)``
    over per-block sequences.

    Block centres are ``x + w / 2.0`` and the extents ``max(x + w) -
    min(x)`` / ``max(y + h) - min(y)``, scored by one
    :func:`placement_scorer`.
    """
    score = placement_scorer(circuit, hpwl_min, target_aspect, alpha, beta, gamma)

    def evaluate(x, y, w, h) -> Tuple[float, float, float, float]:
        cx = [xb + wb / 2.0 for xb, wb in zip(x, w)]
        cy = [yb + hb / 2.0 for yb, hb in zip(y, h)]
        return score(cx, cy, max(map(add, x, w)) - min(x), max(map(add, y, h)) - min(y))

    return evaluate


def evaluate_placement(
    circuit: Circuit,
    rects: Sequence[PlacedRect],
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Tuple[float, float, float, float]:
    """Compute (area, hpwl, dead_space, reward) for a full placement.

    Dead space uses the *true* block areas (not the inflated packing
    sizes), matching how the paper reports dead space for spaced methods.
    Scored by :func:`coords_evaluator` (bit-identical to the scalar
    per-net HPWL reference, golden-tested).
    """
    evaluate = coords_evaluator(circuit, hpwl_min, target_aspect, alpha, beta, gamma)
    return evaluate(*_placement_coords(circuit, rects))


def evaluate_population(
    circuit: Circuit,
    placements: Sequence[Sequence[PlacedRect]],
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`evaluate_placement` over a population of placements.

    Returns ``(areas, hpwls, dead_spaces, rewards)`` arrays of shape
    ``(len(placements),)``; every entry is bit-identical to evaluating
    that placement alone.  Population loops that pack their own
    candidates should prefer :func:`evaluate_coords_population` over
    ``pack_population`` outputs — it skips the PlacedRect round trip.
    """
    n_p = len(placements)
    n = circuit.num_blocks
    if n_p == 0:
        empty = np.zeros(0)
        return empty, empty.copy(), empty.copy(), empty.copy()
    x = np.empty((n_p, n))
    y = np.empty((n_p, n))
    w = np.empty((n_p, n))
    h = np.empty((n_p, n))
    for p, rects in enumerate(placements):
        x[p], y[p], w[p], h[p] = _placement_coords(circuit, rects)
    return evaluate_coords_population(
        circuit, x, y, w, h,
        hpwl_min=hpwl_min, target_aspect=target_aspect,
        alpha=alpha, beta=beta, gamma=gamma,
    )


def evaluate_coords_population(
    circuit: Circuit,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    hpwl_min: Optional[float] = None,
    target_aspect: Optional[float] = None,
    alpha: float = REWARD_ALPHA,
    beta: float = REWARD_BETA,
    gamma: float = REWARD_GAMMA,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`evaluate_population` on stacked ``(P, num_blocks)``
    coordinate arrays (the object-free batch path behind PSO and RL-SP
    generations)."""
    minx = x.min(axis=1)
    miny = y.min(axis=1)
    maxx = (x + w).max(axis=1)
    maxy = (y + h).max(axis=1)
    width = maxx - minx
    height = maxy - miny
    areas = width * height
    wirelengths = incidence_hpwl_batch(circuit, x + w / 2.0, y + h / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dead_spaces = np.where(areas > 0, 1.0 - circuit.total_area / areas, 0.0)
    hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
    costs = alpha * (areas / circuit.total_area - 1.0) + beta * (wirelengths / hmin - 1.0)
    if target_aspect is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(height > 0, width / height, 1.0)
        costs = costs + gamma * (target_aspect - ratios) ** 2
    return areas, wirelengths, dead_spaces, -costs


def inflated_shapes(
    circuit: Circuit, spacing: float = DEFAULT_SPACING
) -> List[List[Tuple[float, float]]]:
    """Per-block candidate (w, h) sizes inflated for routing channels.

    Returns, for each block, the three shape variants' packing sizes with
    the congestion spacing applied per side.
    """
    shape_sets = configure_circuit(circuit)
    factor = 1.0 + spacing
    return [
        [(v.width * factor, v.height * factor) for v in shape_set]
        for shape_set in shape_sets
    ]


def true_shapes(circuit: Circuit) -> List[List[Tuple[float, float]]]:
    """Per-block candidate true (w, h) sizes (no spacing)."""
    shape_sets = configure_circuit(circuit)
    return [[(v.width, v.height) for v in shape_set] for shape_set in shape_sets]
