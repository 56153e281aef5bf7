"""Routing geometry primitives: points, rectilinear segments, obstacles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class Segment:
    """An axis-parallel wire segment."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x1 != self.x2 and self.y1 != self.y2:
            raise ValueError(f"segment must be rectilinear: {self}")

    @property
    def is_horizontal(self) -> bool:
        return self.y1 == self.y2

    @property
    def is_vertical(self) -> bool:
        return self.x1 == self.x2

    @property
    def length(self) -> float:
        return abs(self.x2 - self.x1) + abs(self.y2 - self.y1)

    @property
    def endpoints(self) -> Tuple[Point, Point]:
        return Point(self.x1, self.y1), Point(self.x2, self.y2)

    def canonical(self) -> "Segment":
        """Endpoints ordered left-to-right / bottom-to-top."""
        if (self.x2, self.y2) < (self.x1, self.y1):
            return Segment(self.x2, self.y2, self.x1, self.y1)
        return self


@dataclass(frozen=True)
class Obstacle:
    """A closed rectangular blockage [x1, x2] x [y1, y2]."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValueError(f"degenerate obstacle: {self}")

    def contains_strict(self, x: float, y: float, eps: float = 1e-9) -> bool:
        """Point strictly inside (boundary is allowed for routing)."""
        return self.x1 + eps < x < self.x2 - eps and self.y1 + eps < y < self.y2 - eps


def merge_collinear(segments: Sequence[Segment]) -> List[Segment]:
    """Merge touching collinear segments (cleanup after tree extraction)."""
    horizontals: dict = {}
    verticals: dict = {}
    result: List[Segment] = []
    for seg in segments:
        s = seg.canonical()
        if s.length == 0:
            continue
        if s.is_horizontal:
            horizontals.setdefault(s.y1, []).append((s.x1, s.x2))
        else:
            verticals.setdefault(s.x1, []).append((s.y1, s.y2))
    for y, spans in horizontals.items():
        for a, b in _merge_spans(spans):
            result.append(Segment(a, y, b, y))
    for x, spans in verticals.items():
        for a, b in _merge_spans(spans):
            result.append(Segment(x, a, x, b))
    return result


def _merge_spans(spans: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    ordered = sorted(spans)
    merged = [list(ordered[0])]
    for a, b in ordered[1:]:
        if a <= merged[-1][1] + 1e-9:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]
