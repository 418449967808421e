"""Geometric primitives, the box clip, tolerance policy, and perimeter coordinates.

Everything here is an immutable value; all operations are pure functions.
Coordinates are plain floats, except that the box clip (`_slab_clip`,
`_lines_in_box`) and the square's perimeter map work on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQUARE = "square"
CIRCLE = "circle"

# Unit shapes: square of side 1, circle of radius 1.
SQUARE_PERIMETER = 4.0
CIRCLE_PERIMETER = 2.0 * math.pi


class GeometryError(Exception):
    """Base class for geometric failures."""


class NotOnBoundary(GeometryError):
    pass


# Tolerances, each with its reason.
# Coincidence questions (is a point on a line, are two lines parallel) are decided within this.
EPS_GEOM = 1e-9
# Curves are checked against the brute-force oracle within this looser budget; eps stays well above it.
EPS_VERIFY = 1e-6
# A closed clip keeps an axis-parallel run this far outside the box, the rounding of a point on its side.
CLOSED_PAD = 1e-12
# A direction component this small is axis-parallel: dividing by it overflows the box parameters.
PARALLEL_DIR = 1e-15
# Coordinates stay this far below the perimeter P: s % P of a tiny negative s rounds to P itself.
PERIMETER_END = 1e-15


def require_positive(name: str, value: float) -> None:
    """Refuse a granularity, step or radius that is not positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Line:
    """Infinite line through two distinct anchor points.

    Canonical form a*x + b*y = c with a^2 + b^2 = 1 and the leading nonzero
    coefficient positive, so one geometric line has one representation.
    """

    p: Point
    q: Point
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self) -> None:
        dx = self.q.x - self.p.x
        dy = self.q.y - self.p.y
        norm = math.hypot(dx, dy)
        if norm <= EPS_GEOM:
            raise ValueError("anchor points of a line must be distinct")
        a = -dy / norm
        b = dx / norm
        c = a * self.p.x + b * self.p.y
        # Leading nonzero coefficient positive; a counts as zero within tolerance.
        if a < -EPS_GEOM or (abs(a) <= EPS_GEOM and b < 0.0):
            a, b, c = -a, -b, -c
        if abs(a) <= EPS_GEOM:
            a = 0.0
            b = math.copysign(1.0, b)
            c = b * self.p.y
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def direction(self) -> tuple[float, float]:
        return (self.b, -self.a)

    def side_of(self, pt: Point) -> float:
        """Signed offset of pt from the line (positive on the (a, b) side)."""
        return self.a * pt.x + self.b * pt.y - self.c

    def same_line(self, other: "Line") -> bool:
        """Canonical coefficients equal within EPS_GEOM."""
        tol = EPS_GEOM
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
        )


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p.dist(self.q) <= EPS_GEOM:
            raise ValueError("segment endpoints must be distinct")

    def length(self) -> float:
        return self.p.dist(self.q)


@dataclass(frozen=True)
class Polyline:
    id: str
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("polyline needs at least two vertices")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if u.dist(v) <= EPS_GEOM:
                raise ValueError("consecutive polyline vertices must be distinct")

    def edges(self) -> list[tuple[Point, Point]]:
        return list(zip(self.vertices, self.vertices[1:]))


def _slab_clip(px, py, dx, dy, t0, t1, xmin, ymin, xmax, ymax, closed: bool):
    """Liang-Barsky, elementwise over arrays of points p and directions d:
    whether each p + t*d, t in [t0, t1], meets the box, and its part
    [t0', t1'] inside it.  The bounds are shared or given per row.

    Open (closed=False): a zero-length part is a miss and an axis-parallel
    direction must lie within the bounds.  Closed: a touch gives a
    zero-length part and axis-parallel runs within CLOSED_PAD outside the
    bounds count as inside.  The x axis is taken first, and a bound only
    where it is strictly tighter, so a bound never replaces an equal t of
    the other sign of zero.
    """
    pad = CLOSED_PAD if closed else 0.0
    hit = np.ones(len(px), dtype=bool)
    t0, t1 = np.full(len(px), float(t0)), np.full(len(px), float(t1))
    for p, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
        along = abs(d) <= PARALLEL_DIR
        hit &= ~along | ((lo - pad <= p) & (p <= hi + pad))
        d = np.where(along, 1.0, d)
        ta, tb = (lo - p) / d, (hi - p) / d
        ta, tb = np.where(ta > tb, tb, ta), np.where(ta > tb, ta, tb)
        t0 = np.where(~along & (ta > t0), ta, t0)
        t1 = np.where(~along & (tb < t1), tb, t1)
    return hit & ~((t0 > t1) if closed else (t0 >= t1)), t0, t1


def _lines_in_box(lines: list[Line], box):
    """Whether each line crosses the box (an object with xmin, ymin, xmax
    and ymax) rather than missing or only touching it, and the (n, 4) end
    points x0, y0, x1, y1 of its part inside, which mean nothing on a miss."""
    rows = np.array([(ln.p.x, ln.p.y, *ln.direction()) for ln in lines], dtype=float).reshape(-1, 4)
    px, py, dx, dy = rows.T
    hit, t0, t1 = _slab_clip(px, py, dx, dy, -math.inf, math.inf, box.xmin, box.ymin, box.xmax, box.ymax, False)
    return hit, np.column_stack([px + t0 * dx, py + t0 * dy, px + t1 * dx, py + t1 * dy])


# ---------------------------------------------------------------------------
# Perimeter coordinates on the unit square / unit circle boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerimeterCoord:
    """Arc-length coordinate along the boundary of a unit shape.

    s = 0 sits at the bottom-left corner (square) or at the angle-0 point
    (circle) and increases counterclockwise; 0 <= s < perimeter.
    """

    shape: str
    center: Point
    s: float

    def __post_init__(self) -> None:
        if self.shape not in (SQUARE, CIRCLE):
            raise ValueError(f"unknown shape {self.shape!r}")
        if not (0.0 <= self.s < self.perimeter + EPS_GEOM):
            raise ValueError(f"perimeter coordinate {self.s} out of range")

    @property
    def perimeter(self) -> float:
        return SQUARE_PERIMETER if self.shape == SQUARE else CIRCLE_PERIMETER


def shape_perimeter(shape: str) -> float:
    if shape == SQUARE:
        return SQUARE_PERIMETER
    if shape == CIRCLE:
        return CIRCLE_PERIMETER
    raise ValueError(f"unknown shape {shape!r}")


def square_corners(center: Point) -> list[Point]:
    """Corners of the unit square in CCW order starting at bottom-left."""
    cx, cy = center.x, center.y
    return [
        Point(cx - 0.5, cy - 0.5),
        Point(cx + 0.5, cy - 0.5),
        Point(cx + 0.5, cy + 0.5),
        Point(cx - 0.5, cy + 0.5),
    ]


def perimeter_point(coord: PerimeterCoord) -> Point:
    """Boundary point at a perimeter coordinate (inverse of perimeter_coordinate)."""
    cx, cy = coord.center.x, coord.center.y
    s = coord.s % coord.perimeter
    if coord.shape == CIRCLE:
        return Point(cx + math.cos(s), cy + math.sin(s))
    side, frac = int(s), s - int(s)
    if side == 0:  # bottom, left to right
        return Point(cx - 0.5 + frac, cy - 0.5)
    if side == 1:  # right, bottom to top
        return Point(cx + 0.5, cy - 0.5 + frac)
    if side == 2:  # top, right to left
        return Point(cx + 0.5 - frac, cy + 0.5)
    return Point(cx - 0.5, cy + 0.5 - frac)  # left, top to bottom


def perimeter_coordinate(shape: str, center: Point, boundary_point: Point) -> PerimeterCoord:
    """Perimeter coordinate of a point that lies on the shape boundary.

    Raises NotOnBoundary when the point is farther than EPS_GEOM from it.
    """
    dx = boundary_point.x - center.x
    dy = boundary_point.y - center.y
    if shape == CIRCLE:
        r = math.hypot(dx, dy)
        if abs(r - 1.0) > EPS_GEOM:
            raise NotOnBoundary(f"point {boundary_point} not on unit circle")
        s = math.atan2(dy, dx) % CIRCLE_PERIMETER
        return PerimeterCoord(CIRCLE, center, min(s, CIRCLE_PERIMETER - PERIMETER_END))
    if shape != SQUARE:
        raise ValueError(f"unknown shape {shape!r}")
    s, on = _square_perimeter_s(np.float64(dx), np.float64(dy))
    if not on:
        raise NotOnBoundary(f"point {boundary_point} not on unit square")
    return PerimeterCoord(SQUARE, center, float(s))


def _square_perimeter_s(dx, dy):
    """The square's perimeter coordinates of offsets (dx, dy) from the center,
    elementwise over arrays, and whether each offset is on the boundary
    (within EPS_GEOM); the coordinate of an offset off it means nothing."""
    g = EPS_GEOM
    on = ~(
        (np.maximum(abs(dx), abs(dy)) - 0.5 > g)
        | ((abs(abs(dx) - 0.5) > g) & (abs(abs(dy) - 0.5) > g))
    )
    # Pick the side whose coordinate is pinned at +-0.5, bottom, right, top
    # and left in turn; corners may take either incident side, the
    # coordinate is the same after wrapping.
    s = np.select(
        [
            (abs(dy + 0.5) <= g) & (dx < 0.5 - g),
            (abs(dx - 0.5) <= g) & (dy < 0.5 - g),
            abs(dy - 0.5) <= g,
        ],
        [0.0 + (dx + 0.5), 1.0 + (dy + 0.5), 2.0 + (0.5 - dx)],
        3.0 + (0.5 - dy),
    )
    # numpy's % wraps as Python's does, so s is never -0.0 here
    s = np.minimum(s % SQUARE_PERIMETER, SQUARE_PERIMETER - PERIMETER_END)
    return s, on

