"""Scalar geometric primitives, tolerance policy, and perimeter coordinates.

Everything here is an immutable value; all operations are pure functions.
Coordinates are plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQUARE = "square"
CIRCLE = "circle"

# Unit shapes: square of side 1, circle of radius 1.
SQUARE_PERIMETER = 4.0
CIRCLE_PERIMETER = 2.0 * math.pi


class GeometryError(Exception):
    """Base class for geometric failures."""


class NotOnBoundary(GeometryError):
    pass


@dataclass(frozen=True)
class ToleranceConfig:
    """Two-level tolerance policy.

    eps_geom decides coincidence questions (is a point on a line, are two
    lines parallel); eps_verify is the looser budget used when checking
    computed curves against the brute-force oracle.  Any clustering
    granularity in use must stay well above eps_verify.
    """

    eps_geom: float = 1e-9
    eps_verify: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_geom < self.eps_verify):
            raise ValueError("need 0 < eps_geom < eps_verify")


TOL = ToleranceConfig()


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
        if norm <= TOL.eps_geom:
            raise ValueError("anchor points of a line must be distinct")
        a = -dy / norm
        b = dx / norm
        c = a * self.p.x + b * self.p.y
        # Leading nonzero coefficient positive; a counts as zero within tolerance.
        if a < -TOL.eps_geom or (abs(a) <= TOL.eps_geom and b < 0.0):
            a, b, c = -a, -b, -c
        if abs(a) <= TOL.eps_geom:
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
        """Canonical coefficients equal within eps_geom."""
        tol = TOL.eps_geom
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
        if self.p.dist(self.q) <= TOL.eps_geom:
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
            if u.dist(v) <= TOL.eps_geom:
                raise ValueError("consecutive polyline vertices must be distinct")

    def edges(self) -> list[tuple[Point, Point]]:
        return list(zip(self.vertices, self.vertices[1:]))


def _slab_clip(
    px: float, py: float, dx: float, dy: float, t0: float, t1: float,
    xmin: float, ymin: float, xmax: float, ymax: float, closed: bool = False,
) -> tuple[float, float] | None:
    """Liang-Barsky: the part [t0', t1'] of p + t*d, t in [t0, t1], inside the box.

    By default a zero-length part counts as a miss and an axis-parallel
    direction must lie within the bounds.  closed=True treats the box as
    closed: a touch gives a zero-length interval and axis-parallel runs
    within 1e-12 outside the bounds count as inside.
    """
    # unrolled over the two axes: junction detection calls this for every
    # trajectory edge at every grid point
    pad = 1e-12 if closed else 0.0
    if abs(dx) <= 1e-15:
        if not (xmin - pad <= px <= xmax + pad):
            return None
    else:
        ta, tb = (xmin - px) / dx, (xmax - px) / dx
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
    if abs(dy) <= 1e-15:
        if not (ymin - pad <= py <= ymax + pad):
            return None
    else:
        ta, tb = (ymin - py) / dy, (ymax - py) / dy
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
    if t0 > t1 or (t0 == t1 and not closed):
        return None
    return (t0, t1)


def _line_in_box(
    line: Line, xmin: float, ymin: float, xmax: float, ymax: float
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """End points of the line's part inside the box; None when the line
    misses the box or only touches it."""
    dx, dy = line.direction()
    px, py = line.p.x, line.p.y
    clip = _slab_clip(px, py, dx, dy, -math.inf, math.inf, xmin, ymin, xmax, ymax)
    if clip is None:
        return None
    t0, t1 = clip
    return ((px + t0 * dx, py + t0 * dy), (px + t1 * dx, py + t1 * dy))


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
        if not (0.0 <= self.s < self.perimeter + TOL.eps_geom):
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

    Raises NotOnBoundary when the point is farther than eps_geom from it.
    """
    dx = boundary_point.x - center.x
    dy = boundary_point.y - center.y
    if shape == CIRCLE:
        r = math.hypot(dx, dy)
        if abs(r - 1.0) > TOL.eps_geom:
            raise NotOnBoundary(f"point {boundary_point} not on unit circle")
        s = math.atan2(dy, dx) % CIRCLE_PERIMETER
        return PerimeterCoord(CIRCLE, center, min(s, CIRCLE_PERIMETER - 1e-15))
    if shape != SQUARE:
        raise ValueError(f"unknown shape {shape!r}")
    if max(abs(dx), abs(dy)) - 0.5 > TOL.eps_geom or (
        abs(abs(dx) - 0.5) > TOL.eps_geom and abs(abs(dy) - 0.5) > TOL.eps_geom
    ):
        raise NotOnBoundary(f"point {boundary_point} not on unit square")
    # Pick the side whose coordinate is pinned at +-0.5; corners may take
    # either incident side, the coordinate is the same after wrapping.
    if abs(dy + 0.5) <= TOL.eps_geom and dx < 0.5 - TOL.eps_geom:
        s = 0.0 + (dx + 0.5)
    elif abs(dx - 0.5) <= TOL.eps_geom and dy < 0.5 - TOL.eps_geom:
        s = 1.0 + (dy + 0.5)
    elif abs(dy - 0.5) <= TOL.eps_geom:
        s = 2.0 + (0.5 - dx)
    else:
        s = 3.0 + (0.5 - dy)
    s %= SQUARE_PERIMETER
    return PerimeterCoord(SQUARE, center, min(max(s, 0.0), SQUARE_PERIMETER - 1e-15))

