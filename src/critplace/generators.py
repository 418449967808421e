"""Deterministic instance generators: worst-case line grids, random lines in
general position, and synthetic trajectory crossings."""

from __future__ import annotations

import math

import numpy as np

from .arrangement import BBox, _line_pairs
from .geom import Line, Point, Polyline

# Consecutive same-family lines sit 1.39*eps apart: interior grid cells then
# have diameter just under 2*eps (tilts stretch the diagonals slightly past
# spacing*sqrt(2)), inside the required [eps/2, 2*eps] band and never exactly
# eps wide.  The top of the band maximizes the grid extent, which is what
# keeps the quadratic crossing regime alive at small n*eps.
GRID_SPACING_FACTOR = 1.39
# Tolerances of the general-position audit, each with its reason.
# Lines whose unit normals have a cross product this small are parallel.
AUDIT_PARALLEL = 1e-9
# random_lines draws again at this stricter cut, so that its scenes hold no near-parallel pair.
RANDOM_PARALLEL = 1e-6
# Crossings this close in both coordinates are one point: three lines meet.
CONCURRENT_TOL = 1e-7


def lower_bound_lines(n: int, eps: float, tilt: float = 0.005) -> list[Line]:
    """Near-grid of n lines whose placement space has quadratic complexity.

    n/2 near-horizontal and n/2 near-vertical lines, each tilted by a small
    per-index varying angle (alternating sign, drifting magnitude) so that no
    two lines are parallel and no three concurrent.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("need an even number of lines, at least 4")
    if not (0.0 < eps < 1.0):
        raise ValueError("granularity must be in (0, 1)")
    if not (0.0 < tilt <= 0.01):
        raise ValueError("tilt must be in (0, 0.01] radians")
    m = n // 2
    spacing = GRID_SPACING_FACTOR * eps
    lines: list[Line] = []
    for i in range(m):
        ang = tilt * (1.0 + 0.37 * (i + 1) / m) * (1.0 if i % 2 == 0 else -1.0)
        c = (i - (m - 1) / 2.0) * spacing
        slope = math.tan(ang)
        lines.append(Line(Point(-1.0, c - slope), Point(1.0, c + slope)))
    for i in range(m):
        ang = tilt * (1.0 + 0.61 * (i + 1) / m) * (1.0 if i % 2 == 0 else -1.0)
        c = (i - (m - 1) / 2.0) * spacing
        slope = math.tan(ang)
        lines.append(Line(Point(c - slope, -1.0), Point(c + slope, 1.0)))
    _audit_general_position(lines)
    return lines


def _near_neighbour(pts: np.ndarray, at: np.ndarray) -> bool:
    """Whether a crossing at one of the indices `at` of the sorted crossings
    (x + iy: complex numbers sort by x, then y) lies within CONCURRENT_TOL
    in both coordinates of the crossing before or after it."""
    step = np.concatenate([at, at + 1])
    step = step[(step > 0) & (step < len(pts))]
    d = pts[step] - pts[step - 1]
    return bool(((np.abs(d.real) <= CONCURRENT_TOL) & (np.abs(d.imag) <= CONCURRENT_TOL)).any())


def _audit_general_position(lines: list[Line]) -> None:
    i, j, det, x, y = _line_pairs(lines, 0)
    parallel = np.flatnonzero(np.abs(det) <= AUDIT_PARALLEL)
    if parallel.size:
        raise ValueError(f"lines {i[parallel[0]]} and {j[parallel[0]]} are parallel")
    pts = np.sort(x + 1j * y)
    if _near_neighbour(pts, np.arange(len(pts))):
        raise ValueError("three lines are (nearly) concurrent")


def random_lines(n: int, seed: int, bbox: BBox | None = None) -> list[Line]:
    """n random lines in general position, deterministic per seed: the
    audit of the accepted lines and a candidate can only fail next to the
    candidate's crossings, so only their neighbours are checked."""
    if bbox is None:
        bbox = BBox(-1.0, -1.0, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    lines: list[Line] = []
    pts = np.empty(0, dtype=complex)  # the accepted lines' crossings, sorted
    guard = 0
    while len(lines) < n:
        guard += 1
        if guard > 100 * (n + 1):
            raise RuntimeError("could not reach general position")
        x0, y0, x1, y1 = (
            rng.uniform(bbox.xmin, bbox.xmax),
            rng.uniform(bbox.ymin, bbox.ymax),
            rng.uniform(bbox.xmin, bbox.xmax),
            rng.uniform(bbox.ymin, bbox.ymax),
        )
        if math.hypot(x1 - x0, y1 - y0) < 0.1 * max(bbox.width, bbox.height):
            continue
        cand = Line(Point(x0, y0), Point(x1, y1))
        _i, _j, det, x, y = _line_pairs(lines + [cand], len(lines))
        if (np.abs(det) <= RANDOM_PARALLEL).any():
            continue
        new = np.sort(x + 1j * y)
        at = np.searchsorted(pts, new)
        merged = np.insert(pts, at, new)
        if _near_neighbour(merged, at + np.arange(len(new))):
            continue
        lines.append(cand)
        pts = merged
    return lines


def cross_trajectories(
    arms: int, per_arm: int = 1, jitter: float = 0.0, seed: int = 0,
    center: Point = Point(0.0, 0.0), reach: float = 2.5,
) -> list[Polyline]:
    """Trajectory bundles passing through a common center.

    Even arm counts pair opposite arms into straight-through traffic (a
    crossing); odd counts route each arm to its neighbor (a real junction).
    Lateral jitter offsets each trajectory within its bundle.
    """
    if not (2 <= arms <= 8):
        raise ValueError("arms must be between 2 and 8")
    rng = np.random.default_rng(seed)
    dirs = [
        (math.cos(2.0 * math.pi * j / arms), math.sin(2.0 * math.pi * j / arms))
        for j in range(arms)
    ]
    out: list[Polyline] = []
    if arms % 2 == 0:
        routes = [(j, j + arms // 2) for j in range(arms // 2)]
    else:
        routes = [(j, (j + 1) % arms) for j in range(arms)]
    for j_from, j_to in routes:
        ux, uy = dirs[j_from]
        vx, vy = dirs[j_to]
        wx, wy = -uy, ux
        for k in range(per_arm):
            off = float(rng.uniform(-jitter, jitter)) if jitter > 0.0 else 0.0
            start = Point(center.x + reach * ux + off * wx, center.y + reach * uy + off * wy)
            mid = Point(center.x + off * wx, center.y + off * wy)
            end = Point(center.x + reach * vx + off * (-vy), center.y + reach * vy + off * vx)
            out.append(
                Polyline(f"arm{j_from}to{j_to}_{k}", (start, mid, end))
            )
    return out
