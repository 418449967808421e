"""Critical placement curves of the unit square, and their overlay.

A placement is critical when some connected piece of the shape boundary
between crossings with the input has length exactly the clustering
granularity.  Each fixed boundary point tau (spaced at most a granularity
apart, square corners always included) owns the placements whose critical
piece contains it; per arrangement cell those placements form short chains:

* corner points: the level set of the summed horizontal+vertical wall
  distances, a piecewise-linear convex chain inside the cell,
* side points: axis-aligned windows at the heights/abscissas where the cell
  cross-section is exactly the granularity wide.

The overlay of all chains (optionally together with the corner-contact
translates of the input) is the placement arrangement whose size is the
complexity the scaling experiments measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrangement import (
    KERNEL_CHUNK,
    Arrangement,
    BBox,
    _chunks,
    _first_wall_hits,
    _frame_walls,
    _segment_crossings,
    _snap_merge,
    _split_pieces,
    bbox_of_points,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    distinct_lines,
)
from .geom import (
    CIRCLE,
    SQUARE,
    GeometryError,
    Line,
    PerimeterCoord,
    Point,
    Segment,
    _lines_in_box,
    _slab_clip,
    perimeter_point,
    shape_perimeter,
    square_corners,
)
from .oracle import contact_holds, witnessed

SQRT2 = math.sqrt(2.0)

# Tolerances, each with its reason.
# Points this close in both coordinates are one, and pieces that come this
# close meet: overlay vertices, family crossings and chain ends,
# each merged by `_snap_merge`.
VERTEX_SNAP = 1e-7
# A chain turn whose cross product (relative to steps of at least 1) is
# below this is no turn: the chain runs straight on.
COLLINEAR_TOL = 1e-9
# Of the arc-arc kernel:
# One arc substituted into the other's implicit form with every coefficient
# below this share of their scale lies within about 1e-9 of that ellipse,
# far under VERTEX_SNAP: the two arcs share one ellipse.
SAME_ELLIPSE_RTOL = 1e-9
# A crossing may lie this far (in radians) outside an arc's parameter range,
# the slack the segment kernels allow along their own parameter.
ARC_PARAM_SLACK = 1e-9
# Longest parameter stretch solved as one quartic in tan(phi/2): within one
# radian |t| <= tan(1/4), where the substitution is well conditioned.
ARC_CHUNK = 1.0
# Bisection halvings of a root bracket: from |t| <= tan(1/4) this reaches
# the spacing of doubles near 1.
ROOT_BISECTIONS = 52
# A sinusoid whose peak comes this close to zero, relative to its offset,
# touches zero (a circle curve ending on a tangency): its double root is the
# peak, where rounding would split it into two roots about 1e-8 apart or none.
TOUCH_TOL = 1e-12
# Of the square's per-cell curves:
# Profile breaks this close are one, and a strip reaches this far past its ends.
BREAK_TOL = 1e-12
# A polygon vertex this close to a clip or level line lies on it.
SIDE_TOL = 1e-12
# A wall-line coefficient this small along a ray's axis: the wall runs along
# the ray and bounds no distance.
AXIS_TOL = 1e-12
# A hit this close to the ray's origin is its own start, not a wall ahead.
RAY_START = 1e-12
# A ray passing this far (in wall parameter) past a wall's end still hits it.
RAY_WALL_SLACK = 1e-9
# A chain step, side window or level segment (relative) this short is a point.
MIN_STEP = 1e-12
# A cross-section width whose slope is this small is constant.
FLAT_SLOPE = 1e-12
# A constant cross-section this close to eps is a degenerate strip.
STRIP_WIDTH_TOL = 1e-9
# Of the vector sets:
# A perimeter coordinate this far past a whole side is still its corner.
CORNER_S_TOL = 1e-12
# A side (or the circle) this much longer than a whole number of eps steps
# takes no extra vector: the spacing may pass eps by this much.
SPACING_SLACK = 1e-12
# Of clipping curves to the domain and of the arc kernels:
# An arc stretch between box crossings this short (in radians) is a point.
MIN_ARC_STEP = 1e-12
# A sinusoid whose amplitude is this small is flat and has no roots.
FLAT_AMPLITUDE = 1e-15
# A sinusoid root this far (in radians) outside the range asked for is its end.
ROOT_RANGE_SLACK = 1e-12
# Bounding boxes this far apart are still tried: the margin covers the
# rounding of an arc's extremal points.
BOX_MEET_SLACK = 1e-9
# A segment-arc crossing this far (in segment parameter) past a segment end
# is on it, the slack ARC_PARAM_SLACK allows along the arc.
SEG_PARAM_SLACK = 1e-9
# An arc whose axes have a cross product this small is flat: it runs to and
# fro along one line and has no implicit form.
FLAT_ARC_DET = 1e-15


class EpsilonTooLarge(GeometryError):
    pass


def _check_eps(eps: float, shape: str) -> None:
    """The clustering granularity must be positive and below a quarter perimeter."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("granularity must be positive and finite")
    if eps >= shape_perimeter(shape) / 4.0:
        raise ValueError(
            f"granularity {eps} too large for {shape} (needs < perimeter/4)"
        )


@dataclass(frozen=True)
class TranslationVector:
    """Offset from the shape center to one fixed boundary point."""

    dx: float
    dy: float
    kind: str  # "corner" | "edge" | "angular"
    label: str  # corner/side name for squares, angle index for circles
    s: float  # perimeter coordinate of the boundary point


@dataclass(frozen=True)
class TranslationVectorSet:
    shape: str
    eps: float
    vectors: tuple[TranslationVector, ...]


_CORNER_LABELS = {0.0: "bl", 1.0: "br", 2.0: "tr", 3.0: "tl"}
_SIDE_OF_S = ("bottom", "right", "top", "left")
_ORIGIN = Point(0.0, 0.0)


def _square_vector_at(s: float) -> TranslationVector:
    side = int(s % 4.0)
    frac = (s % 4.0) - side
    if frac <= CORNER_S_TOL:
        c = perimeter_point(PerimeterCoord(SQUARE, _ORIGIN, float(side)))
        return TranslationVector(c.x, c.y, "corner", _CORNER_LABELS[float(side)], float(side))
    c = perimeter_point(PerimeterCoord(SQUARE, _ORIGIN, s))
    return TranslationVector(c.x, c.y, "edge", _SIDE_OF_S[side], s)


def translation_vectors(shape: str, eps) -> TranslationVectorSet:
    """Fixed boundary points spaced at most eps apart along the perimeter.

    Square corners are always included; on each square side the spacing is
    uniform with ceil(side/eps) intervals, so any boundary arc of length eps
    contains one or two of the points.
    """
    e = float(eps)
    _check_eps(e, shape)
    vectors: list[TranslationVector] = []
    if shape == SQUARE:
        per_side = max(1, math.ceil((1.0 - SPACING_SLACK) / e))
        for side in range(4):
            for k in range(per_side):
                vectors.append(_square_vector_at(side + k / per_side))
    elif shape == CIRCLE:
        m = max(4, math.ceil((2.0 * math.pi - SPACING_SLACK) / e))
        for k in range(m):
            theta = 2.0 * math.pi * k / m
            vectors.append(
                TranslationVector(math.cos(theta), math.sin(theta), "angular", str(k), theta)
            )
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return TranslationVectorSet(shape, e, tuple(vectors))


# ---------------------------------------------------------------------------
# curve pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePiece:
    """Straight segment or elliptic arc in placement (center) space.

    Arcs are parametrized as center + sin(psi)*vec_a + cos(psi)*vec_b over
    psi in [psi0, psi1].
    """

    kind: str  # "seg" | "arc"
    p0: tuple[float, float] | None = None
    p1: tuple[float, float] | None = None
    center: tuple[float, float] | None = None
    vec_a: tuple[float, float] | None = None
    vec_b: tuple[float, float] | None = None
    psi0: float = 0.0
    psi1: float = 0.0

    def arc_point(self, psi: float) -> tuple[float, float]:
        sa, ca = math.sin(psi), math.cos(psi)
        return (
            self.center[0] + sa * self.vec_a[0] + ca * self.vec_b[0],
            self.center[1] + sa * self.vec_a[1] + ca * self.vec_b[1],
        )

    def endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.kind == "seg":
            return (self.p0, self.p1)
        return (self.arc_point(self.psi0), self.arc_point(self.psi1))

    def length(self) -> float:
        if self.kind == "seg":
            return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])
        pts = self.sample(24)
        return float(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1])).sum())

    def sample(self, n: int, inset: float = 0.0) -> np.ndarray:
        """n points along the piece; inset > 0 keeps off the exact endpoints,
        which are degenerate placements (a corner just touching a wall)."""
        n = max(2, n)
        if self.kind == "seg":
            t = np.linspace(inset, 1.0 - inset, n)
            return np.column_stack(
                (
                    self.p0[0] + t * (self.p1[0] - self.p0[0]),
                    self.p0[1] + t * (self.p1[1] - self.p0[1]),
                )
            )
        lo = self.psi0 + inset * (self.psi1 - self.psi0)
        hi = self.psi1 - inset * (self.psi1 - self.psi0)
        psi = np.linspace(lo, hi, n)
        return np.column_stack(
            (
                self.center[0] + np.sin(psi) * self.vec_a[0] + np.cos(psi) * self.vec_b[0],
                self.center[1] + np.sin(psi) * self.vec_a[1] + np.cos(psi) * self.vec_b[1],
            )
        )


def seg_piece(x0: float, y0: float, x1: float, y1: float) -> CurvePiece:
    return CurvePiece("seg", p0=(x0, y0), p1=(x1, y1))


@dataclass
class CriticalCurve:
    """One connected chain of critical placements owned by (cell, vector)."""

    cell_id: int
    vector: TranslationVector | None
    pieces: list[CurvePiece]
    convex_flag: bool = True
    kind: str = "gap"  # "gap" | "contact"


@dataclass
class DegenerateStrip:
    """Cell stretch whose cross-section equals the granularity everywhere."""

    cell_id: int
    orientation: str  # "horizontal" | "vertical"
    lo: float
    hi: float


_QUADRANT_LOOK = {
    "upper_right": (-1.0, -1.0),
    "upper_left": (1.0, -1.0),
    "lower_left": (1.0, 1.0),
    "lower_right": (-1.0, 1.0),
}

_CORNER_QUADRANT = {"tr": "upper_right", "tl": "upper_left", "bl": "lower_left", "br": "lower_right"}


# ---------------------------------------------------------------------------
# the square's batched kernel: the strip table and corner level segments
# ---------------------------------------------------------------------------

# the steps of a strip's two rays, the one looking back first: a strip of x
# (axis 0) looks down and up, a strip of y (axis 1) left and right
_RAY_STEP = np.array([[(0.0, -1.0), (0.0, 1.0)], [(-1.0, 0.0), (1.0, 0.0)]])


@dataclass
class _Regions:
    """The convex regions of a build's cells, and their strip table.

    The region arrays run over all regions, cell by cell: `cell_of` holds
    each region's index into `cells`, `poly` its polygon padded with zeros,
    `count` its vertices.  Each row of the strip arrays is a strip of a
    region with a cross-section, in region, axis (y first), then strip
    order: its region, its axis (1: a strip of y, whose rays look left and
    right; 0: a strip of x, whose rays look down and up), its (lo, hi), and
    the lines a*x + b*y = c of the first walls its two rays meet, (n, 2, 3),
    nan where a ray meets no wall or the clip frame."""

    cells: list[int]
    cell_of: np.ndarray
    poly: np.ndarray
    count: np.ndarray
    strip_region: np.ndarray
    strip_axis: np.ndarray
    strip_bounds: np.ndarray
    strip_walls: np.ndarray


def _pad(polys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Polygons as one (n, m, 2) array padded with zeros, and their vertex counts."""
    count = np.array([len(p) for p in polys], dtype=np.int64)
    pts = np.zeros((len(polys), int(count.max(initial=0)), 2))
    pts[np.arange(pts.shape[1]) < count[:, None]] = np.concatenate([np.zeros((0, 2)), *polys])
    return pts, count


def _after(a: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per-slot values of padded polygons, (n, m, ...), each moved to the slot
    of the vertex before it: at every vertex, the next vertex's value."""
    b = np.empty_like(a)
    b[:, :-1] = a[:, 1:]
    b[:, -1] = a[:, 0]
    b[np.arange(len(a)), count - 1] = a[:, 0]
    return b


def _side_points(pts: np.ndarray, count: np.ndarray, f: np.ndarray, at_vertex: np.ndarray):
    """The points a clip of padded convex polygons by f (given at each vertex
    slot) lists, in its order: each vertex, kept where `at_vertex`, then the
    point where its side meets f = 0, kept where f changes sign along the
    side by more than SIDE_TOL at both ends.  Returns (n, 2m, 2) points and
    the (n, 2m) mask of those kept."""
    n, m = f.shape
    valid = np.arange(m) < count[:, None]
    fb = _after(f, count)
    cross = valid & (np.minimum(f, fb) < -SIDE_TOL) & (np.maximum(f, fb) > SIDE_TOL)
    # other slots divide by 1: padding holds zeros, so nothing is inf or nan
    t = f / np.where(cross, f - fb, 1.0)
    out = np.empty((n, m, 2, 2))
    out[:, :, 0] = pts
    out[:, :, 1] = pts + t[..., None] * (_after(pts, count) - pts)
    keep = np.empty((n, m, 2), dtype=bool)
    keep[:, :, 0], keep[:, :, 1] = valid & at_vertex, cross
    return out.reshape(n, 2 * m, 2), keep.reshape(n, 2 * m)


def _compact(pts: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's kept points, (n, k, 2) with an (n, k) mask, moved to its
    front in order: a padded polygon and its count, empty below three.  The
    padding keeps one slot at least, so that a row's min and max exist."""
    count = keep.sum(axis=1)
    count[count < 3] = 0
    out = np.zeros((len(keep), max(1, int(count.max(initial=0))), 2))
    out[np.arange(out.shape[1]) < count[:, None]] = pts[keep & (count > 0)[:, None]]
    return out, count


def _clip_slab(pts, count, axis: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of padded convex polygons, row i to the slab
    lo[i] <= coordinate `axis` <= hi[i], one side of it at a time."""
    k = pts[..., axis] - lo[:, None]
    pts, count = _compact(*_side_points(pts, count, k, k >= -SIDE_TOL))
    k = hi[:, None] - pts[..., axis]
    return _compact(*_side_points(pts, count, k, k >= -SIDE_TOL))


def _level_ends(pts, count, P, Q, R, level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip of the line P[i]*x + Q[i]*y + R[i] = level to padded convex
    polygon i: the mask of rows where it is a segment, and its two ends.

    The ends are the points of least and greatest projection x * -Q + y * P,
    the first of equal ones in the order the polygon's sides find them.
    The projection is two rounded products and a sum, never a matrix
    product: one may go through BLAS, whose kernel (and rounding) depends
    on the machine, and the projection picks the ends that are kept."""
    P, Q, R = P[:, None], Q[:, None], R[:, None]
    g = P * pts[..., 0] + Q * pts[..., 1] + R - level
    cand, found = _side_points(pts, count, g, np.abs(g) <= SIDE_TOL)
    proj = cand[..., 0] * -Q + cand[..., 1] * P
    rows = np.arange(len(pts))
    i0 = np.argmin(np.where(found, proj, np.inf), axis=1)
    i1 = np.argmax(np.where(found, proj, -np.inf), axis=1)
    two = found.sum(axis=1) >= 2
    p0, p1 = np.where(two, proj[rows, i0], 0.0), np.where(two, proj[rows, i1], 0.0)
    ok = two & (p1 - p0 > MIN_STEP * np.maximum(1.0, np.abs(p0)))
    return ok, cand[rows, i0], cand[rows, i1]


def _strip_breaks(poly: np.ndarray, axis: int, ends: np.ndarray, rounded: np.ndarray) -> list[float]:
    """A region's strip breaks along `axis`: its vertices' coordinates and
    the wall ends (`ends`, and `rounded` to 12 digits) strictly inside its
    extent, rounded to 12 digits and sorted.  The vertices take Python's
    decimal rounding and the wall ends numpy's, which differs from it in
    rare last digits; each keeps its own, so that the strips stay as they
    have been."""
    vals = sorted(set(poly[:, axis].tolist()))
    breaks = {round(v, 12) for v in vals}
    breaks.update(rounded[(vals[0] + BREAK_TOL < ends) & (ends < vals[-1] - BREAK_TOL)].tolist())
    return sorted(breaks)


def _section_middles(pts, count, axis: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the cross-section of padded convex polygon i at coordinate
    axis[i] == value[i] is an interval, and its middle."""
    valid = np.arange(pts.shape[1]) < count[:, None]
    along = (axis == 1)[:, None]
    va = np.where(along, pts[..., 1], pts[..., 0])
    oa = np.where(along, pts[..., 0], pts[..., 1])
    vb, ob = _after(va, count), _after(oa, count)
    v = value[:, None]
    cross = valid & ((va > v) != (vb > v))
    hit = oa + (v - va) / np.where(cross, vb - va, 1.0) * (ob - oa)
    span = cross.sum(axis=1) >= 2
    lo = np.where(span, np.where(cross, hit, np.inf).min(axis=1), 0.0)
    hi = np.where(span, np.where(cross, hit, -np.inf).max(axis=1), 0.0)
    return span, 0.5 * (lo + hi)


def cell_regions(arrangement: Arrangement, cell_ids: list[int]) -> _Regions:
    """The convex regions of the given cells, and their strip table.

    A region's strips cut its extent across the rays at its vertices and at
    the wall ends inside it; from the middle of each strip's cross-section
    two rays find the first walls.  The rays of one cell's regions are cast
    in one `_first_wall_hits` call, and each wall hit has its `Line` built
    once."""
    cell_of, polys, walls, breaks, sizes = [], [], [], [], []
    for k, cell_id in enumerate(cell_ids):
        cell = arrangement.cells[cell_id]
        cell_walls = arrangement.cell_walls(cell_id)
        ends = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _tag in cell_walls], dtype=float)
        walls.append((cell_walls, ends))
        if arrangement.kind == "lines" or (cell.convex and not cell.holes):
            cell_polys = [arrangement.cell_polygon(cell_id)]
        else:
            cell_polys = [s.polygon for s in convex_decompose(cell, arrangement)]
        cell_of += [k] * len(cell_polys)
        along = {axis: (ends[:, cols].ravel(), np.round(ends[:, cols].ravel(), 12))
                 for axis, cols in ((1, [1, 3]), (0, [0, 2]))}
        for poly in cell_polys:
            # group 2r holds region r's breaks in y, 2r + 1 those in x
            for axis in (1, 0):
                found = _strip_breaks(poly, axis, *along[axis])
                breaks += found
                sizes.append(len(found))
            polys.append(poly)
    cell_of = np.array(cell_of, dtype=np.int64)
    pts, count = _pad(polys)

    # strips: consecutive breaks of a group more than BREAK_TOL apart, kept
    # where the region has a cross-section at their middle
    values, group = np.array(breaks, dtype=float), np.repeat(np.arange(len(sizes)), sizes)
    i = np.flatnonzero((group[:-1] == group[1:]) & (values[1:] - values[:-1] > BREAK_TOL))
    lo, hi, region, axis = values[i], values[i + 1], group[i] // 2, 1 - group[i] % 2
    mid = 0.5 * (lo + hi)
    span, middle = np.zeros(len(i), dtype=bool), np.zeros(len(i))
    for s in _chunks(len(i), pts.shape[1]):
        span[s], middle[s] = _section_middles(pts[region[s]], count[region[s]], axis[s], mid[s])
    lo, hi, region, axis, mid, middle = (x[span] for x in (lo, hi, region, axis, mid, middle))
    origin = np.where((axis == 1)[:, None], np.column_stack([middle, mid]), np.column_stack([mid, middle]))

    # rays: each strip's two, in row order, one call per cell
    line = np.full((len(region), 2, 3), np.nan)
    cut = np.searchsorted(cell_of[region], np.arange(len(walls) + 1))
    for k, (cell_walls, ends) in enumerate(walls):
        s = slice(cut[k], cut[k + 1])
        steps = _RAY_STEP[axis[s]].reshape(-1, 2)
        hit, _t = _first_wall_hits(np.repeat(origin[s], 2, axis=0), steps, ends, RAY_START, RAY_WALL_SLACK)
        # each hit wall's line, once; the last row, nan, for no wall
        wall_line = np.full((len(ends) + 1, 3), np.nan)
        for w in set(hit.tolist()) - {-1}:
            if cell_walls[w][2][0] != "clip":
                ln = Line(cell_walls[w][0], cell_walls[w][1])
                wall_line[w] = (ln.a, ln.b, ln.c)
        line[s] = wall_line[hit].reshape(-1, 2, 3)
    return _Regions(list(cell_ids), cell_of, pts, count, region, axis, np.column_stack([lo, hi]), line)


def _corner_level_segments(regions: _Regions, eps: float):
    """Exact level-set segments of the distance sums of the four corners in
    every region.

    A band is a region clipped to the y-range of one of its strips of y,
    and a piece is a band clipped to the x-range of one of the region's
    strips of x: in a piece the four wall distances are linear.  A corner's
    level line is cut from every piece whose two walls on that corner's
    sides run across their rays.  A strip of x more than BREAK_TOL past the
    band's x-range would clip it to nothing and is skipped, and so is a
    pair with no such corner.  The bands are clipped first, in chunks of at
    most KERNEL_CHUNK region vertex slots; the pairs left are then cut into
    chunks whose level rows, times the widest piece among them (its band's
    vertices and the two an x-slab clip can add), hold at most KERNEL_CHUNK
    vertex slots.  Returns the segments' ends, (n, 2, 2), and each one's
    region and corner, numbered 2 * (looks right) + (looks up); one
    corner's segments run in region, band, then strip of x order."""
    axis, bounds, line = regions.strip_axis, regions.strip_bounds, regions.strip_walls
    look = np.array([-1.0, 1.0])
    # a wall distance x - x_wall(y) looking left, y - y_wall(x) looking down,
    # and their negatives looking right or up: P*x + Q*y + R, per row and ray,
    # P = -look for a strip of y and Q = -look for a strip of x; a wall along
    # the ray (or none, nan) bounds no distance, and a strip with neither
    # ray bounded takes no part
    h = np.flatnonzero(axis == 1)
    h = h[(np.abs(line[h, :, 0]) > AXIS_TOL).any(axis=1)]
    a, b, c = line[h].transpose(2, 0, 1)
    h_ok = np.abs(a) > AXIS_TOL
    a = np.where(h_ok, a, 1.0)
    hQ, hR = -look * b / a, look * c / a
    v = np.flatnonzero(axis == 0)
    v = v[(np.abs(line[v, :, 1]) > AXIS_TOL).any(axis=1)]
    a, b, c = line[v].transpose(2, 0, 1)
    v_ok = np.abs(b) > AXIS_TOL
    b = np.where(v_ok, b, 1.0)
    vP, vR = -look * a / b, look * c / b
    # the bands, in one array padded to the widest, and their x-ranges
    hregion, vregion = regions.strip_region[h], regions.strip_region[v]
    cuts = _chunks(len(h), regions.poly.shape[1])
    clipped = [
        _clip_slab(regions.poly[hregion[s]], regions.count[hregion[s]], 1, bounds[h[s], 0], bounds[h[s], 1])
        for s in cuts
    ]
    band = np.zeros((len(h), max((p.shape[1] for p, _n in clipped), default=1), 2))
    bcount = np.concatenate([np.zeros(0, dtype=np.int64), *(n for _p, n in clipped)])
    for s, (p, _n) in zip(cuts, clipped):
        band[s, : p.shape[1]] = p
    valid = np.arange(band.shape[1]) < bcount[:, None]
    xmin = np.where(valid, band[..., 0], np.inf).min(axis=1)
    xmax = np.where(valid, band[..., 0], -np.inf).max(axis=1)
    # each band pairs with every strip of x of its region, a run of v, and
    # each pair with the corners whose two rays meet walls
    first = np.searchsorted(vregion, hregion)
    n = (np.searchsorted(vregion, hregion, side="right") - first) * (bcount > 0)
    bi = np.repeat(np.arange(len(h)), n)
    vi = np.repeat(first - np.cumsum(n) + n, n) + np.arange(len(bi))
    corners = h_ok[bi][:, [0, 0, 1, 1]] & v_ok[vi][:, [0, 1, 0, 1]]
    near = (xmax[bi] - bounds[v[vi], 0] >= -BREAK_TOL) & (bounds[v[vi], 1] - xmin[bi] >= -BREAK_TOL)
    keep = near & corners.any(axis=1)
    bi, vi, corners = bi[keep], vi[keep], corners[keep]
    rows, wide = corners.sum(axis=1), bcount[bi] + 2
    out_ends, out_region, out_corner = [], [], []
    lo = 0
    while lo < len(bi):
        # the longest run of pairs from lo whose level rows, times the
        # widest piece among them, fit in KERNEL_CHUNK slots
        slots = np.cumsum(rows[lo : lo + KERNEL_CHUNK]) * np.maximum.accumulate(wide[lo : lo + KERNEL_CHUNK])
        hi = lo + max(1, int(np.searchsorted(slots, KERNEL_CHUNK, side="right")))
        cb, cv = bi[lo:hi], vi[lo:hi]
        count = bcount[cb]
        piece, pcount = _clip_slab(band[cb, : count.max()], count, 0, bounds[v[cv], 0], bounds[v[cv], 1])
        pair, corner = np.nonzero(corners[lo:hi])
        hb, vb, sh, sv = cb[pair], cv[pair], corner // 2, corner % 2
        P, Q, R = -look[sh] + vP[vb, sv], hQ[hb, sh] - look[sv], hR[hb, sh] + vR[vb, sv]
        ok, e0, e1 = _level_ends(piece[pair], pcount[pair], P, Q, R, eps)
        out_ends.append(np.stack([e0[ok], e1[ok]], axis=1))
        out_region.append(hregion[hb[ok]])
        out_corner.append(corner[ok])
        lo = hi
    return (
        np.concatenate([np.zeros((0, 2, 2)), *out_ends]),
        np.concatenate([np.zeros(0, dtype=np.int64), *out_region]),
        np.concatenate([np.zeros(0, dtype=np.int64), *out_corner]),
    )


def _walk_chains(ends: list) -> list[list[tuple[int, bool]]]:
    """Greedy maximal chains of pieces given by their two end keys.

    Each chain starts at its lowest-index piece, grows past its head, then
    before its tail, always taking the first unused piece at the free end.
    An entry (i, forward) says whether the chain runs from piece i's first
    end to its second (True) or against it.
    """
    adj: dict = {}
    for i, (a, b) in enumerate(ends):
        adj.setdefault(a, []).append(i)
        adj.setdefault(b, []).append(i)
    used = [False] * len(ends)
    chains = []
    for start in range(len(ends)):
        if used[start]:
            continue
        used[start] = True
        chain = [(start, True)]
        for at_head in (True, False):
            while True:
                i, forward = chain[-1] if at_head else chain[0]
                free = ends[i][1 if forward == at_head else 0]
                nxt = next((j for j in adj[free] if not used[j]), None)
                if nxt is None:
                    break
                used[nxt] = True
                # the next piece leaves the free end past the head, reaches it
                # before the tail
                entry = (nxt, (ends[nxt][0] == free) == at_head)
                if at_head:
                    chain.append(entry)
                else:
                    chain.insert(0, entry)
        chains.append(chain)
    return chains


def _stitch_chains(segs: np.ndarray, group: np.ndarray) -> list[tuple[int, list[tuple[float, float]]]]:
    """Join the segments of each group that share endpoints into maximal
    chains, merging collinear runs; `segs` is (n, 2, 2), sorted by `group`.
    Returns (group, chain) pairs, group by group.

    Segment ends of one group that `_snap_merge` merges at VERTEX_SNAP, in
    one merge over all groups, are one.  Where two segments meet, the chain
    point is the end of the one the walk met first: the fronts of the
    segments up to the chain's first segment, then the backs from there on.
    """
    if not len(segs):
        return []
    label = _snap_merge(segs.reshape(-1, 2), VERTEX_SNAP, np.repeat(group, 2)).reshape(-1, 2)
    cut = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(segs)]
    out = []
    for s, e in zip(cut, cut[1:]):
        pts = segs[s:e].tolist()
        for chain in _walk_chains([tuple(k) for k in label[s:e].tolist()]):
            k = chain.index(min(chain))
            chain_pts = [tuple(pts[i][0 if f else 1]) for i, f in chain[: k + 1]]
            chain_pts += [tuple(pts[i][1 if f else 0]) for i, f in chain[k:]]
            out.append((int(group[s]), _merge_collinear(chain_pts)))
    return out


def _merge_collinear(chain):
    """Drop interior chain points where the direction does not turn."""
    if len(chain) <= 2:
        return chain
    keep = [chain[0]]
    for i in range(1, len(chain) - 1):
        ax, ay = keep[-1]
        bx, by = chain[i]
        cx, cy = chain[i + 1]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        scale = max(abs(bx - ax), abs(by - ay), abs(cx - bx), abs(cy - by), 1.0)
        if abs(cross) > COLLINEAR_TOL * scale:
            keep.append(chain[i])
    keep.append(chain[-1])
    return keep


def _chain_is_convex(chain) -> bool:
    if len(chain) < 3:
        return True
    sign = 0
    for i in range(len(chain) - 2):
        ax, ay = chain[i]
        bx, by = chain[i + 1]
        cx, cy = chain[i + 2]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if abs(cross) <= COLLINEAR_TOL:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def corner_curve(regions: _Regions, taus: list[TranslationVector], eps) -> list[list[CriticalCurve]]:
    """Level-set chains of the corner vectors `taus` in every cell of
    `regions`, in placement space: one list for each vector, cell by cell."""
    ends, region, corner = _corner_level_segments(regions, float(eps))
    n_cells = len(regions.cells)
    # a chain group is one cell's segments of one corner
    group = corner * n_cells + regions.cell_of[region]
    order = np.argsort(group, kind="stable")
    which = {}
    for n, tau in enumerate(taus):
        look_x, look_y = _QUADRANT_LOOK[_CORNER_QUADRANT[tau.label]]
        which[2 * (look_x > 0) + (look_y > 0)] = n
    out: list[list[CriticalCurve]] = [[] for _ in taus]
    for g, chain in _stitch_chains(ends[order], group[order]):
        corner, k = divmod(g, n_cells)
        if corner not in which:
            continue
        tau = taus[which[corner]]
        pieces = [
            seg_piece(a[0] - tau.dx, a[1] - tau.dy, b[0] - tau.dx, b[1] - tau.dy)
            for a, b in zip(chain, chain[1:])
            if math.hypot(b[0] - a[0], b[1] - a[1]) > MIN_STEP
        ]
        if pieces:
            out[which[corner]].append(CriticalCurve(regions.cells[k], tau, pieces, _chain_is_convex(chain)))
    return out



# ---------------------------------------------------------------------------
# side-vector placement windows
# ---------------------------------------------------------------------------

def _side_windows(regions: _Regions, eps: float) -> tuple[dict, list[DegenerateStrip]]:
    """The side windows, where a strip's cross-section is exactly eps wide,
    and the degenerate strips, where it is eps wide throughout (horizontal
    ones first), of every strip whose two rays meet walls.

    The windows are kept by strip axis, as (cell, at) arrays in cell,
    region, then strip order: each one's index into the build's cells and
    its (value, lo_hit, hi_hit).  Axis 1: the value is a height y, the hits
    the x of the left and right walls there; axis 0 swaps the roles.
    Windows of one cell and axis that `_snap_merge` merges at VERTEX_SNAP
    in (value, lo_hit) are one, and the first is kept: the hits are eps
    apart, so hi_hit is merged with lo_hit."""
    line, axis = regions.strip_walls, regions.strip_axis
    rows = np.arange(len(line))[:, None]
    # each wall's coefficient along the rays (u) and along the strip (w)
    u = line[rows, [0, 1], 1 - axis[:, None]]
    w = line[rows, [0, 1], axis[:, None]]
    row = np.flatnonzero((np.abs(u) > AXIS_TOL).all(axis=1))
    (u1, u2), (w1, w2), (c1, c2) = u[row].T, w[row].T, line[row, :, 2].T
    # the width along the strip is k*v + m
    k = (-w2 / u2) - (-w1 / u1)
    m = (c2 / u2) - (c1 / u1)
    flat = np.abs(k) <= FLAT_SLOPE
    v = (eps - m) / np.where(flat, 1.0, k)
    lo, hi = regions.strip_bounds[row].T
    found = ~flat & (lo - BREAK_TOL <= v) & (v <= hi + BREAK_TOL)
    degenerate = flat & (np.abs(m - eps) <= STRIP_WIDTH_TOL)
    at = np.column_stack([v, (c1 - w1 * v) / u1, (c2 - w2 * v) / u2])
    cell, axis = regions.cell_of[regions.strip_region[row]], axis[row]
    windows, strips = {}, []
    for side, orientation in ((1, "horizontal"), (0, "vertical")):
        i = np.flatnonzero(found & (axis == side))
        # each merged window's label is the first window merged with it
        i = i[_snap_merge(at[i, :2], VERTEX_SNAP, cell[i]) == np.arange(len(i))]
        windows[side] = (cell[i], at[i])
        i = np.flatnonzero(degenerate & (axis == side))
        strips += [
            DegenerateStrip(regions.cells[c], orientation, a, b)
            for c, a, b in zip(cell[i].tolist(), lo[i].tolist(), hi[i].tolist())
        ]
    return windows, strips


def edge_curve(cells: list[int], windows: dict, tau: TranslationVector) -> list[CriticalCurve]:
    """Axis-aligned placement windows of a non-corner square vector, one
    from each side window of its orientation; `windows` holds them as
    `_side_windows` returns them, their cells as indices into `cells`."""
    axis = 1 if tau.label in ("top", "bottom") else 0
    cell, (v, w_lo, w_hi) = windows[axis][0], windows[axis][1].T
    shift = tau.dx if axis == 1 else tau.dy
    lo = np.maximum(w_lo - shift, w_hi - 0.5)
    hi = np.minimum(w_hi - shift, w_lo + 0.5)
    ok = hi - lo > MIN_STEP
    # the segment runs along the other axis, at the placement's offset from v
    ends = np.empty((int(ok.sum()), 2, 2))
    ends[:, :, axis] = (v - (0.5 if tau.label in ("top", "right") else -0.5))[ok, None]
    ends[:, 0, 1 - axis], ends[:, 1, 1 - axis] = lo[ok], hi[ok]
    return [
        CriticalCurve(cells[k], tau, [seg_piece(*p0, *p1)], True)
        for k, (p0, p1) in zip(cell[ok].tolist(), ends.tolist())
    ]


# ---------------------------------------------------------------------------
# the one pass over the cells
# ---------------------------------------------------------------------------

def _cell_reaches(arrangement: Arrangement, cell_id: int, domain: BBox, reach: float) -> bool:
    poly = arrangement.cell_polygon(cell_id)
    return not (
        poly[:, 0].min() > domain.xmax + reach
        or poly[:, 0].max() < domain.xmin - reach
        or poly[:, 1].min() > domain.ymax + reach
        or poly[:, 1].max() < domain.ymin - reach
    )


def collect_S(
    vectors: TranslationVectorSet, arrangement: Arrangement, domain: BBox
) -> tuple[list[CriticalCurve], list[DegenerateStrip]]:
    """The curves of every vector over the cells that reach the domain,
    clipped to it and listed vector by vector, and each cell's degenerate
    strips (horizontal ones first).

    Each cell's work that no vector changes is done once: a square cell's
    strips and side windows, a circle cell's ring pieces.  The square's
    strip table, corner chains and side windows come from batched passes
    over the regions of every cell.
    """
    from .circles import _assemble_chains, _ring_pieces, circle_cell_curves

    e = vectors.eps
    if vectors.shape == CIRCLE and e >= 1.0:
        raise EpsilonTooLarge("circle curves are only computed for eps < 1")
    per_vector: list[list[CriticalCurve]] = [[] for _ in vectors.vectors]
    strips: list[DegenerateStrip] = []
    reaching = [c.id for c in arrangement.cells if _cell_reaches(arrangement, c.id, domain, 1.0 + e)]
    if vectors.shape == CIRCLE:
        groups = []
        for cell_id in reaching:
            rings = _ring_pieces(arrangement, cell_id, e)
            groups += [(cell_id, tau, circle_cell_curves(rings, tau, e)) for tau in vectors.vectors]
        for k, curves in enumerate(_assemble_chains(groups)):
            per_vector[k % len(vectors.vectors)].extend(curves)
    else:
        regions = cell_regions(arrangement, reaching)
        corners = [k for k, tau in enumerate(vectors.vectors) if tau.kind == "corner"]
        for k, curves in zip(corners, corner_curve(regions, [vectors.vectors[k] for k in corners], e)):
            per_vector[k] = curves
        windows, strips = _side_windows(regions, e)
        for out, tau in zip(per_vector, vectors.vectors):
            if tau.kind != "corner":
                out.extend(edge_curve(regions.cells, windows, tau))
    return clip_curve_to_box([c for out in per_vector for c in out], domain), strips


def clip_curve_to_box(curves: list[CriticalCurve], box: BBox) -> list[CriticalCurve]:
    """The curves clipped to the box, in order, without those that keep no
    piece.  The straight pieces of all curves are clipped in one call."""
    segs = np.array(
        [(*p.p0, *p.p1) for c in curves for p in c.pieces if p.kind == "seg"], dtype=float
    ).reshape(-1, 4)
    x0, y0, x1, y1 = segs.T
    dx, dy = x1 - x0, y1 - y0
    hit, t0, t1 = _slab_clip(x0, y0, dx, dy, 0.0, 1.0, box.xmin, box.ymin, box.xmax, box.ymax, False)
    ends = np.column_stack([x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy])
    clipped = iter([[seg_piece(*e)] if h else [] for h, e in zip(hit.tolist(), ends.tolist())])
    out = []
    for curve in curves:
        pieces = [
            q for p in curve.pieces
            for q in (next(clipped) if p.kind == "seg" else _clip_arc_to_box(p, box))
        ]
        if pieces:
            out.append(CriticalCurve(curve.cell_id, curve.vector, pieces, curve.convex_flag, curve.kind))
    return out


def _clip_arc_to_box(piece: CurvePiece, box: BBox) -> list[CurvePiece]:
    """The arc's parts inside the box: its parameter interval cut at the
    box-side crossings."""
    cuts = [piece.psi0, piece.psi1]
    for a, b, c in (
        (1.0, 0.0, box.xmin),
        (1.0, 0.0, box.xmax),
        (0.0, 1.0, box.ymin),
        (0.0, 1.0, box.ymax),
    ):
        A = a * piece.vec_a[0] + b * piece.vec_a[1]
        B = a * piece.vec_b[0] + b * piece.vec_b[1]
        C = a * piece.center[0] + b * piece.center[1] - c
        cuts.extend(_sinusoid_roots(A, B, C, piece.psi0, piece.psi1))
    cuts = sorted(set(cuts))
    out = []
    for u0, u1 in zip(cuts, cuts[1:]):
        if u1 - u0 <= MIN_ARC_STEP:
            continue
        mx, my = piece.arc_point(0.5 * (u0 + u1))
        if box.contains(mx, my):
            out.append(
                CurvePiece(
                    "arc",
                    center=piece.center,
                    vec_a=piece.vec_a,
                    vec_b=piece.vec_b,
                    psi0=u0,
                    psi1=u1,
                )
            )
    return out


def _sinusoid_roots(A: float, B: float, C: float, lo: float, hi: float) -> list[float]:
    """Roots of A sin(psi) + B cos(psi) + C = 0 within [lo, hi].

    A touching (double) root, |C| within TOUCH_TOL of the amplitude, is the
    sinusoid's peak, whichever side of zero rounding put it.
    """
    R = math.hypot(A, B)
    if R <= FLAT_AMPLITUDE:
        return []
    if abs(abs(C) - R) <= TOUCH_TOL * (1.0 + abs(C)):
        C = math.copysign(R, C)
    if abs(C) > R:
        return []
    phi = math.atan2(B, A)
    base = math.asin(max(-1.0, min(1.0, -C / R)))
    roots = []
    for cand in (base - phi, math.pi - base - phi):
        k_lo = math.floor((lo - cand) / (2.0 * math.pi)) - 1
        k_hi = math.ceil((hi - cand) / (2.0 * math.pi)) + 1
        for k in range(int(k_lo), int(k_hi) + 1):
            r = cand + 2.0 * math.pi * k
            if lo - ROOT_RANGE_SLACK <= r <= hi + ROOT_RANGE_SLACK:
                roots.append(min(max(r, lo), hi))
    return roots


# ---------------------------------------------------------------------------
# contact curves: corner translates, endpoint rings, tangency offsets
# ---------------------------------------------------------------------------

def contact_curves(primitives: list, shape: str, domain: BBox) -> list[CriticalCurve]:
    """Placements where the boundary structure jumps without a gap of length
    eps: a square corner on a primitive, a primitive endpoint on the boundary,
    or a line tangent to the circle."""
    out: list = []  # each curve's pieces, or the moved line still to clip to the domain
    # a square corner on a primitive: the primitive moved by minus the corner
    corners = [(-c.x, -c.y) for c in square_corners(_ORIGIN)]
    for prim in primitives:
        line = isinstance(prim, Line)
        if shape == SQUARE:
            shifts = corners
        else:  # a line tangent to the circle: the line moved by its unit normal
            shifts = [(off * prim.a, off * prim.b) for off in (-1.0, 1.0)] if line else []
        for dx, dy in shifts:
            p, q = Point(prim.p.x + dx, prim.p.y + dy), Point(prim.q.x + dx, prim.q.y + dy)
            out.append(Line(p, q) if line else [seg_piece(p.x, p.y, q.x, q.y)])
        if shape == SQUARE and not line:  # a segment endpoint on the square's boundary
            for end in (prim.p, prim.q):
                cs = square_corners(end)
                out.append([seg_piece(a.x, a.y, b.x, b.y) for a, b in zip(cs, cs[1:] + cs[:1])])
    hit, ends = _lines_in_box([c for c in out if isinstance(c, Line)], domain)
    moved = iter([[seg_piece(*e)] if h else [] for h, e in zip(hit.tolist(), ends.tolist())])
    pieces = [next(moved) if isinstance(c, Line) else c for c in out]
    return clip_curve_to_box([CriticalCurve(-1, None, p, True, "contact") for p in pieces if p], domain)


# ---------------------------------------------------------------------------
# curve family intersections and the placement arrangement
# ---------------------------------------------------------------------------

def _piece_bbox(piece: CurvePiece) -> tuple[float, float, float, float]:
    """Bounding box of a piece: its ends, and for an arc also the points
    inside [psi0, psi1] where x or y is extremal on its ellipse."""
    if piece.kind == "seg":
        pts = [piece.p0, piece.p1]
    else:
        psis = [piece.psi0, piece.psi1]
        for k in (0, 1):
            # d/dpsi of a coordinate: vec_a[k] cos(psi) - vec_b[k] sin(psi)
            psis.extend(
                _sinusoid_roots(-piece.vec_b[k], piece.vec_a[k], 0.0, piece.psi0, piece.psi1)
            )
        pts = [piece.arc_point(psi) for psi in psis]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def _boxes_meet(boxes: np.ndarray, box) -> np.ndarray:
    """Mask of the rows of an (n, 4) box array that come within
    BOX_MEET_SLACK of one box."""
    x0, y0, x1, y1 = box
    return (
        (boxes[:, 0] <= x1 + BOX_MEET_SLACK)
        & (boxes[:, 2] >= x0 - BOX_MEET_SLACK)
        & (boxes[:, 1] <= y1 + BOX_MEET_SLACK)
        & (boxes[:, 3] >= y0 - BOX_MEET_SLACK)
    )


def _seg_arc_points(seg: CurvePiece, arc: CurvePiece):
    ax, ay = seg.p0
    bx, by = seg.p1
    ln = Line(Point(ax, ay), Point(bx, by))
    A = ln.a * arc.vec_a[0] + ln.b * arc.vec_a[1]
    B = ln.a * arc.vec_b[0] + ln.b * arc.vec_b[1]
    C = ln.a * arc.center[0] + ln.b * arc.center[1] - ln.c
    pts = []
    L2 = (bx - ax) ** 2 + (by - ay) ** 2
    for psi in _sinusoid_roots(A, B, C, arc.psi0, arc.psi1):
        x, y = arc.arc_point(psi)
        t = ((x - ax) * (bx - ax) + (y - ay) * (by - ay)) / L2
        if -SEG_PARAM_SLACK <= t <= 1.0 + SEG_PARAM_SLACK:
            pts.append((x, y))
    return pts


def _arc_coords(arc: CurvePiece, vx: float, vy: float):
    """(s, c) with s*vec_a + c*vec_b = (vx, vy); None for a flat arc."""
    ax, ay = arc.vec_a
    bx, by = arc.vec_b
    det = ax * by - ay * bx
    if abs(det) <= FLAT_ARC_DET:
        return None
    return ((vx * by - vy * bx) / det, (ax * vy - ay * vx) / det)


def _arc_param(arc: CurvePiece, x: float, y: float):
    """The arc's parameter of a point on its ellipse, clamped to [psi0, psi1];
    None when the point lies more than ARC_PARAM_SLACK outside the range.

    A flat arc runs to and fro along its one nonzero axis, so a point there
    has two parameters; the one inside the range is taken.
    """
    vx, vy = x - arc.center[0], y - arc.center[1]
    lo = arc.psi0 - ARC_PARAM_SLACK
    sc = _arc_coords(arc, vx, vy)
    if sc is not None:
        cands = [math.atan2(*sc)]
    else:  # along the axis the arc runs at (vec_a . axis) sin + (vec_b . axis) cos
        ax, ay = max(arc.vec_a, arc.vec_b, key=lambda v: math.hypot(*v))
        A = arc.vec_a[0] * ax + arc.vec_a[1] * ay
        B = arc.vec_b[0] * ax + arc.vec_b[1] * ay
        cands = _sinusoid_roots(A, B, -(vx * ax + vy * ay), lo, lo + 2.0 * math.pi)
    for psi in cands:
        d = (psi - lo) % (2.0 * math.pi)
        if d <= arc.psi1 + ARC_PARAM_SLACK - lo:
            return min(max(lo + d, arc.psi0), arc.psi1)
    return None


def _arc_arc_points(p: CurvePiece, q: CurvePiece):
    """Points where two elliptic arcs cross, each within both ranges.

    Arc p put into q's implicit form |M_q^-1 (x - c_q)|^2 - 1 gives
    C0 + a1 cos(psi) + b1 sin(psi) + a2 cos(2 psi) + b2 sin(2 psi) in p's
    parameter.  When that vanishes the arcs share an ellipse: they do not
    cross, and each arc's ends that lie on the other arc split it, so a
    shared stretch yields the same edges from both.  Otherwise each stretch
    of p of at most ARC_CHUNK becomes a quartic in t = tan(phi/2), phi taken
    from the stretch's middle; its roots whose points lie in q's range are
    the crossings.
    """
    if _arc_coords(q, 1.0, 0.0) is None:  # a flat q has no implicit form
        p, q = q, p
    rel = _arc_coords(q, p.center[0] - q.center[0], p.center[1] - q.center[1])
    if rel is None:
        return []
    Ds, Dc = rel
    Us, Uc = _arc_coords(q, *p.vec_a)
    Ws, Wc = _arc_coords(q, *p.vec_b)
    uu, ww = Us * Us + Uc * Uc, Ws * Ws + Wc * Wc
    C0 = Ds * Ds + Dc * Dc + 0.5 * (uu + ww) - 1.0
    a1, b1 = 2.0 * (Ds * Ws + Dc * Wc), 2.0 * (Ds * Us + Dc * Uc)
    a2, b2 = 0.5 * (ww - uu), Us * Ws + Uc * Wc
    r1, r2 = math.hypot(a1, b1), math.hypot(a2, b2)
    scale = 1.0 + Ds * Ds + Dc * Dc + uu + ww
    if max(abs(C0), r1, r2) <= SAME_ELLIPSE_RTOL * scale:
        pts = [e for e in p.endpoints() if _arc_param(q, *e) is not None]
        return pts + [e for e in q.endpoints() if _arc_param(p, *e) is not None]
    if abs(C0) > r1 + r2:
        return []
    lo, hi = p.psi0 - ARC_PARAM_SLACK, p.psi1 + ARC_PARAM_SLACK
    n = max(1, math.ceil((hi - lo) / ARC_CHUNK))
    pts = []
    for k in range(n):
        m = lo + (hi - lo) * (k + 0.5) / n
        T = math.tan(0.25 * (hi - lo) / n)
        cm, sm = math.cos(m), math.sin(m)
        c2m, s2m = cm * cm - sm * sm, 2.0 * sm * cm
        # the same polynomial in phi = psi - m
        A1, B1 = a1 * cm + b1 * sm, b1 * cm - a1 * sm
        A2, B2 = a2 * c2m + b2 * s2m, b2 * c2m - a2 * s2m
        quartic = (
            C0 + A1 + A2,
            2.0 * B1 + 4.0 * B2,
            2.0 * C0 - 6.0 * A2,
            2.0 * B1 - 4.0 * B2,
            C0 - A1 + A2,
        )
        for t in _poly_roots(quartic, -T, T):
            x, y = p.arc_point(m + 2.0 * math.atan(t))
            if _arc_param(q, x, y) is not None:
                pts.append((x, y))
    return pts


def _poly_eval(coeffs, t: float) -> float:
    v = 0.0
    for c in reversed(coeffs):
        v = v * t + c
    return v


def _poly_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of sum coeffs[k] t^k.

    The roots of the derivative cut the range into pieces on which the
    polynomial is monotone; each piece whose ends differ in sign holds one
    root, found by bisection.  A root where the polynomial only touches
    zero (a tangency) is found only when it evaluates to exactly zero.
    """
    if len(coeffs) < 2:
        return []
    deriv = [k * coeffs[k] for k in range(1, len(coeffs))]
    cuts = [lo] + _poly_roots(deriv, lo, hi) + [hi]
    vals = [_poly_eval(coeffs, t) for t in cuts]
    roots = []
    for k in range(len(cuts)):
        if vals[k] == 0.0:
            roots.append(cuts[k])
        if k + 1 == len(cuts) or vals[k] * vals[k + 1] >= 0.0:
            continue
        a, b, fa = cuts[k], cuts[k + 1], vals[k]
        for _ in range(ROOT_BISECTIONS):
            mid = 0.5 * (a + b)
            fm = _poly_eval(coeffs, mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0.0) == (fa < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


def _piece_crossings(pieces: list[CurvePiece], family: list[int], snap: float):
    """Where pieces of different families meet, as two (m, 4) arrays of rows
    (i, j, x, y) with i < j: the crossings, and the ends of collinear
    overlaps of straight pieces; `family` holds one label per piece.

    Segment pairs go through the arrangement's x-sweep, which lets pieces
    meet within snap, and come first; pairs with an arc are pruned by exact
    bounding boxes and solved in closed form.
    """
    segs = [i for i, p in enumerate(pieces) if p.kind == "seg"]
    arcs = [i for i, p in enumerate(pieces) if p.kind == "arc"]
    ends = np.array([(*pieces[i].p0, *pieces[i].p1) for i in segs], dtype=float).reshape(-1, 4)
    fam = np.array(family)
    crossings, overlaps = _segment_crossings(ends[:, :2], ends[:, 2:], fam[segs], snap)
    # the sweep numbers the segments among themselves
    ids = np.array(segs, dtype=int)
    crossings[:, :2] = ids[crossings[:, :2].astype(int)]
    overlaps[:, :2] = ids[overlaps[:, :2].astype(int)]
    out = []
    if arcs:
        boxes = np.array([_piece_bbox(p) for p in pieces])
    for n, i in enumerate(arcs):
        cand = np.array(segs + arcs[n + 1 :], dtype=int)
        cand = cand[(fam[cand] != fam[i]) & _boxes_meet(boxes[cand], boxes[i])]
        for j in cand.tolist():
            q = pieces[j]
            pts = _seg_arc_points(q, pieces[i]) if q.kind == "seg" else _arc_arc_points(pieces[i], q)
            out.extend((min(i, j), max(i, j), x, y) for x, y in pts)
    return np.concatenate([crossings, np.array(out, dtype=float).reshape(-1, 4)]), overlaps


def pair_intersections(curves_a: list[CriticalCurve], curves_b: list[CriticalCurve]) -> list[Point]:
    """Sorted points where a piece of one curve set crosses a piece of the
    other, merged at VERTEX_SNAP as the overlay merges its vertices;
    collinear overlaps count as no crossing."""
    pieces = [p for c in curves_a for p in c.pieces]
    na = len(pieces)
    pieces += [p for c in curves_b for p in c.pieces]
    family = [0] * na + [1] * (len(pieces) - na)
    xy = _piece_crossings(pieces, family, VERTEX_SNAP)[0][:, 2:]
    first = xy[_snap_merge(xy, VERTEX_SNAP) == np.arange(len(xy))]
    return [Point(x, y) for x, y in sorted(first.tolist())]


@dataclass
class PlacementArrangement:
    """Overlay of all critical curves, with its combinatorial size."""

    shape: str
    eps: float
    curves: list[CriticalCurve]
    line_translates: list[CriticalCurve]
    domain: BBox
    counts: dict
    warnings: list
    primitives: list
    vectors: TranslationVectorSet
    arrangement: Arrangement | None = None  # None when the curves were read back from a file

    @property
    def complexity(self) -> int:
        return self.counts["vertices"] + self.counts["edges"] + self.counts["faces"]

    def all_curves(self) -> list[CriticalCurve]:
        return list(self.curves) + list(self.line_translates)

    def supports_placement(self, centers: np.ndarray, curve: CriticalCurve) -> np.ndarray:
        """Definition-level check of a curve's samples, one verdict per row
        of the (N, 2) centers.

        Gap curves need a boundary piece of the right length that contains
        the curve's own fixed boundary point (which pins the witness to the
        owning cell); contact curves need their contact condition.
        """
        if curve.kind == "contact":
            return contact_holds(centers, self.primitives, self.shape)
        fixed_s = None if curve.vector is None else curve.vector.s
        return witnessed(centers, self.primitives, self.shape, self.eps, fixed_s)


def default_domain(primitives: list, shape: str, eps) -> BBox:
    """Placement window: data bounding box grown by the shape diameter + eps."""
    pts = [(q.x, q.y) for prim in primitives for q in (prim.p, prim.q)]
    diameter = SQRT2 if shape == SQUARE else 2.0
    return bbox_of_points(pts or [(0.0, 0.0)]).expanded(diameter + float(eps))


def placement_primitives(primitives: list) -> list:
    """The primitives a placement arrangement is built over: lines with each
    repeated line taken once (`distinct_lines`, the first copy kept), or
    segments as given, never a mix of the two.  Lines that meet in one point
    are taken as given."""
    lines = [p for p in primitives if isinstance(p, Line)]
    if lines and len(lines) < len(primitives):
        raise GeometryError("scene mixes infinite lines and segments")
    return distinct_lines(lines) if lines else list(primitives)


def build_placement_arrangement(
    primitives: list, eps, shape: str, include_line_translates: bool = False
) -> PlacementArrangement:
    """Overlay of the curves of every vector over the arrangement of the
    lines or segments; reports vertex/edge/face counts.

    The arrangement is built once, on the default domain grown by 1 + eps
    (plus a margin), so that every distance the domain's curves measure
    ends on a real wall, not on the clip frame.
    """
    e = float(eps)
    vectors = translation_vectors(shape, e)
    prims = placement_primitives(primitives)
    segments = any(isinstance(p, Segment) for p in prims)
    if shape == CIRCLE and segments:
        raise GeometryError("circle placements are only computed over lines")
    domain = default_domain(prims, shape, e)
    build = build_segment_arrangement if segments else build_line_arrangement
    arrangement = build(prims, clip_box=domain.expanded(1.0 + e + 0.25))
    curves, warnings = collect_S(vectors, arrangement, domain)
    translates = contact_curves(prims, shape, domain) if include_line_translates else []
    counts = _overlay_counts(curves + translates, domain)
    return PlacementArrangement(
        shape, e, curves, translates, domain, counts, warnings, prims, vectors, arrangement
    )


def _overlay_counts(curves: list[CriticalCurve], domain: BBox) -> dict:
    """Vertex/edge/face counts of the curve overlay plus the domain frame:
    the arrangement's kernel `_split_pieces` splits the pieces at VERTEX_SNAP
    where `_piece_crossings` says they meet, overlap ends included.  A flat
    arc enters as its straight chord, so that it splits like one."""
    pieces = [
        seg_piece(*p.endpoints()[0], *p.endpoints()[1])
        if p.kind == "arc" and _arc_coords(p, 1.0, 0.0) is None
        else p
        for c in curves
        for p in c.pieces
    ] + [seg_piece(a.x, a.y, b.x, b.y) for a, b, _tag in _frame_walls(domain)]
    meets = np.concatenate(_piece_crossings(pieces, list(range(len(pieces))), VERTEX_SNAP))
    # a piece runs at origin + f(t) first + g(t) second: f, g = t, 0 or sin, cos
    arc = np.array([p.kind == "arc" for p in pieces])
    origin = np.array([p.center if p.kind == "arc" else p.p0 for p in pieces], dtype=float)
    first = np.array(
        [p.vec_a if p.kind == "arc" else (p.p1[0] - p.p0[0], p.p1[1] - p.p0[1]) for p in pieces]
    )
    second = np.array([p.vec_b if p.kind == "arc" else (0.0, 0.0) for p in pieces], dtype=float)

    def at(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        f, g = np.where(arc[k], np.sin(t), t), np.where(arc[k], np.cos(t), 0.0)
        return origin[k] + f[:, None] * first[k] + g[:, None] * second[k]

    # rows: both ends of every piece, then both pieces of every meeting, a
    # segment's at its projection and an arc's at its angle
    k = meets[:, :2].astype(int).ravel()
    xy = np.repeat(meets[:, 2:], 2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((xy - origin[k]) * first[k]).sum(axis=1) / (first[k] ** 2).sum(axis=1)
    for r in np.flatnonzero(arc[k]).tolist():
        psi = _arc_param(pieces[k[r]], *xy[r])
        t[r] = pieces[k[r]].psi0 if psi is None else psi
    ends = [(p.psi0, p.psi1) if p.kind == "arc" else (0.0, 1.0) for p in pieces]
    verts, edges, n_components = _split_pieces(
        np.concatenate([np.repeat(np.arange(len(pieces)), 2), k]),
        np.concatenate([np.ravel(ends), t]),
        np.concatenate([[e for p in pieces for e in p.endpoints()], xy]),
        VERTEX_SNAP,
        at,
    )
    V, E = len(verts), len(edges)
    return {"vertices": V, "edges": E, "faces": 1 + n_components + E - V}
