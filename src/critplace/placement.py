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
from dataclasses import dataclass, field

import numpy as np

from .arrangement import (
    Arrangement,
    BBox,
    Tag,
    _count_components,
    _segment_crossings,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    enforce_general_position,
)
from .geom import (
    CIRCLE,
    SQUARE,
    GeometryError,
    Line,
    PerimeterCoord,
    Point,
    Segment,
    _line_in_box,
    _slab_clip,
    perimeter_point,
    shape_perimeter,
    square_corners,
)
from .oracle import contact_holds, witnessed

SQRT2 = math.sqrt(2.0)

# Tolerances, each with its reason.
# Points that round to one cell of this grid are one point: square chain
# ends, family crossings and overlay vertices.
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
    if frac <= 1e-12:
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
        per_side = max(1, math.ceil((1.0 - 1e-12) / e))
        for side in range(4):
            for k in range(per_side):
                vectors.append(_square_vector_at(side + k / per_side))
    elif shape == CIRCLE:
        m = max(4, math.ceil((2.0 * math.pi - 1e-12) / e))
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

    def sample_by_spacing(self, spacing: float, inset: float = 0.0) -> np.ndarray:
        return self.sample(int(self.length() / max(spacing, 1e-9)) + 2, inset=inset)


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
    contact_ref: tuple | None = None  # (primitive id, info) for contact curves

    def chain_points(self) -> list[tuple[float, float]]:
        pts: list[tuple[float, float]] = []
        for piece in self.pieces:
            a, b = piece.endpoints()
            if not pts:
                pts.append(a)
            pts.append(b)
        return pts

    def sample_points(self, spacing: float) -> np.ndarray:
        chunks = [p.sample_by_spacing(spacing) for p in self.pieces]
        return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2))


@dataclass
class DegenerateStrip:
    """Cell stretch whose cross-section equals the granularity everywhere."""

    cell_id: int
    orientation: str  # "horizontal" | "vertical"
    lo: float
    hi: float
    representative: CurvePiece


_QUADRANT_LOOK = {
    "upper_right": (-1.0, -1.0),
    "upper_left": (1.0, -1.0),
    "lower_left": (1.0, 1.0),
    "lower_right": (-1.0, 1.0),
}

_CORNER_QUADRANT = {"tr": "upper_right", "tl": "upper_left", "bl": "lower_left", "br": "lower_right"}


# ---------------------------------------------------------------------------
# visibility profiles inside one convex region
# ---------------------------------------------------------------------------

@dataclass
class _ProfileStrip:
    lo: float
    hi: float
    open_side: bool  # first hit is the clip frame (or nothing)
    line: tuple[float, float, float] | None  # supporting line a*x + b*y = c


@dataclass
class _Region:
    """Convex region plus the walls of its owning cell (rays are transparent).

    `wall_array` holds the walls as rows x0, y0, x1, y1; the regions of one
    cell share it.
    """

    cell_id: int
    polygon: np.ndarray  # (m, 2) CCW
    walls: list[tuple[Point, Point, Tag]]
    wall_array: np.ndarray
    profiles: dict = field(default_factory=dict)

    def profile(self, direction: str) -> list[_ProfileStrip]:
        if direction not in self.profiles:
            self.profiles[direction] = _direction_profile(self, direction)
        return self.profiles[direction]


@dataclass
class _CellRegions:
    """The convex regions of one cell, and its side windows, which every side
    vector of the cell reuses."""

    regions: list[_Region]
    windows: dict = field(default_factory=dict)

    def side_windows(self, orientation: str, eps: float):
        key = (orientation, eps)
        if key not in self.windows:
            self.windows[key] = _cross_section_solutions(self.regions, orientation, eps)
        return self.windows[key]


def _region_span(pts: list, axis: int, value: float) -> tuple[float, float] | None:
    """Cross-section interval of a convex polygon at axis == value."""
    other = 1 - axis
    hits: list[float] = []
    m = len(pts)
    for i in range(m):
        a = pts[i]
        b = pts[(i + 1) % m]
        va, vb = a[axis], b[axis]
        if (va > value) == (vb > value):
            continue
        t = (value - va) / (vb - va)
        hits.append(a[other] + t * (b[other] - a[other]))
    if len(hits) < 2:
        return None
    return (min(hits), max(hits))


def _direction_profile(region: _Region, direction: str) -> list[_ProfileStrip]:
    poly = region.polygon
    axis = 1 if direction in ("left", "right") else 0
    vals = sorted({float(v[axis]) for v in poly})
    lo_all, hi_all = vals[0], vals[-1]
    ends = region.wall_array[:, [1, 3] if axis == 1 else [0, 2]].ravel()
    vals.extend(ends[(lo_all + 1e-12 < ends) & (ends < hi_all - 1e-12)])
    vals = sorted(set(round(v, 12) for v in vals))
    sign = -1.0 if direction in ("left", "down") else 1.0
    dvec = (sign, 0.0) if axis == 1 else (0.0, sign)

    pts = poly.tolist()
    bounds: list[tuple[float, float]] = []
    origins: list[tuple[float, float]] = []
    for lo, hi in zip(vals, vals[1:]):
        if hi - lo <= 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        span = _region_span(pts, axis, mid)
        if span is None:
            continue
        sx = 0.5 * (span[0] + span[1])
        bounds.append((lo, hi))
        origins.append((sx, mid) if axis == 1 else (mid, sx))
    if not origins:
        return []

    strips: list[_ProfileStrip] = []
    for (lo, hi), k in zip(bounds, _first_wall_hits(np.array(origins), dvec, region.wall_array)):
        if k < 0 or region.walls[k][2][0] == "clip":
            strips.append(_ProfileStrip(lo, hi, True, None))
        else:
            p0, p1, _tag = region.walls[k]
            ln = Line(p0, p1)
            strips.append(_ProfileStrip(lo, hi, False, (ln.a, ln.b, ln.c)))
    return strips


def _first_wall_hits(origins: np.ndarray, dvec, walls: np.ndarray) -> list[int]:
    """Index of the wall each ray origins[i] + t*dvec (t > 0) meets first, or
    -1; of walls met at the same t the first in the array wins."""
    dx, dy = dvec
    ex = walls[:, 2] - walls[:, 0]
    ey = walls[:, 3] - walls[:, 1]
    det = dx * ey - dy * ex
    rx = walls[:, 0] - origins[:, :1]
    ry = walls[:, 1] - origins[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - ry * ex) / det
        u = (dy * rx - dx * ry) / det
    ok = (np.abs(det) > 1e-14) & (t > 1e-12) & (-1e-9 <= u) & (u <= 1.0 + 1e-9)
    t = np.where(ok, t, np.inf)
    first = np.argmin(t, axis=1)
    return np.where(ok[np.arange(len(first)), first], first, -1).tolist()


# ---------------------------------------------------------------------------
# corner-vector level chains
# ---------------------------------------------------------------------------

def _clip_half(pts: list, k: list) -> list:
    """The part of a convex polygon where k >= 0, k given at each vertex."""
    if min(k) >= -1e-12:
        return pts
    out = []
    m = len(pts)
    for i in range(m):
        ka, kb = k[i], k[(i + 1) % m]
        if ka >= -1e-12:
            out.append(pts[i])
        if (ka > 1e-12 and kb < -1e-12) or (ka < -1e-12 and kb > 1e-12):
            (ax, ay), (bx, by) = pts[i], pts[(i + 1) % m]
            t = ka / (ka - kb)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return out


def _clip_convex(pts: list, axis: int, lo: float, hi: float) -> list:
    """Sutherland-Hodgman clip of a convex polygon (a list of (x, y)) to a
    coordinate slab; fewer than three points means empty."""
    pts = _clip_half(pts, [p[axis] - lo for p in pts])
    if len(pts) < 3:
        return []
    pts = _clip_half(pts, [hi - p[axis] for p in pts])
    return pts if len(pts) >= 3 else []


def _level_segment_in_poly(poly: list, P: float, Q: float, R: float, level: float):
    """Clip the line P*x + Q*y + R = level to a convex polygon."""
    pts = []
    m = len(poly)
    g = [P * x + Q * y + R - level for x, y in poly]
    for i in range(m):
        gi, gj = g[i], g[(i + 1) % m]
        if abs(gi) <= 1e-12:
            pts.append(poly[i])
        if (gi > 1e-12 and gj < -1e-12) or (gi < -1e-12 and gj > 1e-12):
            t = gi / (gi - gj)
            (ax, ay), (bx, by) = poly[i], poly[(i + 1) % m]
            pts.append((ax + t * (bx - ax), ay + t * (by - ay)))
    if len(pts) < 2:
        return None
    # two rounded products and a sum: a numpy product may go through BLAS,
    # whose kernel (and rounding) depends on the machine, and the projection
    # picks the ends that are kept
    proj = [x * -Q + y * P for x, y in pts]
    i0 = min(range(len(proj)), key=proj.__getitem__)
    i1 = max(range(len(proj)), key=proj.__getitem__)
    if proj[i1] - proj[i0] <= 1e-12 * max(1.0, abs(proj[i0])):
        return None
    arr = np.array(pts)
    return (arr[i0], arr[i1])


def _corner_level_segments(region: _Region, look_x: float, look_y: float, eps: float):
    """Exact level-set segments of the distance-sum inside one region.

    Each horizontal profile strip is clipped to its y-band once; the band is
    then clipped to the vertical strips that reach its x-range.  A strip more
    than 1e-12 past the band's x-range would clip it to nothing.
    """
    verticals = []
    for sv in region.profile("down" if look_y < 0 else "up"):
        if sv.open_side:
            continue
        a2, b2, c2 = sv.line
        if abs(b2) <= 1e-12:
            continue
        verticals.append((sv.lo, sv.hi, -look_y * a2 / b2, -look_y, look_y * c2 / b2))
    if not verticals:
        return []
    poly = region.polygon.tolist()
    segs = []
    for sh in region.profile("left" if look_x < 0 else "right"):
        if sh.open_side:
            continue
        a1, b1, c1 = sh.line
        # horizontal wall distance: look left => x - (c1 - b1*y)/a1
        if abs(a1) <= 1e-12:
            continue
        hP = -look_x
        hQ = -look_x * b1 / a1
        hR = look_x * c1 / a1
        band = _clip_convex(poly, 1, sh.lo, sh.hi)
        if not band:
            continue
        xmin = min(p[0] for p in band)
        xmax = max(p[0] for p in band)
        for lo, hi, vP, vQ, vR in verticals:
            if xmax - lo < -1e-12 or hi - xmin < -1e-12:
                continue
            piece = _clip_convex(band, 0, lo, hi)
            if not piece:
                continue
            hit = _level_segment_in_poly(piece, hP + vP, hQ + vQ, hR + vR, eps)
            if hit is not None:
                segs.append(hit)
    return segs


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


def _stitch_chains(segs) -> list[list[tuple[float, float]]]:
    """Join segments sharing endpoints into maximal chains, merging collinear runs.

    Where two segments meet, the chain point is the end of the one the walk
    met first: the fronts of the segments up to the chain's first segment,
    then the backs from there on.
    """
    ends = [tuple((round(x / VERTEX_SNAP), round(y / VERTEX_SNAP)) for x, y in s) for s in segs]
    chains = []
    for chain in _walk_chains(ends):
        k = chain.index(min(chain))
        pts = [tuple(segs[i][0 if f else 1]) for i, f in chain[: k + 1]]
        pts += [tuple(segs[i][1 if f else 0]) for i, f in chain[k:]]
        chains.append(_merge_collinear(pts))
    return chains


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


def corner_curve(cell_id: int, cell: _CellRegions, tau: TranslationVector, eps) -> list[CriticalCurve]:
    """Level-set chains for a corner vector inside one cell, in placement space."""
    e = float(eps)
    look_x, look_y = _QUADRANT_LOOK[_CORNER_QUADRANT[tau.label]]
    segs = []
    for region in cell.regions:
        segs.extend(_corner_level_segments(region, look_x, look_y, e))
    curves = []
    for chain in _stitch_chains(segs):
        pieces = [
            seg_piece(a[0] - tau.dx, a[1] - tau.dy, b[0] - tau.dx, b[1] - tau.dy)
            for a, b in zip(chain, chain[1:])
            if math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-12
        ]
        if pieces:
            curves.append(CriticalCurve(cell_id, tau, pieces, _chain_is_convex(chain)))
    return curves


# ---------------------------------------------------------------------------
# side-vector placement windows
# ---------------------------------------------------------------------------

def _cross_section_solutions(regions: list[_Region], orientation: str, eps: float):
    """(value, lo_hit, hi_hit) where the cell cross-section equals eps.

    orientation "horizontal": value is a height y*, the hits are the x of the
    left and right walls there; "vertical" swaps the roles.
    """
    d_lo, d_hi = ("left", "right") if orientation == "horizontal" else ("down", "up")
    solutions: list[tuple[float, float, float]] = []
    degenerate: list[tuple[float, float]] = []
    for region in regions:
        plo = region.profile(d_lo)
        phi = region.profile(d_hi)
        breaks = sorted(
            {s.lo for s in plo} | {s.hi for s in plo} | {s.lo for s in phi} | {s.hi for s in phi}
        )
        for lo, hi in zip(breaks, breaks[1:]):
            mid = 0.5 * (lo + hi)
            slo = next((s for s in plo if s.lo - 1e-12 <= mid <= s.hi + 1e-12), None)
            shi = next((s for s in phi if s.lo - 1e-12 <= mid <= s.hi + 1e-12), None)
            if slo is None or shi is None or slo.open_side or shi.open_side:
                continue
            a1, b1, c1 = slo.line
            a2, b2, c2 = shi.line
            if orientation == "horizontal":
                if abs(a1) <= 1e-12 or abs(a2) <= 1e-12:
                    continue
                # width(y) = x_hi(y) - x_lo(y)
                k = (-b2 / a2) - (-b1 / a1)
                m = (c2 / a2) - (c1 / a1)
            else:
                if abs(b1) <= 1e-12 or abs(b2) <= 1e-12:
                    continue
                k = (-a2 / b2) - (-a1 / b1)
                m = (c2 / b2) - (c1 / b1)
            # width(v) = k*v + m on [lo, hi]
            if abs(k) <= 1e-12:
                if abs(m - eps) <= 1e-9:
                    degenerate.append((lo, hi))
                continue
            v = (eps - m) / k
            if lo - 1e-12 <= v <= hi + 1e-12:
                if orientation == "horizontal":
                    xl = (c1 - b1 * v) / a1
                    xr = (c2 - b2 * v) / a2
                else:
                    xl = (c1 - a1 * v) / b1
                    xr = (c2 - a2 * v) / b2
                solutions.append((v, xl, xr))
    uniq: dict[tuple[int, int, int], tuple[float, float, float]] = {}
    for v, xl, xr in solutions:
        uniq[(round(v / 1e-9), round(xl / 1e-9), round(xr / 1e-9))] = (v, xl, xr)
    return list(uniq.values()), degenerate


def edge_curve(
    cell_id: int,
    cell: _CellRegions,
    tau: TranslationVector,
    eps,
    warnings: list[DegenerateStrip] | None = None,
) -> list[CriticalCurve]:
    """Axis-aligned placement windows for a non-corner square vector."""
    e = float(eps)
    horizontal = tau.label in ("top", "bottom")
    orientation = "horizontal" if horizontal else "vertical"
    solutions, degenerate = cell.side_windows(orientation, e)
    if warnings is not None:
        for lo, hi in degenerate:
            mid = 0.5 * (lo + hi)
            rep = (
                seg_piece(lo, mid, hi, mid) if not horizontal else seg_piece(mid, lo, mid, hi)
            )
            warnings.append(DegenerateStrip(cell_id, orientation, lo, hi, rep))
    curves: list[CriticalCurve] = []
    for v, w_lo, w_hi in solutions:
        if horizontal:
            y_p = v - (0.5 if tau.label == "top" else -0.5)
            lo = max(w_lo - tau.dx, w_hi - 0.5)
            hi = min(w_hi - tau.dx, w_lo + 0.5)
            if hi - lo > 1e-12:
                curves.append(
                    CriticalCurve(cell_id, tau, [seg_piece(lo, y_p, hi, y_p)], True)
                )
        else:
            x_p = v - (0.5 if tau.label == "right" else -0.5)
            lo = max(w_lo - tau.dy, w_hi - 0.5)
            hi = min(w_hi - tau.dy, w_lo + 0.5)
            if hi - lo > 1e-12:
                curves.append(
                    CriticalCurve(cell_id, tau, [seg_piece(x_p, lo, x_p, hi)], True)
                )
    return curves


# ---------------------------------------------------------------------------
# per-cell regions and the union over cells
# ---------------------------------------------------------------------------

def cell_regions(arrangement: Arrangement, cell_id: int) -> _CellRegions:
    cell = arrangement.cells[cell_id]
    walls = arrangement.cell_walls(cell_id)
    wall_array = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _tag in walls], dtype=float)
    if arrangement.kind == "lines" or (cell.convex and not cell.holes):
        polygons = [arrangement.cell_polygon(cell_id)]
    else:
        polygons = [s.polygon for s in convex_decompose(cell, arrangement)]
    return _CellRegions([_Region(cell_id, poly, walls, wall_array) for poly in polygons])


def _cell_reaches(arrangement: Arrangement, cell_id: int, domain: BBox, reach: float) -> bool:
    poly = arrangement.cell_polygon(cell_id)
    return not (
        poly[:, 0].min() > domain.xmax + reach
        or poly[:, 0].max() < domain.xmin - reach
        or poly[:, 1].min() > domain.ymax + reach
        or poly[:, 1].max() < domain.ymin - reach
    )


def collect_S(
    tau: TranslationVector,
    arrangement: Arrangement,
    eps,
    domain: BBox | None = None,
    regions_cache: dict | None = None,
    warnings: list | None = None,
) -> list[CriticalCurve]:
    """Union of the per-cell curves of one vector over the whole arrangement."""
    e = float(eps)
    curves: list[CriticalCurve] = []
    for cell in arrangement.cells:
        if domain is not None and not _cell_reaches(arrangement, cell.id, domain, 1.0 + e):
            continue
        if regions_cache is not None:
            regions = regions_cache.get(cell.id)
            if regions is None:
                regions = cell_regions(arrangement, cell.id)
                regions_cache[cell.id] = regions
        else:
            regions = cell_regions(arrangement, cell.id)
        if tau.kind == "corner":
            curves.extend(corner_curve(cell.id, regions, tau, e))
        elif tau.kind == "edge":
            curves.extend(edge_curve(cell.id, regions, tau, e, warnings))
        else:
            from .circles import circle_cell_curves

            curves.extend(circle_cell_curves(cell.id, arrangement, tau, e))
    if domain is not None:
        curves = [c for c in (clip_curve_to_box(c, domain) for c in curves) if c]
    return curves


def clip_curve_to_box(curve: CriticalCurve, box: BBox) -> CriticalCurve | None:
    pieces: list[CurvePiece] = []
    for piece in curve.pieces:
        pieces.extend(_clip_piece_to_box(piece, box))
    if not pieces:
        return None
    return CriticalCurve(
        curve.cell_id, curve.vector, pieces, curve.convex_flag, curve.kind, curve.contact_ref
    )


def _clip_piece_to_box(piece: CurvePiece, box: BBox) -> list[CurvePiece]:
    if piece.kind == "seg":
        x0, y0 = piece.p0
        x1, y1 = piece.p1
        dx, dy = x1 - x0, y1 - y0
        clip = _slab_clip(x0, y0, dx, dy, 0.0, 1.0, box.xmin, box.ymin, box.xmax, box.ymax)
        if clip is None:
            return []
        t0, t1 = clip
        return [seg_piece(x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)]
    # arc: cut the parameter interval at the box-side crossings
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
        if u1 - u0 <= 1e-12:
            continue
        mx, my = piece.arc_point(0.5 * (u0 + u1))
        if box.contains(mx, my, slack=1e-9):
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
    if R <= 1e-15:
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
            if lo - 1e-12 <= r <= hi + 1e-12:
                roots.append(min(max(r, lo), hi))
    return roots


# ---------------------------------------------------------------------------
# contact curves: corner translates, endpoint rings, tangency offsets
# ---------------------------------------------------------------------------

def contact_curves(primitives: list, shape: str, domain: BBox) -> list[CriticalCurve]:
    """Placements where the boundary structure jumps without a gap of length
    eps: a square corner on a primitive, a primitive endpoint on the boundary,
    or a line tangent to the circle."""
    out: list[CriticalCurve] = []
    if shape == SQUARE:
        corners = [(c.x, c.y) for c in square_corners(_ORIGIN)]
        for k, prim in enumerate(primitives):
            if isinstance(prim, Line):
                for vx, vy in corners:
                    shifted = Line(
                        Point(prim.p.x - vx, prim.p.y - vy), Point(prim.q.x - vx, prim.q.y - vy)
                    )
                    piece = _line_piece(shifted, domain)
                    if piece is not None:
                        out.append(
                            CriticalCurve(-1, None, [piece], True, "contact", (k, (vx, vy)))
                        )
            else:
                seg: Segment = prim
                for vx, vy in corners:
                    out.append(
                        CriticalCurve(
                            -1,
                            None,
                            [seg_piece(seg.p.x - vx, seg.p.y - vy, seg.q.x - vx, seg.q.y - vy)],
                            True,
                            "contact",
                            (k, (vx, vy)),
                        )
                    )
                for end in (seg.p, seg.q):
                    cs = square_corners(end)
                    ring = [seg_piece(a.x, a.y, b.x, b.y) for a, b in zip(cs, cs[1:] + cs[:1])]
                    out.append(CriticalCurve(-1, None, ring, True, "contact", (k, "endpoint")))
    else:
        for k, prim in enumerate(primitives):
            if not isinstance(prim, Line):
                continue
            for off in (-1.0, 1.0):
                shifted = Line(
                    Point(prim.p.x + off * prim.a, prim.p.y + off * prim.b),
                    Point(prim.q.x + off * prim.a, prim.q.y + off * prim.b),
                )
                piece = _line_piece(shifted, domain)
                if piece is not None:
                    out.append(CriticalCurve(-1, None, [piece], True, "contact", (k, off)))
    clipped = [clip_curve_to_box(c, domain) for c in out]
    return [c for c in clipped if c]


def _line_piece(line: Line, box: BBox) -> CurvePiece | None:
    ends = _line_in_box(line, box.xmin, box.ymin, box.xmax, box.ymax)
    return None if ends is None else seg_piece(*ends[0], *ends[1])


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
    """Mask of the rows of an (n, 4) box array that come within 1e-9 of one box."""
    x0, y0, x1, y1 = box
    return (
        (boxes[:, 0] <= x1 + 1e-9)
        & (boxes[:, 2] >= x0 - 1e-9)
        & (boxes[:, 1] <= y1 + 1e-9)
        & (boxes[:, 3] >= y0 - 1e-9)
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
        if -1e-9 <= t <= 1.0 + 1e-9:
            pts.append((x, y))
    return pts


def _arc_coords(arc: CurvePiece, vx: float, vy: float):
    """(s, c) with s*vec_a + c*vec_b = (vx, vy); None for a flat arc."""
    ax, ay = arc.vec_a
    bx, by = arc.vec_b
    det = ax * by - ay * bx
    if abs(det) <= 1e-15:
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


def _piece_crossings(pieces: list[CurvePiece]) -> list[tuple[int, int, float, float]]:
    """Every crossing of two pieces as (i, j, x, y) with i < j.

    Segment pairs go through the arrangement's x-sweep; pairs with an arc
    are pruned by exact bounding boxes and solved in closed form.  Collinear
    overlaps are no crossing here: the sweep's overlap ends are dropped.
    """
    segs = [i for i, p in enumerate(pieces) if p.kind == "seg"]
    arcs = [i for i, p in enumerate(pieces) if p.kind == "arc"]
    ends = np.array([(*pieces[i].p0, *pieces[i].p1) for i in segs], dtype=float).reshape(-1, 4)
    crossings, _overlaps = _segment_crossings(ends[:, :2], ends[:, 2:])
    out = [(segs[a], segs[b], x, y) for a, b, x, y in crossings]
    if arcs:
        boxes = np.array([_piece_bbox(p) for p in pieces])
    for n, i in enumerate(arcs):
        cand = np.array(segs + arcs[n + 1 :], dtype=int)
        for j in cand[_boxes_meet(boxes[cand], boxes[i])].tolist():
            q = pieces[j]
            pts = _seg_arc_points(q, pieces[i]) if q.kind == "seg" else _arc_arc_points(pieces[i], q)
            out.extend((min(i, j), max(i, j), x, y) for x, y in pts)
    return out


def pair_intersections(curves_a: list[CriticalCurve], curves_b: list[CriticalCurve]) -> list[Point]:
    """Sorted, deduplicated points where a piece of one curve set crosses a
    piece of the other; collinear overlaps count as no crossing."""
    pieces = [p for c in curves_a for p in c.pieces]
    na = len(pieces)
    pieces += [p for c in curves_b for p in c.pieces]
    hits = _piece_crossings(pieces)
    return _dedupe_points((x, y) for i, j, x, y in hits if i < na <= j)


def _dedupe_points(points):
    seen = {}
    for x, y in points:
        seen[(round(x / VERTEX_SNAP), round(y / VERTEX_SNAP))] = (x, y)
    return [Point(x, y) for x, y in sorted(seen.values())]


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
    e = float(eps)
    pts = [(q.x, q.y) for prim in primitives for q in (prim.p, prim.q)]
    if not pts:
        pts = [(0.0, 0.0)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    diameter = SQRT2 if shape == SQUARE else 2.0
    return BBox(min(xs), min(ys), max(xs), max(ys)).expanded(diameter + e)


def placement_primitives(primitives: list) -> list:
    """The primitives a placement arrangement is built over: lines put in
    general position, or segments as given, never a mix of the two."""
    lines = [p for p in primitives if isinstance(p, Line)]
    if lines and len(lines) < len(primitives):
        raise GeometryError("scene mixes infinite lines and segments")
    return enforce_general_position(lines) if lines else list(primitives)


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
    if shape == CIRCLE and e >= 1.0:
        raise EpsilonTooLarge("circle curves are only computed for eps < 1")
    prims = placement_primitives(primitives)
    segments = any(isinstance(p, Segment) for p in prims)
    if shape == CIRCLE and segments:
        raise GeometryError("circle placements are only computed over lines")
    domain = default_domain(prims, shape, e)
    build = build_segment_arrangement if segments else build_line_arrangement
    arrangement = build(prims, clip_box=domain.expanded(1.0 + e + 0.25))
    warnings: list = []
    regions_cache: dict = {}
    curves: list[CriticalCurve] = []
    for tau in vectors.vectors:
        curves.extend(collect_S(tau, arrangement, e, domain, regions_cache, warnings))
    translates = contact_curves(prims, shape, domain) if include_line_translates else []
    counts = _overlay_counts(curves + translates, domain)
    return PlacementArrangement(
        shape, e, curves, translates, domain, counts, warnings, prims, vectors, arrangement
    )


def _overlay_counts(curves: list[CriticalCurve], domain: BBox) -> dict:
    """Vertex/edge/face counts of the curve overlay plus the domain frame."""
    pieces: list[CurvePiece] = [p for c in curves for p in c.pieces]
    frame = [
        seg_piece(domain.xmin, domain.ymin, domain.xmax, domain.ymin),
        seg_piece(domain.xmax, domain.ymin, domain.xmax, domain.ymax),
        seg_piece(domain.xmax, domain.ymax, domain.xmin, domain.ymax),
        seg_piece(domain.xmin, domain.ymax, domain.xmin, domain.ymin),
    ]
    pieces = pieces + frame

    pool: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []

    def vid(x: float, y: float) -> int:
        key = (round(x / VERTEX_SNAP), round(y / VERTEX_SNAP))
        if key in pool:
            return pool[key]
        idx = len(coords)
        pool[key] = idx
        coords.append((x, y))
        return idx

    per_piece_points: list[list[tuple[float, float]]] = [list(p.endpoints()) for p in pieces]
    for i, j, x, y in _piece_crossings(pieces):
        per_piece_points[i].append((x, y))
        per_piece_points[j].append((x, y))

    edge_keys: set[tuple] = set()
    adj_edges: list[tuple[int, int]] = []
    for i, piece in enumerate(pieces):
        pts = per_piece_points[i]
        params = sorted(set(_piece_param(piece, x, y) for x, y in pts))
        prev_vid = None
        prev_t = None
        for t in params:
            x, y = _piece_eval(piece, t)
            v = vid(x, y)
            if prev_vid is not None and v != prev_vid:
                mid = _piece_eval(piece, 0.5 * (prev_t + t))
                key = (
                    min(prev_vid, v),
                    max(prev_vid, v),
                    round(mid[0] / 1e-6),
                    round(mid[1] / 1e-6),
                )
                if key not in edge_keys:
                    edge_keys.add(key)
                    adj_edges.append((prev_vid, v))
            prev_vid, prev_t = v, t

    V = len(coords)
    E = len(adj_edges)
    F = 1 + _count_components(V, adj_edges) + E - V
    return {"vertices": V, "edges": E, "faces": F}


def _piece_param(piece: CurvePiece, x: float, y: float) -> float:
    if piece.kind == "seg":
        dx, dy = piece.p1[0] - piece.p0[0], piece.p1[1] - piece.p0[1]
        L2 = dx * dx + dy * dy
        if L2 <= 0.0:
            return 0.0
        t = ((x - piece.p0[0]) * dx + (y - piece.p0[1]) * dy) / L2
        return min(max(t, 0.0), 1.0)
    psi = _arc_param(piece, x, y)
    return piece.psi0 if psi is None else psi


def _piece_eval(piece: CurvePiece, t: float):
    if piece.kind == "seg":
        return (
            piece.p0[0] + t * (piece.p1[0] - piece.p0[0]),
            piece.p0[1] + t * (piece.p1[1] - piece.p0[1]),
        )
    return piece.arc_point(t)
