"""Reference implementations that tests compare the program against.

* `segment_intersection`: one segment pair's crossing, and
  `pairwise_segment_crossings`, the O(n^2) loop over it that split the
  arrangement's walls before the x-sweep did, with the overlap ends of
  collinear pairs.
* `reference_extract_faces`: the arrangement's face tracer as it was before
  it sorted each vertex's ring once and assigned holes in numpy.
* `in_cell_or_near`: point-in-cell with a slack band around the boundary.
* `f_value`: the distance sum of the corner-vector level sets, evaluated
  directly from the lines.
* `dense_scan_naive`: the dense placement scan built on `boundary_gaps`.
* `reference_ring_ok`: the validity of a circle ring piece at one parameter,
  judged from the gap profile, as the circle curves were once trimmed by
  sampling it.
* The square's curve construction as it was before the program clipped each
  profile strip once and cast its wall rays in numpy: profiles cast one ray
  per strip in a loop over the walls, and every (horizontal strip, vertical
  strip) pair clips the region anew.  `reference_collect` returns what
  `collect_S` returns for square vectors, and must return it bit for bit.
* `reference_verify`: `oracle.verify` as it was before it checked each
  curve's samples in one batch, one placement at a time through
  `reference_supports` (`is_epsilon_placement` plus witness containment, or
  `reference_contact_holds` for contact curves), with
  `reference_points_far_from_segments`, the dictionary-bucket loop over the
  scan points.  `sample_verdicts` puts the batched and the scalar verdict of
  every sample `verify` checks side by side.
"""

from __future__ import annotations

import math

import numpy as np

from critplace.arrangement import (
    Arrangement,
    BBox,
    Cell,
    _cycle_probe,
    _is_convex_walk,
    _point_segment_dist,
    convex_decompose,
)
from critplace.geom import (
    CIRCLE,
    TOL,
    GeometryError,
    Line,
    Point,
    shape_perimeter,
    square_corners,
)
from critplace.oracle import (
    _SAMPLE_INSET,
    _STEP_FLOOR,
    _WITNESS_SLACK,
    VerifyReport,
    _pair_report,
    boundary_gaps,
    is_epsilon_placement,
)
from critplace.placement import (
    _CORNER_QUADRANT,
    _QUADRANT_LOOK,
    CriticalCurve,
    TranslationVector,
    _CellRegions,
    _cell_reaches,
    _chain_is_convex,
    _ProfileStrip,
    _stitch_chains,
    clip_curve_to_box,
    edge_curve,
    seg_piece,
)


def segment_intersection(
    a0: Point, a1: Point, b0: Point, b1: Point, tol: float = 1e-12
) -> tuple[float, float, Point] | None:
    """Proper intersection of segments a and b.

    Returns (t, u, point) with t, u in [0, 1] such that
    point = a0 + t*(a1-a0) = b0 + u*(b1-b0), or None when the segments are
    parallel or miss each other.  Endpoint touches within tol count as hits.
    """
    dax, day = a1.x - a0.x, a1.y - a0.y
    dbx, dby = b1.x - b0.x, b1.y - b0.y
    det = dax * dby - day * dbx
    scale = max(abs(dax), abs(day), abs(dbx), abs(dby), 1.0)
    if abs(det) <= 1e-14 * scale * scale:
        return None
    rx, ry = b0.x - a0.x, b0.y - a0.y
    t = (rx * dby - ry * dbx) / det
    u = (rx * day - ry * dax) / det
    if -tol <= t <= 1.0 + tol and -tol <= u <= 1.0 + tol:
        t = min(max(t, 0.0), 1.0)
        u = min(max(u, 0.0), 1.0)
        return (t, u, Point(a0.x + t * dax, a0.y + t * day))
    return None


def pairwise_segment_crossings(P0: np.ndarray, P1: np.ndarray, slack: float = 1e-9):
    """What `arrangement._segment_crossings` returns, from a loop over every
    pair whose boxes come within slack of each other: the crossings, and the
    ends of collinear overlaps."""
    segs = [(Point(*a), Point(*b)) for a, b in zip(P0.tolist(), P1.tolist())]
    out, overlaps = [], set()
    for i, (p0, p1) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            q0, q1 = segs[j]
            if max(p0.x, p1.x) < min(q0.x, q1.x) - slack or max(q0.x, q1.x) < min(p0.x, p1.x) - slack:
                continue
            if max(p0.y, p1.y) < min(q0.y, q1.y) - slack or max(q0.y, q1.y) < min(p0.y, p1.y) - slack:
                continue
            det = (p1.x - p0.x) * (q1.y - q0.y) - (p1.y - p0.y) * (q1.x - q0.x)
            if abs(det) <= 1e-13:
                overlaps.update(_overlap_ends(i, j, segs, slack))
                continue
            hit = segment_intersection(p0, p1, q0, q1, tol=1e-12)
            if hit is not None:
                out.append((i, j, hit[2].x, hit[2].y))
    return out, sorted(overlaps)


def _overlap_ends(i: int, j: int, segs, slack: float):
    """Each end of segment i or j that lies on the other: off its line by at
    most slack times the shorter length, at a parameter within slack of [0, 1]."""
    for s, o in ((i, j), (j, i)):
        (o0, o1), (s0, s1) = segs[o], segs[s]
        dx, dy = o1.x - o0.x, o1.y - o0.y
        L2 = dx * dx + dy * dy
        short2 = min(L2, (s1.x - s0.x) ** 2 + (s1.y - s0.y) ** 2)
        for e in (s0, s1):
            ex, ey = e.x - o0.x, e.y - o0.y
            if L2 <= 0.0 or (dx * ey - dy * ex) ** 2 > slack**2 * L2 * short2:
                continue
            if -slack <= (ex * dx + ey * dy) / L2 <= 1.0 + slack:
                yield (i, j, e.x, e.y)


def reference_extract_faces(pts, edges) -> list[Cell]:
    """What `arrangement._extract_faces` returns, from a scan of the ring for
    every half-edge's next, an absolute area cut, and a wall list rebuilt for
    every (hole, cell) pair."""
    # half-edge h = (edge index, direction); outgoing lists per vertex
    out_at: dict[int, list[tuple[float, int]]] = {}
    half_target = {}
    half_tag = {}
    for ei, (u, v, tag) in enumerate(edges):
        for h, (a, b) in ((2 * ei, (u, v)), (2 * ei + 1, (v, u))):
            ang = math.atan2(pts[b][1] - pts[a][1], pts[b][0] - pts[a][0])
            out_at.setdefault(a, []).append((ang, h))
            half_target[h] = b
            half_tag[h] = tag
    for a in out_at:
        out_at[a].sort()

    nxt = {}
    for h, b in half_target.items():
        twin = h ^ 1
        ring = out_at[b]
        pos = next(k for k, (_, hh) in enumerate(ring) if hh == twin)
        nxt[h] = ring[(pos - 1) % len(ring)][1]

    seen = set()
    cycles = []
    for h0 in half_target:
        if h0 in seen:
            continue
        walk = []
        h = h0
        while h not in seen:
            seen.add(h)
            walk.append(h)
            h = nxt[h]
        cycles.append(walk)

    cyc_info = []
    for walk in cycles:
        vids = [half_target[h ^ 1] for h in walk]
        tags = [half_tag[h] for h in walk]
        cyc_info.append((vids, tags, _absolute_area(pts, vids)))

    pos_cycles = [c for c in cyc_info if c[2] > 1e-15]
    neg_cycles = [c for c in cyc_info if c[2] <= 1e-15]
    cells = [
        Cell(id=i, outer=vids, outer_tags=tags, convex=_is_convex_walk(pts, vids))
        for i, (vids, tags, _a) in enumerate(sorted(pos_cycles, key=lambda c: (-c[2], c[0])))
    ]
    order = sorted(range(len(cells)), key=lambda i: _absolute_area(pts, cells[i].outer))
    for vids, tags, _a in neg_cycles:
        px, py = _cycle_probe(pts, vids)
        for ci in order:
            outer = cells[ci].outer
            walls = [
                (Point(*pts[outer[k]]), Point(*pts[outer[(k + 1) % len(outer)]]), None)
                for k in range(len(outer))
            ]
            if _point_in_walls(walls, px, py):
                cells[ci].holes.append((vids, tags))
                cells[ci].convex = False
                break
    return cells


def _point_in_walls(walls, x: float, y: float) -> bool:
    crossings = 0
    for p0, p1, _tag in walls:
        y0, y1 = p0.y, p1.y
        if (y0 > y) == (y1 > y):
            continue
        t = (y - y0) / (y1 - y0)
        if p0.x + t * (p1.x - p0.x) > x:
            crossings += 1
    return crossings % 2 == 1


def _absolute_area(pts: np.ndarray, walk: list[int]) -> float:
    area = 0.0
    m = len(walk)
    for k in range(m):
        x0, y0 = pts[walk[k]]
        x1, y1 = pts[walk[(k + 1) % m]]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def in_cell_or_near(arrangement: Arrangement, pt: Point, cell_id: int, slack: float) -> bool:
    """Is the point in the cell, or within slack of one of its boundary steps
    (`cell_boundary_steps`, as the arrangement caches them)?"""
    return arrangement.point_in_cell(pt, cell_id) or any(
        _point_segment_dist(pt.x, pt.y, p0, p1) <= slack
        for p0, p1, _none in arrangement._step_walls(cell_id)
    )


class Unbounded(GeometryError):
    pass


def f_value(a: Point, lines: list[Line], quadrant: str) -> float:
    """Sum of the nearest-wall distances along the quadrant's two axis rays.

    For the upper-right quadrant this is the distance to the closest line
    hit leftward plus the distance to the closest line hit downward; other
    quadrants mirror the directions.  Raises Unbounded when a required
    direction has no line.
    """
    look_x, look_y = _QUADRANT_LOOK[quadrant]
    best_x = math.inf
    best_y = math.inf
    for ln in lines:
        if abs(ln.a) > 1e-12:
            t = (ln.x_at(a.y) - a.x) * look_x
            if t > 1e-12:
                best_x = min(best_x, t)
        if abs(ln.b) > 1e-12:
            t = (ln.y_at(a.x) - a.y) * look_y
            if t > 1e-12:
                best_y = min(best_y, t)
    if not (math.isfinite(best_x) and math.isfinite(best_y)):
        raise Unbounded(f"no line in a required direction from {a}")
    return best_x + best_y


def dense_scan_naive(
    primitives: list,
    shape: str,
    eps: float,
    bbox: BBox,
    resolution: float,
) -> np.ndarray:
    """Reference implementation of dense_scan built on boundary_gaps."""
    nx = max(2, int(math.floor(bbox.width / resolution)) + 1)
    ny = max(2, int(math.floor(bbox.height / resolution)) + 1)
    P = shape_perimeter(shape)
    profiles: dict[tuple[int, int], list] = {}
    for i in range(nx):
        for j in range(ny):
            c = Point(bbox.xmin + i * resolution, bbox.ymin + j * resolution)
            prof = boundary_gaps(c, primitives, shape)
            profiles[(i, j)] = [
                (
                    c.bound_ids[0] if c.bound_ids else -1,
                    c.bound_ids[1] if c.bound_ids else -1,
                    c.mid_s,
                    c.length,
                )
                for c in prof.components
                if c.bound_ids is not None
            ]
    pts = []
    for i in range(nx):
        for j in range(ny):
            for di, dj in ((1, 0), (0, 1)):
                if i + di >= nx or j + dj >= ny:
                    continue
                if _pair_report(profiles[(i, j)], profiles[(i + di, j + dj)], eps, P):
                    pts.append(
                        (
                            bbox.xmin + (i + 0.5 * di) * resolution,
                            bbox.ymin + (j + 0.5 * dj) * resolution,
                        )
                    )
    if not pts:
        return np.zeros((0, 2))
    return np.unique(np.array(pts), axis=0)


def reference_ring_ok(arrangement: Arrangement, cell_id: int, eps: float, piece, t: float) -> bool:
    """Is the circle ring piece valid at parameter t, by the gap profile?

    The boundary component around the tracked arc's midpoint direction must
    have length eps, be cut by the piece's own lines and have its midpoint in
    the cell, and both ends of the tracked arc must lie in the closed cell.
    """
    px, py = piece.center.at(t)
    theta = piece.mid_angle(t)
    for s in (theta - 0.5 * eps, theta + 0.5 * eps):
        end = Point(px + math.cos(s), py + math.sin(s))
        if not in_cell_or_near(arrangement, end, cell_id, 1e-9):
            return False
    prof = boundary_gaps(Point(px, py), arrangement.primitives, CIRCLE)
    for comp in prof.components:
        if comp.bound_ids is None:
            continue
        if (theta - comp.start) % (2.0 * math.pi) <= comp.length:
            if abs(comp.length - eps) > 1e-6:
                return False
            if frozenset(comp.bound_ids) != piece.bounds:
                return False
            return in_cell_or_near(arrangement, comp.mid_point, cell_id, 1e-9)
    return False


# ---------------------------------------------------------------------------
# square curves, one ray and one region clip at a time
# ---------------------------------------------------------------------------

class ReferenceRegion:
    """Convex region plus the walls of its owning cell, profiled by loops."""

    def __init__(self, cell_id: int, polygon: np.ndarray, walls):
        self.cell_id = cell_id
        self.polygon = polygon
        self.walls = walls
        self.profiles: dict = {}

    def profile(self, direction: str) -> list[_ProfileStrip]:
        if direction not in self.profiles:
            self.profiles[direction] = _direction_profile(self, direction)
        return self.profiles[direction]


def reference_regions(arrangement: Arrangement, cell_id: int) -> list[ReferenceRegion]:
    cell = arrangement.cells[cell_id]
    walls = arrangement.cell_walls(cell_id)
    if arrangement.kind == "lines" or (cell.convex and not cell.holes):
        return [ReferenceRegion(cell_id, arrangement.cell_polygon(cell_id), walls)]
    return [ReferenceRegion(cell_id, s.polygon, walls) for s in convex_decompose(cell, arrangement)]


def _region_span(poly: np.ndarray, axis: int, value: float) -> tuple[float, float] | None:
    """Cross-section interval of a convex polygon at axis == value."""
    other = 1 - axis
    hits: list[float] = []
    m = len(poly)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        va, vb = a[axis], b[axis]
        if (va > value) == (vb > value):
            continue
        t = (value - va) / (vb - va)
        hits.append(a[other] + t * (b[other] - a[other]))
    if len(hits) < 2:
        return None
    return (min(hits), max(hits))


def _direction_profile(region: ReferenceRegion, direction: str) -> list[_ProfileStrip]:
    poly = region.polygon
    axis = 1 if direction in ("left", "right") else 0
    vals = sorted({float(v[axis]) for v in poly})
    lo_all, hi_all = vals[0], vals[-1]
    for p0, p1, _tag in region.walls:
        for w in ((p0.y, p0.x), (p1.y, p1.x)) if axis == 1 else ((p0.x, p0.y), (p1.x, p1.y)):
            if lo_all + 1e-12 < w[0] < hi_all - 1e-12:
                vals.append(w[0])
    vals = sorted(set(round(v, 12) for v in vals))
    sign = -1.0 if direction in ("left", "down") else 1.0
    dvec = (sign, 0.0) if axis == 1 else (0.0, sign)

    strips: list[_ProfileStrip] = []
    for lo, hi in zip(vals, vals[1:]):
        if hi - lo <= 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        span = _region_span(poly, axis, mid)
        if span is None:
            continue
        sx = 0.5 * (span[0] + span[1])
        origin = (sx, mid) if axis == 1 else (mid, sx)
        hit = _first_wall_hit(origin, dvec, region.walls)
        if hit is None or hit[1][0] == "clip":
            strips.append(_ProfileStrip(lo, hi, True, None))
        else:
            p0, p1 = hit[2]
            ln = Line(p0, p1)
            strips.append(_ProfileStrip(lo, hi, False, (ln.a, ln.b, ln.c)))
    return strips


def _first_wall_hit(origin, dvec, walls):
    ox, oy = origin
    dx, dy = dvec
    best = None
    for p0, p1, tag in walls:
        ex, ey = p1.x - p0.x, p1.y - p0.y
        det = dx * ey - dy * ex
        if abs(det) <= 1e-14:
            continue
        rx, ry = p0.x - ox, p0.y - oy
        t = (rx * ey - ry * ex) / det
        u = (dy * rx - dx * ry) / det
        if t > 1e-12 and -1e-9 <= u <= 1.0 + 1e-9:
            if best is None or t < best[0]:
                best = (t, tag, (p0, p1))
    return best


def _clip_convex(poly: np.ndarray, axis: int, lo: float, hi: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon to a coordinate slab."""
    def clip_half(pts, keep):
        out = []
        m = len(pts)
        for i in range(m):
            a, b = pts[i], pts[(i + 1) % m]
            ka, kb = keep(a), keep(b)
            if ka >= -1e-12:
                out.append(a)
            if (ka > 1e-12 and kb < -1e-12) or (ka < -1e-12 and kb > 1e-12):
                t = ka / (ka - kb)
                out.append(a + t * (b - a))
        return out

    pts = [np.asarray(p, dtype=float) for p in poly]
    pts = clip_half(pts, lambda p: p[axis] - lo)
    if len(pts) < 3:
        return np.zeros((0, 2))
    pts = clip_half(pts, lambda p: hi - p[axis])
    if len(pts) < 3:
        return np.zeros((0, 2))
    return np.array(pts)


def _level_segment_in_poly(poly: np.ndarray, P: float, Q: float, R: float, level: float):
    """Clip the line P*x + Q*y + R = level to a convex polygon."""
    g = P * poly[:, 0] + Q * poly[:, 1] + R - level
    pts: list[np.ndarray] = []
    m = len(poly)
    for i in range(m):
        gi, gj = g[i], g[(i + 1) % m]
        if abs(gi) <= 1e-12:
            pts.append(poly[i])
        if (gi > 1e-12 and gj < -1e-12) or (gi < -1e-12 and gj > 1e-12):
            t = gi / (gi - gj)
            pts.append(poly[i] + t * (poly[(i + 1) % m] - poly[i]))
    if len(pts) < 2:
        return None
    proj = [float(x) * -Q + float(y) * P for x, y in pts]
    i0 = min(range(len(proj)), key=proj.__getitem__)
    i1 = max(range(len(proj)), key=proj.__getitem__)
    if proj[i1] - proj[i0] <= 1e-12 * max(1.0, abs(proj[i0])):
        return None
    return (pts[i0], pts[i1])


def _corner_level_segments(region: ReferenceRegion, look_x: float, look_y: float, eps: float):
    """Exact level-set segments of the distance-sum inside one region."""
    ph = region.profile("left" if look_x < 0 else "right")
    pv = region.profile("down" if look_y < 0 else "up")
    segs = []
    for sh in ph:
        if sh.open_side:
            continue
        a1, b1, c1 = sh.line
        # horizontal wall distance: look left => x - (c1 - b1*y)/a1
        if abs(a1) <= 1e-12:
            continue
        hP = -look_x
        hQ = -look_x * b1 / a1
        hR = look_x * c1 / a1
        for sv in pv:
            if sv.open_side:
                continue
            a2, b2, c2 = sv.line
            if abs(b2) <= 1e-12:
                continue
            vP = -look_y * a2 / b2
            vQ = -look_y
            vR = look_y * c2 / b2
            band = _clip_convex(region.polygon, 1, sh.lo, sh.hi)
            if len(band) < 3:
                continue
            band = _clip_convex(band, 0, sv.lo, sv.hi)
            if len(band) < 3:
                continue
            hit = _level_segment_in_poly(band, hP + vP, hQ + vQ, hR + vR, eps)
            if hit is not None:
                segs.append(hit)
    return segs


def corner_curve(cell_id: int, regions: list[ReferenceRegion], tau: TranslationVector, eps) -> list[CriticalCurve]:
    """Level-set chains for a corner vector inside one cell, in placement space."""
    e = float(eps)
    look_x, look_y = _QUADRANT_LOOK[_CORNER_QUADRANT[tau.label]]
    segs = []
    for region in regions:
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


def reference_collect(
    tau: TranslationVector,
    arrangement: Arrangement,
    eps: float,
    domain: BBox | None = None,
    warnings: list | None = None,
) -> list[CriticalCurve]:
    """`collect_S` for a square vector, with nothing cached between vectors."""
    curves: list[CriticalCurve] = []
    for cell in arrangement.cells:
        if domain is not None and not _cell_reaches(arrangement, cell.id, domain, 1.0 + eps):
            continue
        regions = reference_regions(arrangement, cell.id)
        if tau.kind == "corner":
            curves.extend(corner_curve(cell.id, regions, tau, eps))
        else:
            curves.extend(edge_curve(cell.id, _CellRegions(regions), tau, eps, warnings))
    if domain is not None:
        curves = [c for c in (clip_curve_to_box(c, domain) for c in curves) if c]
    return curves


# ---------------------------------------------------------------------------
# verify, one placement at a time
# ---------------------------------------------------------------------------

def reference_contact_holds(center: Point, primitives: list, shape: str) -> bool:
    """The contact condition of a contact curve, within the verify budget."""
    tol = TOL.eps_verify
    if shape == CIRCLE:
        for prim in primitives:
            if isinstance(prim, Line) and abs(abs(prim.side_of(center)) - 1.0) <= tol:
                return True
        return False
    corners = square_corners(center)
    for prim in primitives:
        if isinstance(prim, Line):
            if any(abs(prim.side_of(c)) <= tol for c in corners):
                return True
        else:
            for c in corners:
                if _point_segment_dist(c.x, c.y, prim.p, prim.q) <= tol:
                    return True
            for end in (prim.p, prim.q):
                if (
                    abs(max(abs(end.x - center.x), abs(end.y - center.y)) - 0.5) <= tol
                ):
                    return True
    return False


def reference_supports(pa, center: Point, curve: CriticalCurve) -> bool:
    """Definition-level check of one curve sample."""
    prims = pa.primitives
    if curve.kind == "contact":
        return reference_contact_holds(center, prims, pa.shape)
    ok, witnesses = is_epsilon_placement(center, prims, pa.shape, pa.eps)
    if not ok:
        return False
    if curve.vector is None:
        return True
    P = shape_perimeter(pa.shape)
    for w in witnesses:
        if (curve.vector.s - w.start) % P <= w.length + _WITNESS_SLACK:
            return True
    return False


def sample_verdicts(pa, delta: float):
    """(batched, scalar, contact) per curve sample that `verify` checks:
    `supports_placement`'s verdict, `reference_supports`'s verdict, and
    whether the sample is on a contact curve."""
    step = max(delta / 4.0, _STEP_FLOOR)
    batched, scalar, contact = [], [], []
    for curve in pa.all_curves():
        for piece in curve.pieces:
            length = piece.length()
            inset = min(0.02, _SAMPLE_INSET / max(length, 1e-9))
            pts = piece.sample_by_spacing(step, inset=inset)
            batched += pa.supports_placement(pts, curve).tolist()
            scalar += [reference_supports(pa, Point(x, y), curve) for x, y in pts]
            contact += [curve.kind == "contact"] * len(pts)
    return np.array(batched), np.array(scalar), np.array(contact)


def reference_verify(pa, scan: np.ndarray, delta: float) -> VerifyReport:
    unsupported: list[tuple[float, float]] = []
    step = max(delta / 4.0, _STEP_FLOOR)
    for curve in pa.all_curves():
        for piece in curve.pieces:
            length = piece.length()
            inset = min(0.02, _SAMPLE_INSET / max(length, 1e-9))
            for x, y in piece.sample_by_spacing(step, inset=inset):
                if not reference_supports(pa, Point(x, y), curve):
                    unsupported.append((x, y))

    missed: list[tuple[float, float]] = []
    polys = [piece.sample_by_spacing(step) for curve in pa.all_curves() for piece in curve.pieces]
    if scan.shape[0]:
        if not polys:
            missed = [tuple(p) for p in scan]
        else:
            seg_a = np.concatenate([p[:-1] for p in polys], axis=0)
            seg_b = np.concatenate([p[1:] for p in polys], axis=0)
            far = reference_points_far_from_segments(scan, seg_a, seg_b, delta)
            missed = [(float(scan[k, 0]), float(scan[k, 1])) for k in far]
    return VerifyReport(missed, unsupported)


def reference_points_far_from_segments(
    pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, delta: float
) -> list[int]:
    h = 1.5 * delta
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(seg_a.shape[0]):
        for x, y in (seg_a[i], seg_b[i]):
            buckets.setdefault((int(math.floor(x / h)), int(math.floor(y / h))), []).append(i)
    d = seg_b - seg_a
    L2 = np.maximum((d * d).sum(axis=1), 1e-30)
    far: list[int] = []
    for k in range(pts.shape[0]):
        px, py = float(pts[k, 0]), float(pts[k, 1])
        bx, by = int(math.floor(px / h)), int(math.floor(py / h))
        cand: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((bx + dx, by + dy), ()))
        if not cand:
            far.append(k)
            continue
        idx = np.unique(np.array(cand, dtype=np.int64))
        wx = px - seg_a[idx, 0]
        wy = py - seg_a[idx, 1]
        t = np.clip((wx * d[idx, 0] + wy * d[idx, 1]) / L2[idx], 0.0, 1.0)
        ddx = wx - t * d[idx, 0]
        ddy = wy - t * d[idx, 1]
        if float(np.min(ddx * ddx + ddy * ddy)) > delta * delta:
            far.append(k)
    return far
