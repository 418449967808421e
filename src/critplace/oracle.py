"""Brute-force validators, independent of the analytic curve machinery.

Everything here works straight from the definition: cut the shape boundary at
its crossings with the input primitives, measure the pieces, and look for
pieces of length exactly the clustering granularity.  The dense scan walks a
grid of placements and reports where a piece length crosses the target, which
gives a resolution-accurate picture of the critical set to compare curves
against.  The square chord clip and the perimeter maps here are this module's
own, not shared with the construction, so that a fault in the construction's
copies shows up as a disagreement instead of being repeated by the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrangement import BBox
from .geom import (
    CIRCLE,
    SQUARE,
    TOL,
    Line,
    Point,
    Segment,
    shape_perimeter,
)

_EPS_CROSS = 1e-12


@dataclass(frozen=True)
class GapComponent:
    """One connected piece of the shape boundary between two crossings."""

    start: float  # perimeter coordinate of the CCW start
    length: float
    bound_ids: tuple[int, int] | None  # primitive ids cutting the two ends
    mid_s: float
    mid_point: Point


@dataclass
class GapProfile:
    center: Point
    shape: str
    components: list[GapComponent]
    crossings: list[tuple[float, int]]  # (perimeter coord, primitive id)
    warnings: list[str] = field(default_factory=list)

    def total_length(self) -> float:
        return sum(c.length for c in self.components)


# ---------------------------------------------------------------------------
# crossings of a single placement
# ---------------------------------------------------------------------------

def _square_s(cx: float, cy: float, x: float, y: float) -> float:
    """Perimeter coordinate on the square around (cx, cy), half-open per side."""
    dx, dy = x - cx, y - cy
    tol = 1e-9
    if abs(dy + 0.5) <= tol and dx < 0.5 - tol:
        return dx + 0.5
    if abs(dx - 0.5) <= tol and dy < 0.5 - tol:
        return 1.0 + dy + 0.5
    if abs(dy - 0.5) <= tol and dx > -0.5 + tol:
        return 2.0 + 0.5 - dx
    return (3.0 + 0.5 - dy) % 4.0


def _square_chord(center: Point, px: float, py: float, dx: float, dy: float,
                  t_lo: float, t_hi: float) -> tuple[float, float] | None:
    """Clip the parametric line p + t*d to the closed square; None if missed."""
    t0, t1 = t_lo, t_hi
    for d, p, lo, hi in (
        (dx, px, center.x - 0.5, center.x + 0.5),
        (dy, py, center.y - 0.5, center.y + 0.5),
    ):
        if abs(d) <= _EPS_CROSS:
            if not (lo - 1e-12 <= p <= hi + 1e-12):
                return None
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    if t0 > t1 + 1e-12:
        return None
    return (t0, t1)


def _crossings_square(center: Point, primitives: list, warnings: list[str]):
    out: list[tuple[float, int]] = []
    for k, prim in enumerate(primitives):
        if isinstance(prim, Line):
            dx, dy = prim.direction()
            px, py = prim.p.x, prim.p.y
            chord = _square_chord(center, px, py, dx, dy, -math.inf, math.inf)
            if chord is None:
                continue
            t0, t1 = chord
            if t1 - t0 <= TOL.eps_geom:
                warnings.append(f"tangency: primitive {k} touches the boundary")
                continue
            for t in (t0, t1):
                out.append((_square_s(center.x, center.y, px + t * dx, py + t * dy), k))
        else:
            seg: Segment = prim
            dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
            chord = _square_chord(center, seg.p.x, seg.p.y, dx, dy, 0.0, 1.0)
            if chord is None:
                continue
            t0, t1 = chord
            for t, is_end in ((t0, t0 <= _EPS_CROSS), (t1, t1 >= 1.0 - _EPS_CROSS)):
                if is_end:
                    # segment endpoint inside or on the boundary: a contact,
                    # not a crossing
                    x, y = seg.p.x + t * dx, seg.p.y + t * dy
                    if (
                        abs(abs(x - center.x) - 0.5) <= TOL.eps_geom
                        or abs(abs(y - center.y) - 0.5) <= TOL.eps_geom
                    ):
                        warnings.append(
                            f"tangency: endpoint of primitive {k} on the boundary"
                        )
                    continue
                out.append((_square_s(center.x, center.y, seg.p.x + t * dx, seg.p.y + t * dy), k))
    return out


def _crossings_circle(center: Point, primitives: list, warnings: list[str]):
    out: list[tuple[float, int]] = []
    two_pi = 2.0 * math.pi
    for k, prim in enumerate(primitives):
        if isinstance(prim, Line):
            d = prim.side_of(center)
            if abs(abs(d) - 1.0) <= TOL.eps_geom:
                warnings.append(f"tangency: primitive {k} tangent to the circle")
            # a line that still crosses keeps both crossings, however close:
            # dropping it would merge the pieces on either side of them
            if abs(d) >= 1.0:
                continue
            half = math.sqrt(1.0 - d * d)
            fx = center.x - d * prim.a
            fy = center.y - d * prim.b
            ux, uy = prim.b, -prim.a
            for sgn in (-1.0, 1.0):
                x = fx + sgn * half * ux
                y = fy + sgn * half * uy
                out.append((math.atan2(y - center.y, x - center.x) % two_pi, k))
        else:
            seg: Segment = prim
            dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
            fx, fy = seg.p.x - center.x, seg.p.y - center.y
            A = dx * dx + dy * dy
            B = 2.0 * (fx * dx + fy * dy)
            C = fx * fx + fy * fy - 1.0
            disc = B * B - 4.0 * A * C
            if disc <= TOL.eps_geom * A:
                if abs(disc) <= TOL.eps_geom * A:
                    warnings.append(f"tangency: primitive {k} tangent to the circle")
                continue
            rt = math.sqrt(disc)
            for t in ((-B - rt) / (2 * A), (-B + rt) / (2 * A)):
                if _EPS_CROSS < t < 1.0 - _EPS_CROSS:
                    x, y = seg.p.x + t * dx, seg.p.y + t * dy
                    out.append((math.atan2(y - center.y, x - center.x) % two_pi, k))
                elif -_EPS_CROSS <= t <= _EPS_CROSS or 1.0 - _EPS_CROSS <= t <= 1.0 + _EPS_CROSS:
                    warnings.append(
                        f"tangency: endpoint of primitive {k} on the circle"
                    )
    return out


def _perimeter_xy(shape: str, center: Point, s: float) -> Point:
    if shape == CIRCLE:
        return Point(center.x + math.cos(s), center.y + math.sin(s))
    side, frac = int(s % 4.0), (s % 4.0) - int(s % 4.0)
    cx, cy = center.x, center.y
    if side == 0:
        return Point(cx - 0.5 + frac, cy - 0.5)
    if side == 1:
        return Point(cx + 0.5, cy - 0.5 + frac)
    if side == 2:
        return Point(cx + 0.5 - frac, cy + 0.5)
    return Point(cx - 0.5, cy + 0.5 - frac)


def boundary_gaps(center: Point, primitives: list, shape: str) -> GapProfile:
    """All boundary components of the shape at this placement, with lengths.

    Components spanning a square corner are single pieces whose length is the
    sum of the incident side parts.
    """
    warnings: list[str] = []
    if shape == SQUARE:
        crossings = _crossings_square(center, primitives, warnings)
    elif shape == CIRCLE:
        crossings = _crossings_circle(center, primitives, warnings)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    P = shape_perimeter(shape)
    crossings.sort()
    comps: list[GapComponent] = []
    if not crossings:
        mid = _perimeter_xy(shape, center, 0.0)
        comps.append(GapComponent(0.0, P, None, 0.0, mid))
    else:
        m = len(crossings)
        for i in range(m):
            s0, id0 = crossings[i]
            s1, id1 = crossings[(i + 1) % m]
            length = (s1 - s0) % P
            if i == m - 1:
                length = s1 + P - s0
            if length <= 0.0:
                length += P
            mid_s = (s0 + 0.5 * length) % P
            mid = _perimeter_xy(shape, center, mid_s)
            comps.append(GapComponent(s0, length, (id0, id1), mid_s, mid))
    return GapProfile(center, shape, comps, crossings, warnings)


def is_epsilon_placement(
    center: Point, primitives: list, shape: str, eps: float
) -> tuple[bool, list[GapComponent]]:
    """True when some boundary component has length eps within the verify
    budget (TOL.eps_verify), with the witnesses."""
    profile = boundary_gaps(center, primitives, shape)
    witnesses = [c for c in profile.components if abs(c.length - eps) <= TOL.eps_verify]
    return (len(witnesses) > 0, witnesses)


# ---------------------------------------------------------------------------
# dense scan of placement space
# ---------------------------------------------------------------------------

def _component_table(primitives: list, shape: str, CX: np.ndarray, CY: np.ndarray):
    """Vectorized crossing table: sorted s-coords and primitive ids per placement.

    Returns (S, LIDS, counts) where S is (G, M) sorted with inf padding.
    """
    G = CX.shape[0]
    s_cols: list[np.ndarray] = []
    lid_cols: list[int] = []

    def add(svals: np.ndarray, valid: np.ndarray, lid: int) -> None:
        col = np.where(valid, svals, np.inf)
        s_cols.append(col)
        lid_cols.append(lid)

    if shape == SQUARE:
        for k, prim in enumerate(primitives):
            if isinstance(prim, Line):
                a, b, c = prim.a, prim.b, prim.c
                if abs(a) > 1e-12:
                    xb = (c - b * (CY - 0.5)) / a
                    u = xb - (CX - 0.5)
                    add(u, (u >= 0.0) & (u < 1.0), k)
                    xt = (c - b * (CY + 0.5)) / a
                    u = (CX + 0.5) - xt
                    add(2.0 + u, (u >= 0.0) & (u < 1.0), k)
                if abs(b) > 1e-12:
                    yr = (c - a * (CX + 0.5)) / b
                    v = yr - (CY - 0.5)
                    add(1.0 + v, (v >= 0.0) & (v < 1.0), k)
                    yl = (c - a * (CX - 0.5)) / b
                    v = (CY + 0.5) - yl
                    add(3.0 + v, (v >= 0.0) & (v < 1.0), k)
            else:
                seg: Segment = prim
                dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
                t0 = np.full(G, 0.0)
                t1 = np.full(G, 1.0)
                ok = np.ones(G, dtype=bool)
                for d, p, lo, hi in (
                    (dx, seg.p.x, CX - 0.5, CX + 0.5),
                    (dy, seg.p.y, CY - 0.5, CY + 0.5),
                ):
                    if abs(d) <= 1e-15:
                        ok &= (lo <= p) & (p <= hi)
                        continue
                    ta = (lo - p) / d
                    tb = (hi - p) / d
                    lo_t = np.minimum(ta, tb)
                    hi_t = np.maximum(ta, tb)
                    t0 = np.maximum(t0, lo_t)
                    t1 = np.minimum(t1, hi_t)
                ok &= t0 < t1
                for t, inner in ((t0, t0 > 1e-12), (t1, t1 < 1.0 - 1e-12)):
                    x = seg.p.x + t * dx
                    y = seg.p.y + t * dy
                    s = _square_s_vec(CX, CY, x, y)
                    add(s, ok & inner, k)
    elif shape == CIRCLE:
        two_pi = 2.0 * math.pi
        for k, prim in enumerate(primitives):
            if not isinstance(prim, Line):
                raise NotImplementedError("circle scan supports line inputs")
            d = prim.a * CX + prim.b * CY - prim.c
            inside = np.abs(d) < 1.0
            half = np.sqrt(np.maximum(1.0 - d * d, 0.0))
            fx = -d * prim.a
            fy = -d * prim.b
            for sgn in (-1.0, 1.0):
                x = fx + sgn * half * prim.b
                y = fy - sgn * half * prim.a
                add(np.arctan2(y, x) % two_pi, inside, k)
    else:
        raise ValueError(f"unknown shape {shape!r}")

    if not s_cols:
        return np.full((G, 0), np.inf), np.zeros((G, 0), dtype=np.int32), np.zeros(G, dtype=np.int64)
    S = np.column_stack(s_cols)
    LID = np.broadcast_to(np.array(lid_cols, dtype=np.int32), S.shape)
    order = np.argsort(S, axis=1)
    S_sorted = np.take_along_axis(S, order, axis=1)
    L_sorted = np.take_along_axis(np.ascontiguousarray(LID), order, axis=1)
    counts = np.isfinite(S_sorted).sum(axis=1)
    return S_sorted, L_sorted, counts


def _square_s_vec(CX, CY, x, y):
    dx = x - CX
    dy = y - CY
    tol = 1e-9
    s = np.empty_like(dx)
    done = np.zeros(dx.shape, dtype=bool)
    m = (np.abs(dy + 0.5) <= tol) & (dx < 0.5 - tol)
    s[m] = dx[m] + 0.5
    done |= m
    m = (np.abs(dx - 0.5) <= tol) & (dy < 0.5 - tol) & ~done
    s[m] = 1.0 + dy[m] + 0.5
    done |= m
    m = (np.abs(dy - 0.5) <= tol) & (dx > -0.5 + tol) & ~done
    s[m] = 2.0 + 0.5 - dx[m]
    done |= m
    m = ~done
    s[m] = (3.0 + 0.5 - dy[m]) % 4.0
    return s


def _components_from_table(S, LID, counts, perimeter: float):
    """Component length per placement from the sorted crossing table.

    Component k of a row starts at crossing k and ends at crossing k+1
    (cyclically); rows keep s-order, so neighbors in placement space align
    columnwise unless a crossing passed the perimeter origin.
    """
    G, M = S.shape
    if M == 0:
        return np.full((G, 0), np.nan)
    nxt_s = np.empty_like(S)
    nxt_s[:, :-1] = S[:, 1:]
    nxt_s[:, -1] = np.inf
    rows = np.arange(G)
    last = np.maximum(counts - 1, 0)
    nxt_s[rows, last] = S[:, 0] + perimeter
    with np.errstate(invalid="ignore"):
        comp_len = nxt_s - S
    comp_len[~np.isfinite(comp_len)] = np.nan
    return comp_len


def dense_scan(
    primitives: list,
    shape: str,
    eps: float,
    bbox: BBox,
    resolution: float,
) -> np.ndarray:
    """Grid points where some boundary component length crosses eps.

    Components are matched between neighboring grid placements by the pair of
    primitives bounding them (plus midpoint proximity); a matched component
    whose length passes through eps yields the midpoint of the two placements.
    Components that appear or disappear while longer than eps are reported
    conservatively: their length either crossed eps or jumped across it at a
    contact event.
    """
    if resolution > eps / 10.0 + 1e-12:
        raise ValueError("scan resolution must be at most eps/10")
    nx = max(2, int(math.floor(bbox.width / resolution)) + 1)
    ny = max(2, int(math.floor(bbox.height / resolution)) + 1)
    xs = bbox.xmin + resolution * np.arange(nx)
    ys = bbox.ymin + resolution * np.arange(ny)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    CX = XX.ravel()
    CY = YY.ravel()
    P = shape_perimeter(shape)

    S, LID, counts = _component_table(primitives, shape, CX, CY)
    comp_len = _components_from_table(S, LID, counts, P)

    M = S.shape[1]
    if M == 0:
        return np.zeros((0, 2))

    S3 = S.reshape(nx, ny, M)
    L3 = LID.reshape(nx, ny, M)
    len3 = comp_len.reshape(nx, ny, M)
    cnt2 = counts.reshape(nx, ny)
    valid3 = np.isfinite(len3)

    pts_chunks: list[np.ndarray] = []
    for axis in (0, 1):
        if axis == 0:
            A = (slice(None, -1), slice(None))
            B = (slice(1, None), slice(None))
        else:
            A = (slice(None), slice(None, -1))
            B = (slice(None), slice(1, None))
        vA, vB = valid3[A], valid3[B]
        both = vA & vB
        lenA = len3[A]
        lenB = len3[B]
        # same structure: same count, same bounding ids in s-order, and no
        # crossing slid past the perimeter origin between the neighbors
        with np.errstate(invalid="ignore"):
            ds = np.abs(S3[A] - S3[B])
        ds[~both] = 0.0
        same = (
            (cnt2[A] == cnt2[B])
            & np.all((L3[A] == L3[B]) | ~both, axis=-1)
            & (ds.max(axis=-1) <= P / 4.0)
        )
        with np.errstate(invalid="ignore"):
            crossed = ((lenA - eps) * (lenB - eps) <= 0.0) & both
        hit_fast = same & np.any(crossed, axis=-1)

        # slow path only where a length near or above eps is in play
        with np.errstate(invalid="ignore"):
            big = np.any((lenA >= eps) & vA, axis=-1) | np.any(
                (lenB >= eps) & vB, axis=-1
            )
        slow_mask = ~same & big

        mx = 0.5 * (XX[A] + XX[B])
        my = 0.5 * (YY[A] + YY[B])
        if hit_fast.any():
            pts_chunks.append(np.column_stack((mx[hit_fast], my[hit_fast])))
        si, sj = np.nonzero(slow_mask)
        slow_pts = []
        SA, SB = S3[A], S3[B]
        LA, LB = L3[A], L3[B]
        for i, j in zip(si, sj):
            compsA = _row_components(SA[i, j], LA[i, j], lenA[i, j], P)
            compsB = _row_components(SB[i, j], LB[i, j], lenB[i, j], P)
            if _pair_report(compsA, compsB, eps, P):
                slow_pts.append((mx[i, j], my[i, j]))
        if slow_pts:
            pts_chunks.append(np.array(slow_pts))
    if not pts_chunks:
        return np.zeros((0, 2))
    return np.unique(np.concatenate(pts_chunks, axis=0), axis=0)


def _row_components(s_row, lid_row, len_row, perimeter: float):
    cnt = int(np.isfinite(len_row).sum())
    comps = []
    for k in range(cnt):
        mid = (s_row[k] + 0.5 * len_row[k]) % perimeter
        comps.append(
            (int(lid_row[k]), int(lid_row[(k + 1) % cnt]), float(mid), float(len_row[k]))
        )
    return comps


def _pair_report(compsA, compsB, eps: float, perimeter: float) -> bool:
    """Match two component lists; True when a length crossed or jumped eps.

    Matching goes by cyclic midpoint proximity (component identities relabel
    when two crossings swap order at a vertex pass, so bounding ids only earn
    a tie-break bonus).  A component that appears or disappears while at
    least eps long either crossed eps or jumped over it at a contact event.
    """
    cap = perimeter / 8.0
    cand = []
    for ka, (a0, a1, am, al) in enumerate(compsA):
        for kb, (b0, b1, bm, bl) in enumerate(compsB):
            d = abs(am - bm)
            d = min(d, perimeter - d)
            if d > cap:
                continue
            if a0 == b0 and a1 == b1:
                d -= 0.01 * perimeter
            cand.append((d, ka, kb))
    cand.sort()
    usedA = [False] * len(compsA)
    usedB = [False] * len(compsB)
    for _d, ka, kb in cand:
        if usedA[ka] or usedB[kb]:
            continue
        usedA[ka] = True
        usedB[kb] = True
        if (compsA[ka][3] - eps) * (compsB[kb][3] - eps) <= 0.0:
            return True
    for ka, comp in enumerate(compsA):
        if not usedA[ka] and comp[3] >= eps:
            return True
    for kb, comp in enumerate(compsB):
        if not usedB[kb] and comp[3] >= eps:
            return True
    return False


# ---------------------------------------------------------------------------
# cross-checking curves against the scan
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    missed_scan_points: list[tuple[float, float]]
    unsupported_curve_samples: list[tuple[float, float]]

    def empty(self) -> bool:
        return not self.missed_scan_points and not self.unsupported_curve_samples


def verify(placement_arrangement, scan: np.ndarray, delta: float) -> VerifyReport:
    """Mutual coverage between emitted curves and the dense scan.

    A scan point with no curve within delta is missed; a curve sample that the
    definition-level check rejects is unsupported.  Contact curves (corner
    translates, endpoint rings, tangency offsets) are validated by their
    contact condition rather than by piece length.
    """
    pa = placement_arrangement

    # curve samples -> definition check; exact piece endpoints are degenerate
    # contact placements, so sampling stays strictly inside each piece
    unsupported: list[tuple[float, float]] = []
    step = max(delta / 4.0, 1e-4)
    for curve in pa.all_curves():
        for piece in curve.pieces:
            length = piece.length()
            inset = min(0.02, 1e-5 / max(length, 1e-9))
            for x, y in piece.sample_by_spacing(step, inset=inset):
                if not pa.supports_placement(Point(x, y), curve):
                    unsupported.append((x, y))

    # scan points -> nearest curve distance
    missed: list[tuple[float, float]] = []
    polys = pa.sampled_polylines(step)
    if scan.shape[0]:
        if not polys:
            missed = [tuple(p) for p in scan]
        else:
            seg_a = np.concatenate([p[:-1] for p in polys], axis=0)
            seg_b = np.concatenate([p[1:] for p in polys], axis=0)
            far = _points_far_from_segments(scan, seg_a, seg_b, delta)
            missed = [(float(scan[k, 0]), float(scan[k, 1])) for k in far]
    return VerifyReport(missed, unsupported)


def _points_far_from_segments(
    pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, delta: float
) -> list[int]:
    """Indices of points farther than delta from every segment.

    Segments are hashed into buckets by both endpoints; since curve samples
    are spaced well below delta, a 3x3 neighborhood of 1.5*delta buckets
    covers every segment that could come within delta of a point.
    """
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
