"""Brute-force validators, independent of the analytic curve machinery.

Everything here works straight from the definition: cut the shape boundary at
its crossings with the input primitives, measure the pieces, and look for
pieces of length exactly the clustering granularity.  The dense scan walks a
grid of placements and reports the grid edges across which a piece length
crosses the target or a piece that long is born or dies, which gives a
resolution-accurate picture of the critical set to compare curves against.
One rule judges every edge, exact by continuity: crossings move continuously
with the placement, so their sorted order along the perimeter only rotates
or swaps through an empty piece, and their number changes only at a contact.
The square chord clip and the perimeter maps here are this module's own, not
shared with the construction, so that a fault in the construction's copies
shows up as a disagreement instead of being repeated by the check.  Many
placements at once go through one crossing table, `_crossing_rows`, and one
piece-length rule, `_piece_lengths`; the dense scan and the batched curve
check both read them, with the scalar definition's formulas and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrangement import BBox
from .geom import (
    CIRCLE,
    EPS_GEOM,
    EPS_VERIFY,
    SQUARE,
    GeometryError,
    Line,
    Point,
    Segment,
    require_positive,
    shape_perimeter,
)

# Tolerances, each with its reason.  The scalar definition and the batched
# sample check below read the same names, so the two cannot drift apart.
# A segment end this close (in its parameter) to the boundary is a contact,
# not a crossing; a direction component this small is parallel to a side.
_EPS_CROSS = 1e-12
# A crossing this close to a side's line lies on that side of the square.
_SIDE_TOL = 1e-9
# A chord clip keeps a line this far outside the square, or a chord whose
# ends cross by this much: rounding, not a miss.
_CHORD_SLACK = 1e-12
# A curve's fixed boundary point this far past a witness's end still lies in
# the witness (the point sits exactly on a witness end along the curve).
_WITNESS_SLACK = 1e-9
# Curve samples are spaced at least this far apart ...
_STEP_FLOOR = 1e-4
# ... and kept this far (in length) from a piece's ends, which are degenerate
# contact placements.
_SAMPLE_INSET = 1e-5
# A length or squared length below this is taken as this, so nothing divides
# by zero.
_LENGTH_FLOOR = 1e-30
# A scan resolution of eps/10 computed in floating point may land this far
# above it and is still accepted.
_RESOLUTION_SLACK = 1e-12
# The dense scan takes the crossings of about this many placement x crossing
# entries at once, a band of grid rows, so its memory does not grow with the
# grid.
_BAND_ENTRIES = 1 << 15


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


# ---------------------------------------------------------------------------
# crossings of a single placement
# ---------------------------------------------------------------------------

def _square_s(cx: float, cy: float, x: float, y: float) -> float:
    """Perimeter coordinate on the square around (cx, cy), half-open per side."""
    dx, dy = x - cx, y - cy
    tol = _SIDE_TOL
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
            if not (lo - _CHORD_SLACK <= p <= hi + _CHORD_SLACK):
                return None
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    if t0 > t1 + _CHORD_SLACK:
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
            if t1 - t0 <= EPS_GEOM:
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
                        abs(abs(x - center.x) - 0.5) <= EPS_GEOM
                        or abs(abs(y - center.y) - 0.5) <= EPS_GEOM
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
            if abs(abs(d) - 1.0) <= EPS_GEOM:
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
            if disc <= EPS_GEOM * A:
                if abs(disc) <= EPS_GEOM * A:
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
            mid_s = (s0 + 0.5 * length) % P
            mid = _perimeter_xy(shape, center, mid_s)
            comps.append(GapComponent(s0, length, (id0, id1), mid_s, mid))
    return GapProfile(center, shape, comps, crossings, warnings)


def is_epsilon_placement(
    center: Point, primitives: list, shape: str, eps: float
) -> tuple[bool, list[GapComponent]]:
    """True when some boundary component has length eps within the verify
    budget (EPS_VERIFY), with the witnesses."""
    profile = boundary_gaps(center, primitives, shape)
    witnesses = [c for c in profile.components if abs(c.length - eps) <= EPS_VERIFY]
    return (len(witnesses) > 0, witnesses)


# ---------------------------------------------------------------------------
# the same definition, for many placements at once
# ---------------------------------------------------------------------------

def _square_s_vec(CX, CY, x, y):
    dx = x - CX
    dy = y - CY
    tol = _SIDE_TOL
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


def _square_chord_rows(CX, CY, px: float, py: float, dx: float, dy: float,
                       t_lo: float, t_hi: float):
    """`_square_chord` for each center: (t0, t1, hit)."""
    t0 = np.full(CX.shape, t_lo)
    t1 = np.full(CX.shape, t_hi)
    hit = np.ones(CX.shape, dtype=bool)
    for d, p, lo, hi in ((dx, px, CX - 0.5, CX + 0.5), (dy, py, CY - 0.5, CY + 0.5)):
        if abs(d) <= _EPS_CROSS:
            hit &= (lo - _CHORD_SLACK <= p) & (p <= hi + _CHORD_SLACK)
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        t0 = np.maximum(t0, np.minimum(ta, tb))
        t1 = np.minimum(t1, np.maximum(ta, tb))
    return t0, t1, hit & ~(t0 > t1 + _CHORD_SLACK)


def _crossing_rows(centers: np.ndarray, primitives: list, shape: str):
    """The crossings `boundary_gaps` finds, for each row of centers: (S, ids,
    counts), each row of S sorted by (s, primitive id) and padded with inf,
    and ids the primitive of each entry.  The formulas and tolerances are
    those of `_crossings_square` and `_crossings_circle`; a circle is only
    cut by lines."""
    CX, CY = centers[:, 0], centers[:, 1]
    cols: list[np.ndarray] = []
    ids: list[int] = []
    for k, prim in enumerate(primitives):
        if shape == SQUARE:
            if isinstance(prim, Line):
                (dx, dy), px, py = prim.direction(), prim.p.x, prim.p.y
                t0, t1, hit = _square_chord_rows(CX, CY, px, py, dx, dy, -math.inf, math.inf)
                cuts = hit & ~(t1 - t0 <= EPS_GEOM)  # a tangent line cuts nothing
                ends = ((t0, cuts), (t1, cuts))
            else:
                px, py = prim.p.x, prim.p.y
                dx, dy = prim.q.x - px, prim.q.y - py
                t0, t1, hit = _square_chord_rows(CX, CY, px, py, dx, dy, 0.0, 1.0)
                # a segment end inside or on the boundary is a contact
                ends = ((t0, hit & (t0 > _EPS_CROSS)), (t1, hit & (t1 < 1.0 - _EPS_CROSS)))
            for t, valid in ends:
                cols.append(np.where(valid, _square_s_vec(CX, CY, px + t * dx, py + t * dy), np.inf))
        elif shape == CIRCLE:
            if not isinstance(prim, Line):
                raise GeometryError("circle placements are only computed over lines")
            d = prim.a * CX + prim.b * CY - prim.c
            cuts = np.abs(d) < 1.0
            half = np.sqrt(np.maximum(1.0 - d * d, 0.0))
            fx, fy = CX - d * prim.a, CY - d * prim.b
            for sgn in (-1.0, 1.0):
                x = fx + sgn * half * prim.b
                y = fy + sgn * half * -prim.a
                cols.append(np.where(cuts, np.arctan2(y - CY, x - CX) % (2.0 * math.pi), np.inf))
        else:
            raise ValueError(f"unknown shape {shape!r}")
        ids += [k, k]
    S = np.column_stack(cols)
    order = np.argsort(S, axis=1, kind="stable")
    S = np.take_along_axis(S, order, axis=1)
    return S, np.array(ids, dtype=np.int32)[order], np.isfinite(S).sum(axis=1)


def _piece_lengths(S: np.ndarray, counts: np.ndarray, P: float) -> np.ndarray:
    """The length of the piece from each crossing of a sorted crossing table
    to the next, by `boundary_gaps`' rule: the last piece of a row wraps past
    the origin, and coincident crossings bound an empty piece.  Entries past
    a row's crossings are nan."""
    length = np.full(S.shape, np.nan)
    with np.errstate(invalid="ignore"):  # padding minus padding: nan, as wanted
        length[:, :-1] = S[:, 1:] - S[:, :-1]
    # rows are sorted, so the remainder changes only a length of P or more; it
    # is taken there alone, since over the inf padding it costs as much as the
    # rest of a scan
    wrap = (length >= P) & np.isfinite(length)
    length[wrap] %= P
    rows = np.flatnonzero(counts)
    last = counts[rows] - 1
    length[rows, last] = S[rows, 0] + P - S[rows, last]
    return length


def witnessed(centers: np.ndarray, primitives: list, shape: str, eps: float,
              fixed_s: float | None) -> np.ndarray:
    """`is_epsilon_placement` for each row of centers (an (N, 2) array).

    With `fixed_s`, a witness must also contain that perimeter coordinate:
    the fixed boundary point of a curve's translation vector, which pins the
    witness to the curve's cell.
    """
    P = shape_perimeter(shape)
    whole = abs(P - eps) <= EPS_VERIFY  # no crossing: one piece, all of it
    if not primitives:
        return np.full(centers.shape[0], whole)
    S, _ids, counts = _crossing_rows(centers, primitives, shape)
    length = _piece_lengths(S, counts, P)
    wit = np.abs(length - eps) <= EPS_VERIFY
    if fixed_s is not None:
        wit[wit] = (fixed_s - S[wit]) % P <= length[wit] + _WITNESS_SLACK
    ok = wit.any(axis=1)
    ok[counts == 0] = whole
    return ok


def contact_holds(centers: np.ndarray, primitives: list, shape: str) -> np.ndarray:
    """The contact condition of a contact curve, for each row of centers,
    within the verify budget: a line tangent to the circle; a square corner
    on a line or segment, or a segment end on the square's boundary."""
    tol = EPS_VERIFY
    CX, CY = centers[:, 0], centers[:, 1]
    ok = np.zeros(CX.shape, dtype=bool)
    if shape == CIRCLE:
        for prim in primitives:
            if isinstance(prim, Line):
                ok |= np.abs(np.abs(prim.a * CX + prim.b * CY - prim.c) - 1.0) <= tol
        return ok
    corners = [(CX - 0.5, CY - 0.5), (CX + 0.5, CY - 0.5), (CX + 0.5, CY + 0.5), (CX - 0.5, CY + 0.5)]
    for prim in primitives:
        if isinstance(prim, Line):
            for x, y in corners:
                ok |= np.abs(prim.a * x + prim.b * y - prim.c) <= tol
            continue
        p, q = prim.p, prim.q
        dx, dy = q.x - p.x, q.y - p.y
        L2 = dx * dx + dy * dy  # a segment is longer than EPS_GEOM
        for x, y in corners:
            t = np.clip(((x - p.x) * dx + (y - p.y) * dy) / L2, 0.0, 1.0)
            ok |= np.hypot(x - p.x - t * dx, y - p.y - t * dy) <= tol
        for end in (p, q):
            ok |= np.abs(np.maximum(np.abs(end.x - CX), np.abs(end.y - CY)) - 0.5) <= tol
    return ok


# ---------------------------------------------------------------------------
# dense scan of placement space
# ---------------------------------------------------------------------------

def dense_scan(
    primitives: list,
    shape: str,
    eps: float,
    bbox: BBox,
    resolution: float,
) -> np.ndarray:
    """Midpoints of the grid edges across which some boundary piece's length
    crosses eps, or a piece at least eps long is born or dies.

    Crossings move continuously with the placement, and so does their sorted
    order along the perimeter: two crossings that swap at a vertex pass bound
    an empty piece as they swap, and a crossing that passes the perimeter
    origin only rotates the order.  So where both ends of a grid edge have as
    many crossings, their pieces pair up slot by slot, after the rotation
    that moves the crossings least (`_rotations`), and the edge is reported
    when a paired length crosses eps.  The count changes only at a contact (a
    tangency, a square corner on a primitive, a segment end on the
    boundary); there the edge is reported when a piece at least eps long on
    either side has a pair of bounding primitives that the other side lacks.
    The grid is scanned in bands of rows of about `_BAND_ENTRIES` placement x
    crossing entries, each band starting on the last one's last row.  The
    crossing table and the piece lengths are the ones `witnessed` reads, so
    the scan and the sample check apply one rule.
    """
    require_positive("resolution", resolution)
    if resolution > eps / 10.0 + _RESOLUTION_SLACK:
        raise ValueError("scan resolution must be at most eps/10")
    P = shape_perimeter(shape)
    if not primitives:
        return np.zeros((0, 2))
    nx = max(2, int(math.floor(bbox.width / resolution)) + 1)
    ny = max(2, int(math.floor(bbox.height / resolution)) + 1)
    xs = bbox.xmin + resolution * np.arange(nx)
    ys = bbox.ymin + resolution * np.arange(ny)
    step = max(1, _BAND_ENTRIES // (2 * len(primitives) * nx))
    hits = []
    for j0 in range(0, ny - 1, step):
        rows = ys[j0:j0 + step + 1]
        centers = np.column_stack((np.tile(xs, rows.size), np.repeat(rows, nx)))
        S, ids, counts = _crossing_rows(centers, primitives, shape)
        table = [a.reshape(rows.size, nx, *a.shape[1:])
                 for a in (centers, S, ids, counts, _piece_lengths(S, counts, P))]
        # edges between rows, then along rows: the last band took the edges
        # along this band's first row
        first = 1 if j0 else 0
        for a, b in ((np.s_[:-1], np.s_[1:]), (np.s_[first:, :-1], np.s_[first:, 1:])):
            (pa, *A), (pb, *B) = ([t[sl] for t in table] for sl in (a, b))
            hits.append(0.5 * (pa + pb)[_edge_hits(A, B, eps, P)])
    return np.unique(np.concatenate(hits), axis=0)


def _edge_hits(A, B, eps: float, P: float) -> np.ndarray:
    """Which grid edges the dense scan reports, given the crossings, ids,
    counts and piece lengths of their ends A and B, in crossing-table rows
    laid out like the edges."""
    (SA, IA, cA, LA), (SB, IB, cB, LB) = A, B
    k = np.arange(SA.shape[-1])
    same = (cA == cB) & (cA > 0)
    with np.errstate(invalid="ignore"):  # padding minus padding
        d = np.abs(SA - SB)
    moved = np.where(k < cA[..., None], np.minimum(d, P - d), 0.0).max(axis=-1)
    # Rotation 0 moves the crossings least where it moves none of them as far
    # as half of A's shortest piece: any other rotation pairs crossing k of A
    # with a crossing of B that close to another crossing of A, which lies at
    # least that shortest piece away from crossing k, so each of its moves is
    # longer than every move of rotation 0.
    far = same & (moved >= 0.5 * np.fmin.reduce(LA, axis=-1))
    # the nan padding compares false, so only a row's own pieces can cross
    hit = (same & ~far) & ((LA - eps) * (LB - eps) <= 0.0).any(axis=-1)
    c = cA[far][:, None]
    slot = (k + _rotations(SA[far], SB[far], c, P)[:, None]) % c
    hit[far] = ((LA[far] - eps) * (np.take_along_axis(LB[far], slot, axis=1) - eps) <= 0.0).any(axis=1)
    e = cA != cB
    ka, kb = _piece_keys(IA[e], cA[e]), _piece_keys(IB[e], cB[e])
    la, lb = LA[e], LB[e]
    born = (lb >= eps) & ~np.isin(kb, ka[np.isfinite(la)])
    died = (la >= eps) & ~np.isin(ka, kb[np.isfinite(lb)])
    hit[e] = (born | died).any(axis=1)
    return hit


def _rotations(SA, SB, counts, P: float) -> np.ndarray:
    """For each pair of sorted crossing rows with counts[i, 0] crossings
    each, the rotation r that moves the crossings least, summed in cyclic
    distance, when crossing k of A is taken to be crossing (k + r) mod count
    of B; the first such r on a tie."""
    k = np.arange(SA.shape[1])

    def moved(r):
        d = np.abs(SA - np.take_along_axis(SB, (k + r) % counts, axis=1))
        return np.where(k < counts, np.minimum(d, P - d), 0.0).sum(axis=1)

    cost = np.column_stack([moved(r) for r in range(k.size)])
    cost[k >= counts] = np.inf
    return cost.argmin(axis=1)


def _piece_keys(ids, counts) -> np.ndarray:
    """The pair of primitives bounding each piece of each crossing row, as one
    integer that also tells the rows apart."""
    M = ids.shape[1]  # more than any primitive id
    nxt = np.take_along_axis(ids, (np.arange(M) + 1) % np.maximum(counts, 1)[:, None], axis=1)
    return (np.arange(ids.shape[0])[:, None] * M + ids) * M + nxt


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
    contact condition rather than by piece length.  Each curve's samples are
    checked in one call.
    """
    require_positive("delta", delta)
    pa = placement_arrangement
    step = max(delta / 4.0, _STEP_FLOOR)
    unsupported: list[tuple[float, float]] = []
    polys: list[np.ndarray] = []
    for curve in pa.all_curves():
        # exact piece endpoints are degenerate contact placements, so the
        # checked samples stay strictly inside each piece
        samples = []
        for piece in curve.pieces:
            length = piece.length()
            n = int(length / step) + 2
            inset = min(0.02, _SAMPLE_INSET / max(length, _LENGTH_FLOOR))
            samples.append(piece.sample(n, inset=inset))
            polys.append(piece.sample(n))
        if samples:
            pts = np.concatenate(samples)
            unsupported += map(tuple, pts[~pa.supports_placement(pts, curve)].tolist())

    # scan points -> nearest curve distance
    missed: list[tuple[float, float]] = []
    if scan.shape[0]:
        if not polys:
            missed = list(map(tuple, scan.tolist()))
        else:
            seg_a = np.concatenate([p[:-1] for p in polys], axis=0)
            seg_b = np.concatenate([p[1:] for p in polys], axis=0)
            far = _points_far_from_segments(scan, seg_a, seg_b, delta)
            missed = list(map(tuple, scan[far].tolist()))
    return VerifyReport(missed, unsupported)


# the 3x3 bucket neighbourhood of a point, as (column, row) offsets
_NEIGHBOURS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=np.int64)
# scan points paired with their candidate segments at once: pairing a whole
# scan at once raised the benchmark's peak memory by half, and chunks larger
# than this run no faster
_SCAN_CHUNK = 128


def _points_far_from_segments(
    pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, delta: float
) -> np.ndarray:
    """Indices, ascending, of points farther than delta from every segment.

    Segments are filed into buckets of side 1.5*delta by both endpoints; since
    curve samples are spaced well below delta, the 3x3 buckets around a point
    hold every segment that could come within delta of it.  The buckets are
    the endpoints sorted by bucket key, so each bucket is one range of the
    sorted keys; points are paired with the segments of their nine ranges a
    chunk at a time.
    """
    h = 1.5 * delta
    n = seg_a.shape[0]
    end_cell = np.floor(np.concatenate((seg_a, seg_b)) / h).astype(np.int64)
    base = end_cell.min(axis=0)
    span = end_cell.max(axis=0) - base + 1
    keys = (end_cell[:, 0] - base[0]) * span[1] + (end_cell[:, 1] - base[1])
    order = np.argsort(keys, kind="stable")
    keys, seg_of = keys[order], order % n
    d = seg_b - seg_a
    L2 = np.maximum((d * d).sum(axis=1), _LENGTH_FLOOR)
    pt_cell = np.floor(pts / h).astype(np.int64) - base
    best = np.full(pts.shape[0], np.inf)
    for c0 in range(0, pts.shape[0], _SCAN_CHUNK):
        cell = pt_cell[c0:c0 + _SCAN_CHUNK, None, :] + _NEIGHBOURS  # (chunk, 9, 2)
        inside = np.all((cell >= 0) & (cell < span), axis=2)
        nkey = np.where(inside, cell[..., 0] * span[1] + cell[..., 1], -1).ravel()
        lo = np.searchsorted(keys, nkey, side="left")
        cnt = np.searchsorted(keys, nkey, side="right") - lo
        total = int(cnt.sum())
        if total == 0:
            continue
        # one (point, segment) pair per endpoint in a neighbouring bucket;
        # pair k of all the pairs is sorted end lo + (k - first pair of its range)
        owner = np.repeat(c0 + np.arange(nkey.shape[0]) // 9, cnt)
        first = np.cumsum(cnt) - cnt
        seg = seg_of[np.repeat(lo - first, cnt) + np.arange(total)]
        wx = pts[owner, 0] - seg_a[seg, 0]
        wy = pts[owner, 1] - seg_a[seg, 1]
        t = np.clip((wx * d[seg, 0] + wy * d[seg, 1]) / L2[seg], 0.0, 1.0)
        ddx = wx - t * d[seg, 0]
        ddy = wy - t * d[seg, 1]
        np.minimum.at(best, owner, ddx * ddx + ddy * ddy)
    return np.flatnonzero(best > delta * delta)
