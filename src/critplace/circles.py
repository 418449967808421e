"""Placement curves of the unit circle over line arrangements.

Sliding the circle so that one boundary arc of length eps stays inside a
convex cell pins the two crossing points to two cell edges.  The chord
between the crossings has fixed length 2*sin(eps/2) and the center rides at
distance cos(eps/2) from its midpoint, so the center traces an ellipse in the
frame spanned by the edge pair's angular bisector (a straight offset segment
when both crossings ride the same line).

Each such ring piece is valid where both crossings lie on their cell edges
and no line crosses the open arc between them; such an arc lies in the cell
(a frame wall, which no line supports, could cut it only far outside every
placement domain).  That changes only where a crossing reaches an end of its
edge, a line passes through a crossing or a line touches the circle: each a
root of A sin(psi) + B cos(psi) + C (linear when straight).  Between
consecutive roots validity is decided once, in closed form, at the
middle.  Inside a convex cell a line meets a crossing's edge only at the
edge's end, so a line passing through a crossing is the edge-end root and
is not listed again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Arrangement, _snap_merge
from .geom import Line, Point
from .placement import VERTEX_SNAP, CriticalCurve, CurvePiece, _sinusoid_roots, _walk_chains

TWO_PI = 2.0 * math.pi

# Tolerances, each with its reason.
# Normals, bisectors or half-angle cosines this small leave no apex or frame.
DEGENERATE_TOL = 1e-12
# A half-angle sine or a semi-axis below this is flat (criterion 6 asks 1e-9).
FLAT_TOL = 1e-9
# Events this close are one; a stretch this short is not decided on its own.
EVENT_TOL = 1e-12
# A window cut of a valid run shorter than this is not emitted as a piece.
MIN_PIECE = 1e-10
# A piece whose sampled turn sums below this is straight and joins any chain.
TURN_TOL = 1e-12


@dataclass(frozen=True)
class _Path:
    """A point moving with a ring piece's parameter: p0 + t*v on a straight
    piece, p0 + sin(psi)*v + cos(psi)*w on an elliptic one."""

    p0: tuple[float, float]
    v: tuple[float, float]
    w: tuple[float, float] | None = None

    def at(self, t: float) -> tuple[float, float]:
        if self.w is None:
            return (self.p0[0] + t * self.v[0], self.p0[1] + t * self.v[1])
        s, c = math.sin(t), math.cos(t)
        return (
            self.p0[0] + s * self.v[0] + c * self.w[0],
            self.p0[1] + s * self.v[1] + c * self.w[1],
        )

    def level_roots(self, a: float, b: float, c: float, lo: float, hi: float) -> list[float]:
        """Parameters in [lo, hi] where a*x + b*y = c on the path."""
        A = a * self.v[0] + b * self.v[1]
        C = a * self.p0[0] + b * self.p0[1] - c
        if self.w is not None:
            return _sinusoid_roots(A, a * self.w[0] + b * self.w[1], C, lo, hi)
        if abs(A) <= DEGENERATE_TOL:
            return []
        t = -C / A
        return [t] if lo <= t <= hi else []


@dataclass(frozen=True)
class _End:
    """A tracked crossing: its path, the line it rides, and its cell edge as
    the levels lo <= ray . x <= hi along that line."""

    path: _Path
    lid: int
    ray: tuple[float, float]
    lo: float
    hi: float


def _end(path: _Path, lid: int, ray, edge_pts) -> _End:
    levels = [p.x * ray[0] + p.y * ray[1] for p in edge_pts]
    return _End(path, lid, ray, min(levels), max(levels))


@dataclass
class _RingPiece:
    """One curve piece of a cell, for every vector at once: the center's path
    over the piece parameter (psi on an ellipse, t along a straight offset),
    the path of the tracked arc's midpoint, and the valid parameter runs.

    On an ellipse the direction from the center to the arc's midpoint is
    psi + shift, and a run may wrap past 2*pi (hi > 2*pi).
    """

    bounds: frozenset
    center: _Path
    mid: _Path
    shift: float = 0.0
    concave: bool = False
    intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def straight(self) -> bool:
        return self.center.w is None

    def mid_angle(self, t: float) -> float:
        """World direction from the center to the middle of the tracked arc."""
        (px, py), (mx, my) = self.center.at(t), self.mid.at(t)
        return math.atan2(my - py, mx - px)


def _arc_clear(lines: list[Line], ends: tuple[_End, _End], p, m, cos_half: float) -> bool:
    """No line crosses the open arc of the unit circle at p whose points q have
    (q - p) . m > cos_half; the tracked crossings are its ends."""
    px, py = p
    mx, my = m
    for k, ln in enumerate(lines):
        pinned = (ends[0].lid == k) + (ends[1].lid == k)
        if pinned == 2:  # both crossings of the line are the arc's ends
            continue
        d = ln.a * px + ln.b * py - ln.c
        # the chord midpoint of the line projects to -d (n . m); its crossings
        # sit symmetric about it, one of them at cos_half when pinned
        reach = -d * (ln.a * mx + ln.b * my)
        if pinned == 1:
            if reach > cos_half:
                return False
        elif abs(d) < 1.0:
            if reach + math.sqrt(1.0 - d * d) * abs(ln.a * my - ln.b * mx) > cos_half:
                return False
    return True


def _trim(lines: list[Line], eps: float, piece: _RingPiece,
          ends: tuple[_End, _End], lo: float, hi: float) -> list[tuple[float, float]]:
    """Maximal runs of [lo, hi] where the piece is valid, from its events."""
    events = []
    # a crossing reaches an end of its edge; inside a convex cell that is
    # also where a line passes through the crossing, so that root is not
    # computed a second time from the line
    for end in ends:
        events += end.path.level_roots(*end.ray, end.lo, lo, hi)
        events += end.path.level_roots(*end.ray, end.hi, lo, hi)
    for ln in lines:
        for touch in (-1.0, 1.0):  # a line touches the circle
            events += piece.center.level_roots(ln.a, ln.b, ln.c + touch, lo, hi)

    cos_half = math.cos(0.5 * eps)

    def valid(t: float) -> bool:
        for end in ends:
            x, y = end.path.at(t)
            if not end.lo <= x * end.ray[0] + y * end.ray[1] <= end.hi:
                return False
        (px, py), (mx, my) = piece.center.at(t), piece.mid.at(t)
        return _arc_clear(lines, ends, (px, py), (mx - px, my - py), cos_half)

    cuts = sorted({lo, hi, *(t for t in events if lo < t < hi)})
    runs: list[tuple[float, float]] = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= EVENT_TOL or not valid(0.5 * (a + b)):
            continue
        if runs and a - runs[-1][1] <= EVENT_TOL:
            runs[-1] = (runs[-1][0], b)
        else:
            runs.append((a, b))
    # an elliptic run through psi = 0 is one run that wraps past 2*pi
    if not piece.straight and len(runs) > 1 and runs[0][0] == lo and hi - runs[-1][1] <= EVENT_TOL:
        first = runs.pop(0)
        runs[-1] = (runs[-1][0], first[1] + TWO_PI)
    return runs


def _ring_pieces(arrangement: Arrangement, cell_id: int, eps: float) -> list[_RingPiece]:
    """All curve pieces of one cell, independent of the vector, trimmed."""
    lines: list[Line] = arrangement.primitives
    per_line: dict[int, list[Point]] = {}  # the cell's edge ends on each line
    for p0, p1, tag in arrangement.cell_walls(cell_id):
        if tag[0] == "line":
            per_line.setdefault(int(tag[1]), []).extend([p0, p1])
    # the cell is convex, so its vertex mean is inside it
    centroid = Point(*arrangement.cell_polygon(cell_id).mean(axis=0).tolist())
    h, hw = math.cos(0.5 * eps), math.sin(0.5 * eps)
    pieces: list[_RingPiece] = []

    # straight offsets: both crossings on the same line; the eps-long cap
    # pokes into the cell, so the center rides on the far side of the line.
    # t is the chord midpoint's coordinate along the line from the foot of
    # the origin.
    for lid, pts in per_line.items():
        ln = lines[lid]
        u = ln.direction()
        side = 1.0 if ln.side_of(centroid) > 0.0 else -1.0
        nx, ny = -side * ln.a, -side * ln.b
        fx, fy = ln.c * ln.a, ln.c * ln.b
        ends = tuple(
            _end(_Path((fx + off * u[0], fy + off * u[1]), u), lid, u, pts) for off in (-hw, hw)
        )
        if ends[0].hi - ends[0].lo - 2.0 * hw <= EVENT_TOL:
            continue
        piece = _RingPiece(
            frozenset({lid}),
            center=_Path((fx + h * nx, fy + h * ny), u),
            mid=_Path((fx - (1.0 - h) * nx, fy - (1.0 - h) * ny), u),
        )
        piece.intervals = _trim(lines, eps, piece, ends, ends[0].lo + hw, ends[0].hi - hw)
        pieces.append(piece)

    # elliptic arcs: crossings on two different lines, both chord sides
    for lid1, lid2 in itertools.combinations(sorted(per_line), 2):
        for branch in (1, -1):
            piece = _ellipse_piece(
                arrangement, cell_id, lid1, lid2, per_line, centroid, eps, branch
            )
            if piece is not None:
                pieces.append(piece)
    return pieces


def _ellipse_piece(arrangement, cell_id, lid1, lid2, per_line, centroid, eps, branch):
    lines: list[Line] = arrangement.primitives
    l1, l2 = lines[lid1], lines[lid2]
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) <= DEGENERATE_TOL:
        return None
    ox = (l1.c * l2.b - l2.c * l1.b) / det
    oy = (l1.a * l2.c - l2.a * l1.c) / det

    def wedge_ray(ln: Line, other: Line):  # along ln from the apex, to the cell's side of other
        ux, uy = ln.direction()
        if (other.side_of(centroid) > 0.0) == (other.a * ux + other.b * uy > 0.0):
            return (ux, uy)
        return (-ux, -uy)

    r1 = wedge_ray(l1, l2)
    r2 = wedge_ray(l2, l1)
    bx, by = r1[0] + r2[0], r1[1] + r2[1]
    norm = math.hypot(bx, by)
    if norm <= DEGENERATE_TOL:
        return None
    xh = (bx / norm, by / norm)
    yh = (-xh[1], xh[0])
    cosa = max(-1.0, min(1.0, r1[0] * xh[0] + r1[1] * xh[1]))
    sina = abs(r1[0] * yh[0] + r1[1] * yh[1])
    if sina <= FLAT_TOL or cosa <= DEGENERATE_TOL:
        return None
    a = sina / cosa
    hw, h = math.sin(0.5 * eps), math.cos(0.5 * eps)
    # semi-axes along the bisector (A_s) and across it (B)
    A_s = (hw - branch * a * h) / a
    B = a * hw + branch * h

    # a crossing rides its ray from the apex at hw*(sin(psi)/sina -+ cos(psi)/cosa),
    # minus on the ray below the bisector
    ends = []
    for lid, ray in ((lid1, r1), (lid2, r2)):
        ks, kc = hw / sina, math.copysign(hw / cosa, ray[0] * yh[0] + ray[1] * yh[1])
        path = _Path((ox, oy), (ks * ray[0], ks * ray[1]), (kc * ray[0], kc * ray[1]))
        ends.append(_end(path, lid, ray, per_line[lid]))

    # the arc's midpoint sits 1 beyond the center, branch * (sin, -cos) in frame
    piece = _RingPiece(
        frozenset({lid1, lid2}),
        center=_Path((ox, oy), (A_s * xh[0], A_s * xh[1]), (B * yh[0], B * yh[1])),
        mid=_Path(
            (ox, oy),
            ((A_s + branch) * xh[0], (A_s + branch) * xh[1]),
            ((B - branch) * yh[0], (B - branch) * yh[1]),
        ),
        shift=math.atan2(xh[1], xh[0]) - branch * 0.5 * math.pi,
        # apex-side arcs of a cell vertex sharper than the granularity run on
        # the concave side and are split off (a < tan(eps/2))
        concave=branch == 1 and A_s > FLAT_TOL,
    )
    piece.intervals = _trim(lines, eps, piece, tuple(ends), 0.0, TWO_PI)
    return piece


# ---------------------------------------------------------------------------
# per-vector curves
# ---------------------------------------------------------------------------

def circle_cell_curves(rings: list[_RingPiece], tau, eps: float) -> list[tuple[CurvePiece, bool]]:
    """Curve pieces of one angular vector inside one cell, from the cell's
    ring pieces, each with a flag that says whether it is an arc traced on
    the concave side (cell vertex sharper than the granularity);
    `_assemble_chains` makes them curves."""
    theta_tau = math.atan2(tau.dy, tau.dx)
    half = 0.5 * eps
    out_pieces: list[tuple[CurvePiece, bool]] = []  # (piece, concave flag)
    for rp in rings:
        if rp.straight:
            if abs((theta_tau - rp.mid_angle(0.0) + math.pi) % TWO_PI - math.pi) >= half:
                continue
            for t0, t1 in rp.intervals:
                seg = CurvePiece("seg", p0=rp.center.at(t0), p1=rp.center.at(t1))
                out_pieces.append((seg, False))
            continue
        center_psi = (theta_tau - rp.shift) % TWO_PI
        for lo, hi in rp.intervals:
            for k in (-TWO_PI, 0.0, TWO_PI):  # the window, modulo 2*pi
                w0, w1 = max(lo, center_psi - half + k), min(hi, center_psi + half + k)
                if w1 - w0 > MIN_PIECE:
                    piece = CurvePiece(
                        "arc", center=rp.center.p0, vec_a=rp.center.v, vec_b=rp.center.w,
                        psi0=w0, psi1=w1,
                    )
                    out_pieces.append((piece, rp.concave))
    return out_pieces


def _assemble_chains(groups) -> list[list[CriticalCurve]]:
    """The curves of each (cell, vector, flagged pieces) group: concave
    pieces alone, the rest joined into convex chains.

    Piece ends of one group that `_snap_merge` merges at VERTEX_SNAP, in one
    merge over all groups, are one.
    """
    joined = [[p for p, concave in flagged if not concave] for _cell, _tau, flagged in groups]
    xy = np.array([e for pieces in joined for p in pieces for e in p.endpoints()], dtype=float)
    group = np.repeat(np.arange(len(joined)), [2 * len(pieces) for pieces in joined])
    label = _snap_merge(xy.reshape(-1, 2), VERTEX_SNAP, group).reshape(-1, 2).tolist()
    out, s = [], 0
    for (cell_id, tau, flagged), pieces in zip(groups, joined):
        curves = [CriticalCurve(cell_id, tau, [p], False) for p, concave in flagged if concave]
        for chain in _walk_chains([tuple(k) for k in label[s : s + len(pieces)]]):
            for run in _split_convex_runs([(pieces[i], forward) for i, forward in chain]):
                curves.append(CriticalCurve(cell_id, tau, run, True))
        out.append(curves)
        s += len(pieces)
    return out


def _split_convex_runs(chain):
    """Split an oriented piece chain at turning-direction flips of its
    sampled trace; returns the runs' pieces."""
    signs = []
    for piece, forward in chain:
        samp = piece.sample(8)
        s = 0.0
        for a, b, c in zip(samp, samp[1:], samp[2:]):
            s += (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        s = s if forward else -s
        signs.append(1 if s > TURN_TOL else (-1 if s < -TURN_TOL else 0))
    runs = [[chain[0][0]]]
    run_sign = signs[0]
    for (piece, _forward), s in zip(chain[1:], signs[1:]):
        if s * run_sign < 0:  # the turn flips: a new run
            runs.append([piece])
        else:
            runs[-1].append(piece)
        run_sign = s or run_sign
    return runs
