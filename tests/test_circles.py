import math

import numpy as np
import pytest

from critplace.arrangement import build_line_arrangement, locate
from critplace.circles import _assemble_chains, _ring_pieces
from critplace.generators import random_lines
from critplace.geom import CIRCLE, Line, Point
from critplace.oracle import boundary_gaps
from critplace.placement import (
    VERTEX_SNAP,
    CriticalCurve,
    EpsilonTooLarge,
    _overlay_counts,
    build_placement_arrangement,
    collect_S,
    seg_piece,
    translation_vectors,
)

from _reference import curves_by_vector, in_cell_or_near, reference_ring_ok

EPS = 0.5

# semi-axes of the two center loci for a pair of lines at half-angle a:
# the chord between the crossings rides with its midpoint on a fixed ellipse
# and the center sits cos(eps/2) to either side
def _axes(a, eps=EPS):
    near = (abs(math.sin(eps / 2) - a * math.cos(eps / 2)) / a,
            a * math.sin(eps / 2) + math.cos(eps / 2))
    far = ((math.sin(eps / 2) + a * math.cos(eps / 2)) / a,
           abs(a * math.sin(eps / 2) - math.cos(eps / 2)))
    return near, far


def _wedge_lines(a: float):
    """Lines y = a*x and y = -a*x."""
    return [Line(Point(-2, -2 * a), Point(2, 2 * a)), Line(Point(-2, 2 * a), Point(2, -2 * a))]


def _tau_at(vs, theta):
    return min(
        vs.vectors,
        key=lambda v: abs((v.s - theta + math.pi) % (2 * math.pi) - math.pi),
    )


def test_ellipse_semi_axes_match_closed_form():
    lines = _wedge_lines(1.0)
    arr = build_line_arrangement(lines)
    vs = translation_vectors(CIRCLE, EPS)
    curves = curves_by_vector(arr, CIRCLE, EPS)[_tau_at(vs, 0.0)]
    arcs = [p for c in curves for p in c.pieces if p.kind == "arc"]
    assert arcs
    near, far = _axes(1.0)
    got = {(round(math.hypot(*a.vec_a), 9), round(math.hypot(*a.vec_b), 9)) for a in arcs}
    allowed = {tuple(round(v, 9) for v in near), tuple(round(v, 9) for v in far)}
    assert got <= allowed
    # the apex-facing branch from the derivation is present
    assert tuple(round(v, 9) for v in near) in got
    assert near[0] == pytest.approx(0.7215084625, abs=1e-9)
    assert near[1] == pytest.approx(1.2163163810, abs=1e-9)


def test_arc_points_satisfy_ellipse_and_chord_law():
    lines = _wedge_lines(1.0)
    arr = build_line_arrangement(lines)
    a = 1.0
    near, _far = _axes(a)
    A2, B2 = near[0] ** 2, near[1] ** 2
    n_eq = 0
    n_chord = 0
    for curves in curves_by_vector(arr, CIRCLE, EPS).values():
        for c in curves:
            for piece in c.pieces:
                if piece.kind != "arc":
                    continue
                apex_branch = math.hypot(*piece.vec_a) == pytest.approx(near[0], abs=1e-9)
                for x, y in piece.sample(20, inset=0.01):
                    if apex_branch:
                        # frames here align with the world axes up to swap
                        u2, v2 = x * x, y * y
                        r = min(
                            abs(u2 / A2 + v2 / B2 - 1.0), abs(u2 / B2 + v2 / A2 - 1.0)
                        )
                        assert r < 1e-9
                        n_eq += 1
                    prof = boundary_gaps(Point(x, y), lines, CIRCLE)
                    wit = [w for w in prof.components if abs(w.length - EPS) < 1e-6]
                    assert wit
                    for w in wit:
                        s0, s1 = w.start, w.start + w.length
                        u = (x + math.cos(s0), y + math.sin(s0))
                        v = (x + math.cos(s1), y + math.sin(s1))
                        chord2 = (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
                        assert abs(chord2 - (2.0 - 2.0 * math.cos(EPS))) < 1e-6
                    n_chord += 1
    assert n_eq >= 100 and n_chord >= 100


def test_degenerate_angle_gives_straight_piece():
    # a = tan(eps/2): the apex-facing ellipse flattens into a straight segment
    a = math.tan(EPS / 2)
    lines = _wedge_lines(a)
    arr = build_line_arrangement(lines)
    found = []
    for curves in curves_by_vector(arr, CIRCLE, EPS).values():
        for c in curves:
            for p in c.pieces:
                if p.kind == "arc":
                    found.append(math.hypot(*p.vec_a))
    assert found
    assert min(found) < 1e-9


def test_eps_too_large_rejected():
    lines = _wedge_lines(1.0)
    arr = build_line_arrangement(lines)
    with pytest.raises(EpsilonTooLarge):
        collect_S(translation_vectors(CIRCLE, 1.2), arr, arr.clip_box)
    with pytest.raises(EpsilonTooLarge):
        build_placement_arrangement(lines, 1.2, CIRCLE)


def test_constant_components_per_cell_vector():
    for seed in (31, 32, 33):
        lines = random_lines(3, seed)
        arr = build_line_arrangement(lines)
        for curves in list(curves_by_vector(arr, CIRCLE, EPS).values())[::3]:
            per_cell = {}
            for c in curves:
                per_cell[c.cell_id] = per_cell.get(c.cell_id, 0) + 1
            # Constant bound per (cell, vector): two gap-splits times four
            # per-direction crossings
            assert all(k <= 8 for k in per_cell.values())


def test_blunt_cell_has_no_concave_splits():
    # all triangle angles far above the granularity: every emitted chain is
    # convex, nothing is split off as a concave splinter
    lines = [
        Line(Point(-2, -1), Point(2, -1)),
        Line(Point(-2, -2.2), Point(2, 2.6)),
        Line(Point(-2, 2.8), Point(2, -2.0)),
    ]
    arr = build_line_arrangement(lines)
    vs = translation_vectors(CIRCLE, EPS)
    tri = None
    for cell in arr.cells:
        walls = arr.cell_walls(cell.id)
        if all(t[0] == "line" for _p, _q, t in walls) and len(walls) == 3:
            tri = cell.id
    assert tri is not None
    total = 0
    for curves in curves_by_vector(arr, CIRCLE, EPS).values():
        for c in curves:
            if c.cell_id != tri:
                continue
            total += 1
            assert c.convex_flag
    assert total >= len(vs.vectors) - 2


def test_sharp_cell_splits_concave_arc():
    # a wedge sharper than the granularity produces an apex arc traced on
    # the concave side, reported as its own curve
    a = math.tan(EPS / 2) * 0.5
    lines = _wedge_lines(a)
    arr = build_line_arrangement(lines)
    flags = []
    for curves in curves_by_vector(arr, CIRCLE, EPS).values():
        for c in curves:
            flags.append(c.convex_flag)
    assert False in flags


def test_boundary_piece_length_concave_along_tau_chords():
    # sliding the tracked boundary point along a chord in its own direction,
    # the in-cell arc length around it changes concavely while the piece
    # stays beyond its bounding lines (the configuration of the derivation;
    # with the circle center on the piece's own side the trend can flip)
    rng = np.random.default_rng(77)
    lines = random_lines(3, 35)
    arr = build_line_arrangement(lines)
    tested = 0
    while tested < 150:
        theta = rng.uniform(0, 2 * math.pi)
        ux, uy = math.cos(theta), math.sin(theta)
        q0 = Point(*rng.uniform(-1.2, 1.2, 2))
        try:
            cell = locate(q0, arr)
        except Exception:
            continue
        step = 0.004
        qs = [Point(q0.x + k * step * ux, q0.y + k * step * uy) for k in range(-3, 4)]
        vals = []
        bounds0 = None
        far_side = True
        okrun = True
        for q in qs:
            p = Point(q.x - ux, q.y - uy)
            prof = boundary_gaps(p, lines, CIRCLE)
            comp = None
            for w in prof.components:
                if w.bound_ids is None:
                    continue
                if (theta - w.start) % (2 * math.pi) <= w.length:
                    comp = w
                    break
            if comp is None:
                okrun = False
                break
            if bounds0 is None:
                bounds0 = comp.bound_ids
            if comp.bound_ids != bounds0:
                okrun = False
                break
            if not in_cell_or_near(arr, comp.mid_point, cell, 1e-9):
                okrun = False
                break
            for lid in set(comp.bound_ids):
                if lines[lid].side_of(p) * lines[lid].side_of(comp.mid_point) > 0:
                    far_side = False
            vals.append(comp.length)
        if not okrun or not far_side or len(vals) != 7:
            continue
        assert np.all(np.diff(vals, 2) <= 1e-6)
        tested += 1


def test_circle_scan_equivalence():
    lines = random_lines(2, 31)
    from critplace.oracle import dense_scan, verify

    pa = build_placement_arrangement(lines, EPS, CIRCLE, include_line_translates=True)
    scan = dense_scan(lines, CIRCLE, EPS, pa.domain, EPS / 20)
    assert verify(pa, scan, delta=EPS / 10).empty()


def _variants(lines):
    yield lines
    yield [Line(Point(l.p.x + 0.37, l.p.y - 0.21), Point(l.q.x + 0.37, l.q.y - 0.21)) for l in lines]
    yield lines[::-1]
    yield [Line(Point(l.p.x, -l.p.y), Point(l.q.x, -l.q.y)) for l in lines]


@pytest.mark.parametrize(
    "n, seed, eps, counts",
    [(2, 3, 0.7, (92, 132, 42)), (3, 5, 0.5, (258, 368, 112)), (4, 3, 0.4, (573, 822, 251))],
)
def test_circle_counts_invariant(n, seed, eps, counts):
    # the same scene shifted by (0.37, -0.21), with its lines reversed, and
    # mirrored in the x-axis has the same placement arrangement size
    for lines in _variants(random_lines(n, seed)):
        pa = build_placement_arrangement(lines, eps, CIRCLE, include_line_translates=True)
        c = pa.counts
        assert (c["vertices"], c["edges"], c["faces"]) == counts


# ---------------------------------------------------------------------------
# closed-form trimming of the ring pieces against the gap-profile judge
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _in_runs(runs, t, straight):
    shifts = (0.0,) if straight else (0.0, TWO_PI)
    return any(lo <= t + k <= hi for lo, hi in runs for k in shifts)


def _near_end(runs, t, straight, tol):
    shifts = (0.0,) if straight else (-TWO_PI, 0.0, TWO_PI)
    return any(abs(t - e - k) <= tol for run in runs for e in run for k in shifts)


def _search_range(arr, rp):
    """Parameters a valid placement of the piece can have: psi anywhere on an
    ellipse; t where the center lies within 1 of the clip box when straight."""
    if not rp.straight:
        return 0.0, TWO_PI
    b = arr.clip_box.expanded(1.0)
    (x0, y0), (vx, vy) = rp.center.p0, rp.center.v
    ts = [(x - x0) * vx + (y - y0) * vy for x in (b.xmin, b.xmax) for y in (b.ymin, b.ymax)]
    return min(ts), max(ts)


def _placement_cell_pieces(n, seed, eps, cell_id, bounds):
    """The arrangement the placement builds, and one cell's pieces on the lines."""
    lines = random_lines(n, seed)
    arr = build_placement_arrangement(lines, eps, CIRCLE).arrangement
    return arr, [rp for rp in _ring_pieces(arr, cell_id, eps) if rp.bounds == frozenset(bounds)]


@pytest.mark.parametrize(
    "n, seed, eps", [(2, 3, 0.7), (2, 31, 0.5), (3, 5, 0.5), (3, 31, 0.8), (4, 3, 0.4)]
)
def test_ring_pieces_agree_with_gap_profile_judge(n, seed, eps):
    # every ring piece of every cell, on a 2,000-step grid of its parameter:
    # away from the ends of its runs, the closed-form runs and the gap
    # profile give the same verdict
    arr = build_line_arrangement(random_lines(n, seed))
    steps = 2000
    agree_valid = 0
    for cell in arr.cells:
        for rp in _ring_pieces(arr, cell.id, eps):
            lo, hi = _search_range(arr, rp)
            for k in range(steps):
                t = lo + (hi - lo) * (k + 0.5) / steps
                if _near_end(rp.intervals, t, rp.straight, 1e-4):
                    continue
                got = _in_runs(rp.intervals, t, rp.straight)
                assert got == reference_ring_ok(arr, cell.id, eps, rp, t), (cell.id, rp.bounds, t)
                agree_valid += got
    assert agree_valid >= 100


def test_run_starts_where_the_judge_starts_holding():
    # a run used to start at the first passing sample, 1.15444, when the
    # sample just past the candidate's start failed; the judge holds from
    # 1.15194 on
    arr, pieces = _placement_cell_pieces(3, 31, 0.8, 5, {1, 2})
    starts = [lo for rp in pieces for lo, _hi in rp.intervals if 1.150 < lo < 1.155]
    assert len(starts) == 1 and 1.1519 < starts[0] < 1.1520
    rp = next(rp for rp in pieces if any(lo == starts[0] for lo, _hi in rp.intervals))
    for t in (1.1521, 1.1530, 1.1540):
        assert reference_ring_ok(arr, 5, 0.8, rp, t)
    assert not reference_ring_ok(arr, 5, 0.8, rp, 1.1518)


def test_run_narrower_than_a_sample_step_is_kept():
    # about 4.4e-4 wide, under the old 0.005 sample step, which lost it
    arr, pieces = _placement_cell_pieces(3, 31, 0.8, 0, {0, 2})
    runs = [(rp, lo, hi) for rp in pieces for lo, hi in rp.intervals if lo < 1.5708 < hi]
    assert len(runs) == 1
    rp, lo, hi = runs[0]
    assert hi - lo < 0.005
    for t in (1.5706, 1.5708, 1.5710):
        assert reference_ring_ok(arr, 0, 0.8, rp, t)


def test_run_ends_at_the_touching_root():
    # line 0 touches the circle at psi ~ 0.88359 and the run starts there;
    # the oracle used to drop that line as tangent up to 0.88364
    arr, pieces = _placement_cell_pieces(2, 3, 0.7, 3, {0, 1})
    line = arr.primitives[0]
    runs = [(rp, lo) for rp in pieces for lo, _hi in rp.intervals if 0.8830 < lo < 0.8840]
    assert len(runs) == 1
    rp, lo = runs[0]
    assert lo < 0.88362
    assert abs(abs(line.side_of(Point(*rp.center.at(lo)))) - 1.0) < 1e-12
    for t in (lo + 1e-5, lo + 3e-5):
        assert reference_ring_ok(arr, 3, 0.7, rp, t)


def test_flat_arcs_count_as_their_segments():
    # half-angle tangent tan(eps/2): the apex-side ellipse is flat; its arcs
    # must split and count like the straight segments they trace
    eps = 0.5
    pa = build_placement_arrangement(_wedge_lines(math.tan(eps / 2)), eps, CIRCLE)
    as_segments = []
    flat = 0
    for c in pa.curves:
        pieces = []
        for p in c.pieces:
            if p.kind == "arc" and math.hypot(*p.vec_a) < 1e-9:
                flat += 1
                (x0, y0), (x1, y1) = p.endpoints()
                p = seg_piece(x0, y0, x1, y1)
            pieces.append(p)
        as_segments.append(CriticalCurve(c.cell_id, c.vector, pieces, c.convex_flag))
    assert flat > 0
    assert pa.counts == _overlay_counts(as_segments, pa.domain)


def test_chains_keep_to_their_cell_and_vector():
    # two collinear pieces of one group whose ends are 1.2 snap apart, and
    # another group's piece that starts between them: the two stay apart,
    # as they would with nothing between them
    gap = 1.2 * VERTEX_SNAP
    own = [(seg_piece(-1.0, 0.0, 0.0, 0.0), False), (seg_piece(gap, 0.0, 1.0, 0.0), False)]
    other = [(seg_piece(0.5 * gap, 0.0, 0.5 * gap, 1.0), False)]
    alone, between = _assemble_chains([(0, None, own)]), _assemble_chains([(0, None, own), (1, None, other)])
    assert [len(c.pieces) for c in alone[0]] == [len(c.pieces) for c in between[0]] == [1, 1]
    assert [c.cell_id for c in between[1]] == [1]
    # within snap they join into one chain
    near = [own[0], (seg_piece(0.5 * gap, 0.0, 1.0, 0.0), False)]
    assert [len(c.pieces) for c in _assemble_chains([(0, None, near)])[0]] == [2]
