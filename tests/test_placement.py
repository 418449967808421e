import hashlib
import math

import numpy as np
import pytest

from critplace.arrangement import (
    KERNEL_CHUNK,
    SHOT_START,
    SHOT_WALL_SLACK,
    BBox,
    OnBoundary,
    _first_wall_hits,
    _snap_merge,
    build_line_arrangement,
    build_segment_arrangement,
    locate,
)
from critplace.generators import lower_bound_lines, random_lines
from critplace.geom import CIRCLE, SQUARE, GeometryError, Line, Point, Segment
from critplace.oracle import dense_scan, is_epsilon_placement, verify
from critplace.placement import (
    _QUADRANT_LOOK,
    RAY_START,
    RAY_WALL_SLACK,
    SIDE_TOL,
    VERTEX_SNAP,
    CriticalCurve,
    CurvePiece,
    _arc_arc_points,
    _corner_level_segments,
    _level_ends,
    _overlay_counts,
    _piece_bbox,
    _piece_crossings,
    build_placement_arrangement,
    cell_regions,
    collect_S,
    pair_intersections,
    seg_piece,
    translation_vectors,
)

from _reference import (
    Unbounded,
    _clip_convex,
    _first_wall_hit,
    chain_points,
    f_value,
    in_cell_or_near,
    curves_by_vector,
    reference_collect,
    reference_regions,
    sample_points,
)

X_AXIS = Line(Point(-1, 0), Point(1, 0))
Y_AXIS = Line(Point(0, -1), Point(0, 1))


# ---------------------------------------------------------------------------
# translation vectors
# ---------------------------------------------------------------------------

def test_square_vectors_quarter():
    vs = translation_vectors(SQUARE, 0.25)
    assert len(vs.vectors) == 16
    corners = {(v.dx, v.dy) for v in vs.vectors if v.kind == "corner"}
    assert corners == {(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)}
    svals = sorted(v.s for v in vs.vectors)
    gaps = np.diff(svals + [svals[0] + 4.0])
    assert np.all(gaps <= 0.25 + 1e-12)


def test_square_vectors_eps_one_rejected():
    # eps must stay under a quarter perimeter
    with pytest.raises(ValueError):
        translation_vectors(SQUARE, 1.0)


def test_square_vectors_non_integer_spacing():
    vs = translation_vectors(SQUARE, 0.3)
    # ceil(1/0.3) = 4 points per side
    assert len(vs.vectors) == 16
    svals = sorted(v.s for v in vs.vectors)
    gaps = np.diff(svals + [svals[0] + 4.0])
    assert np.all(gaps <= 0.3 + 1e-12)
    # every eps-long boundary arc contains one or two vectors
    assert np.all(gaps > 0.3 / 2)


def test_circle_vectors():
    vs = translation_vectors("circle", math.pi / 8)
    assert len(vs.vectors) == 16
    assert all(v.kind == "angular" for v in vs.vectors)


# ---------------------------------------------------------------------------
# the distance-sum function
# ---------------------------------------------------------------------------

def test_f_value_examples():
    lines = [Y_AXIS, X_AXIS]
    assert f_value(Point(0.1, 0.2), lines, "upper_right") == pytest.approx(0.3)
    for t in (0.05, 0.1, 0.2):
        assert f_value(Point(t, 0.25 - t), lines, "upper_right") == pytest.approx(0.25)
    with pytest.raises(Unbounded):
        f_value(Point(-0.5, 0.5), lines, "upper_right")


def test_f_concave_inside_cells():
    lines = random_lines(4, 6)
    arr = build_line_arrangement(lines)
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 500:
        a = Point(*rng.uniform(-1.2, 1.2, 2))
        b = Point(*rng.uniform(-1.2, 1.2, 2))
        try:
            ca, cb = locate(a, arr), locate(b, arr)
        except (OnBoundary, Exception):
            continue
        if ca != cb:
            continue
        mid = Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
        try:
            fm = f_value(mid, lines, "upper_right")
            fa = f_value(a, lines, "upper_right")
            fb = f_value(b, lines, "upper_right")
        except Unbounded:
            continue
        assert fm >= 0.5 * (fa + fb) - 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# corner curves
# ---------------------------------------------------------------------------

def _corner(vs, label):
    return next(v for v in vs.vectors if v.label == label)


def test_corner_curve_quadrant_example():
    arr = build_line_arrangement([Y_AXIS, X_AXIS])
    vs = translation_vectors(SQUARE, 0.25)
    curves = curves_by_vector(arr, SQUARE, 0.25)[_corner(vs, "tr")]
    assert len(curves) == 1
    (curve,) = curves
    pts = chain_points(curve)
    assert len(pts) == 2
    ends = {tuple(round(v, 9) for v in p) for p in pts}
    assert ends == {(-0.25, -0.5), (-0.5, -0.25)}
    assert curve.convex_flag


def test_corner_curve_small_cell_empty():
    # cell narrower than eps in both directions has no corner placements
    lines = [
        Y_AXIS,
        Line(Point(0.1, -1), Point(0.1, 1)),
        X_AXIS,
        Line(Point(-1, 0.1), Point(1, 0.1)),
    ]
    arr = build_line_arrangement(lines)
    vs = translation_vectors(SQUARE, 0.5)
    small = locate(Point(0.05, 0.05), arr)
    curves = [c for c in curves_by_vector(arr, SQUARE, 0.5)[_corner(vs, "tr")] if c.cell_id == small]
    assert curves == []


def test_corner_curve_two_components_in_sliver():
    # an acute sliver cell disconnects the level chain (dense-scan verified
    # globally by the acceptance suite; here we pin the component count)
    lines = random_lines(3, 1)
    arr = build_line_arrangement(lines)
    vs = translation_vectors(SQUARE, 0.3)
    curves = [c for c in curves_by_vector(arr, SQUARE, 0.3)[_corner(vs, "tr")] if c.cell_id == 2]
    assert len(curves) == 2
    for c in curves:
        assert c.convex_flag
        for x, y in sample_points(c, 0.05)[1:-1]:
            ok, wit = is_epsilon_placement(Point(x, y), lines, SQUARE, 0.3)
            assert ok


def test_corner_component_count_at_most_two():
    for seed in range(8):
        lines = random_lines(3, seed)
        arr = build_line_arrangement(lines)
        vs = translation_vectors(SQUARE, 0.3)
        by_vector = curves_by_vector(arr, SQUARE, 0.3)
        for label in ("bl", "br", "tr", "tl"):
            curves = by_vector[_corner(vs, label)]
            per_cell = {}
            for c in curves:
                per_cell[c.cell_id] = per_cell.get(c.cell_id, 0) + 1
            assert all(k <= 2 for k in per_cell.values())


def test_corner_chain_vertices_align_with_cell_vertices():
    for seed in (0, 3, 5):
        lines = random_lines(4, seed)
        arr = build_line_arrangement(lines)
        vs = translation_vectors(SQUARE, 0.3)
        vx = {round(float(v[0]), 6) for v in arr.verts}
        vy = {round(float(v[1]), 6) for v in arr.verts}
        by_vector = curves_by_vector(arr, SQUARE, 0.3)
        for label in ("bl", "br", "tr", "tl"):
            tau = _corner(vs, label)
            for curve in by_vector[tau]:
                pts = chain_points(curve)
                for x, y in pts[1:-1]:  # interior kinks only
                    bx = round(x + tau.dx, 6)
                    by = round(y + tau.dy, 6)
                    assert bx in vx or by in vy


# ---------------------------------------------------------------------------
# edge curves
# ---------------------------------------------------------------------------

def test_edge_curve_slope_four_example():
    lines = [Y_AXIS, Line(Point(0.2, 0), Point(0.45, 1))]
    arr = build_line_arrangement(lines)
    vs = translation_vectors(SQUARE, 0.25)
    top_mid = next(
        v for v in vs.vectors if v.label == "top" and abs(v.dx) < 1e-12
    )
    wedge = locate(Point(0.1, 0.3), arr)
    curves = [c for c in curves_by_vector(arr, SQUARE, 0.25)[top_mid] if c.cell_id == wedge]
    assert len(curves) == 1
    (piece,) = curves[0].pieces
    assert piece.p0[1] == pytest.approx(-0.3)
    assert piece.p1[1] == pytest.approx(-0.3)
    assert sorted((piece.p0[0], piece.p1[0])) == pytest.approx([0.0, 0.25])


def test_edge_curve_wide_strip_empty():
    lines = [Y_AXIS, Line(Point(0.3, -1), Point(0.3, 1))]
    arr = build_line_arrangement(lines)
    vs = translation_vectors(SQUARE, 0.25)
    strip = locate(Point(0.15, 0.0), arr)
    for v, curves in curves_by_vector(arr, SQUARE, 0.25).items():
        if v.kind == "edge":
            assert [c for c in curves if c.cell_id == strip] == []


def test_edge_curve_degenerate_strip_flagged():
    for lines, orientation, at in (
        ([Y_AXIS, Line(Point(0.25, -1), Point(0.25, 1))], "horizontal", Point(0.125, 0.0)),
        ([X_AXIS, Line(Point(-1, 0.25), Point(1, 0.25))], "vertical", Point(0.0, 0.125)),
    ):
        pa = build_placement_arrangement(lines, 0.25, SQUARE)
        strip = locate(at, pa.arrangement)
        # one strip, reported once, not once for each of the six vectors of its sides
        assert [(w.cell_id, w.orientation) for w in pa.warnings] == [(strip, orientation)]
        # the degenerate two-dimensional set is not returned as curves
        axis = 1 if orientation == "horizontal" else 0
        labels = ("top", "bottom") if orientation == "horizontal" else ("left", "right")
        strip_curves = [
            c
            for c in pa.curves
            if c.vector is not None and c.vector.label in labels
            and all(abs(p.p0[axis] - p.p1[axis]) < 1e-9 and -0.6 < p.p0[axis] < -0.4 for p in c.pieces)
        ]
        assert strip_curves == []


CONCURRENT = [(-1, -1, 1, 1), (-1, 1, 1, -1), (0, -1, 0, 1)]


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.37, -0.21), (-1000.0, 250.0)])
@pytest.mark.parametrize("coords, shape, counts", [
    (CONCURRENT, SQUARE, (137, 214, 79)),
    (CONCURRENT, CIRCLE, (308, 428, 122)),
    (CONCURRENT + [(-1, 0.3, 1, 0.1)], SQUARE, (314, 516, 204)),
    (CONCURRENT + [(-1, 0.3, 1, 0.1)], CIRCLE, (512, 725, 216)),
], ids=["three-square", "three-circle", "three-and-one-square", "three-and-one-circle"])
def test_concurrent_lines_keep_their_counts_under_translation(coords, shape, counts, shift):
    # lines through one point are taken as given: their crossings merge into
    # one vertex wherever the scene lies, and the curves verify near the origin
    dx, dy = shift
    lines = [Line(Point(x0 + dx, y0 + dy), Point(x1 + dx, y1 + dy)) for x0, y0, x1, y1 in coords]
    eps = 0.3
    pa = build_placement_arrangement(lines, eps, shape, include_line_translates=True)
    assert (pa.counts["vertices"], pa.counts["edges"], pa.counts["faces"]) == counts
    if abs(dx) < 1.0:
        scan = dense_scan(lines, shape, eps, pa.domain, eps / 20)
        assert verify(pa, scan, delta=eps / 10).empty()


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0, 2.5e-9), (0.1, 7.5e-9), (0.3, 0.2 + 5e-10)])
def test_side_windows_keep_their_count_under_translation(shift):
    # the left wall kinks at the height where the cell is eps wide, so the
    # strips below and above the kink find one window each, a rounding apart
    dx, dy = shift
    segs = [
        Segment(Point(0.1 + dx, -1 + dy), Point(dx, dy)),
        Segment(Point(dx, dy), Point(0.1 + dx, 1 + dy)),
        Segment(Point(0.25 + dx, -1.2 + dy), Point(0.25 + dx, 1.2 + dy)),
    ]
    pa = build_placement_arrangement(segs, 0.25, SQUARE)
    assert len(pa.curves) == 20


def test_edge_windows_at_most_eps_long():
    lines = random_lines(4, 19)
    arr = build_line_arrangement(lines)
    for v, curves in curves_by_vector(arr, SQUARE, 0.4).items():
        if v.kind != "edge":
            continue
        for curve in curves:
            for piece in curve.pieces:
                assert piece.length() <= 0.4 + 1e-9


# ---------------------------------------------------------------------------
# collect_S and the overlay
# ---------------------------------------------------------------------------

def test_collect_s_no_lines():
    arr = build_line_arrangement([])
    vs = translation_vectors(SQUARE, 0.25)
    assert collect_S(vs, arr, arr.clip_box) == ([], [])


def test_collect_s_crossing_lines_single_quadrant():
    arr = build_line_arrangement([Y_AXIS, X_AXIS])
    vs = translation_vectors(SQUARE, 0.25)
    by_vector = curves_by_vector(arr, SQUARE, 0.25)
    for label in ("bl", "br", "tr", "tl"):
        assert len(by_vector[_corner(vs, label)]) == 1


def test_level_set_soundness_samples():
    lines = random_lines(4, 44)
    pa = build_placement_arrangement(lines, 0.4, SQUARE)
    n_checked = 0
    for curve in pa.curves:
        for piece in curve.pieces:
            for x, y in piece.sample(7, inset=0.05):
                ok, wit = is_epsilon_placement(Point(x, y), lines, SQUARE, 0.4)
                assert ok
                assert any(
                    in_cell_or_near(pa.arrangement, w.mid_point, curve.cell_id, 1e-6)
                    for w in wit
                )
                n_checked += 1
    assert n_checked > 50


def _random_segments(n, seed, half=1.2):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x0, y0 = rng.uniform(-half, half, 2)
        length, ang = rng.uniform(0.3, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        x1, y1 = x0 + length * math.cos(ang), y0 + length * math.sin(ang)
        if abs(x1) <= half and abs(y1) <= half:
            out.append(Segment(Point(x0, y0), Point(x1, y1)))
    return out


def _reference_pairs(arr):
    """The per-pair reference's (horizontal, vertical) profile strip pairs of
    the corner chains, as rows (band, vertical strip, (P, Q, R)): the level
    lines are P*x + Q*y + R = eps."""
    for cell in arr.cells:
        for region in reference_regions(arr, cell.id):
            for look_x, look_y in _QUADRANT_LOOK.values():
                verticals = [
                    s for s in region.profiles["down" if look_y < 0 else "up"]
                    if not s.open_side and abs(s.line[1]) > 1e-12
                ]
                for sh in region.profiles["left" if look_x < 0 else "right"]:
                    if sh.open_side or abs(sh.line[0]) <= 1e-12:
                        continue
                    band = _clip_convex(region.polygon, 1, sh.lo, sh.hi)
                    if len(band) < 3:
                        continue
                    a1, b1, c1 = sh.line
                    for sv in verticals:
                        a2, b2, c2 = sv.line
                        P = -look_x + -look_y * a2 / b2
                        Q = -look_x * b1 / a1 + -look_y
                        R = look_x * c1 / a1 + look_y * c2 / b2
                        yield band, sv, (P, Q, R)


def _table_profiles(regions, r):
    """Region r's strips in the strip table, as the reference's profiles:
    (lo, hi, line or None) for each strip, by direction."""
    rows = np.flatnonzero(regions.strip_region == r)
    out = {}
    for d, (axis, side) in {"left": (1, 0), "right": (1, 1), "down": (0, 0), "up": (0, 1)}.items():
        out[d] = [
            (*regions.strip_bounds[k].tolist(),
             None if np.isnan(regions.strip_walls[k, side]).any() else tuple(regions.strip_walls[k, side].tolist()))
            for k in rows[regions.strip_axis[rows] == axis]
        ]
    return out


def _disjoint_strip_pairs(pa, _chunks) -> bool:
    """Some vertical strip lies outside the x-range of the band it is paired with."""
    return any(
        band[:, 0].max() < sv.lo or band[:, 0].min() > sv.hi
        for band, sv, _line in _reference_pairs(pa.arrangement)
    )


def _level_line_through_a_vertex(pa, _chunks) -> bool:
    """Some level line passes within SIDE_TOL of a vertex of its piece."""
    eps = pa.eps
    for band, sv, (P, Q, R) in _reference_pairs(pa.arrangement):
        piece = _clip_convex(band, 0, sv.lo, sv.hi)
        if len(piece) >= 3 and np.abs(P * piece[:, 0] + Q * piece[:, 1] + R - eps).min() <= SIDE_TOL:
            return True
    return False


def _several_chunks(_pa, chunks) -> bool:
    """The batched kernel cut the level lines in more than one chunk of pair
    rows, each of at most KERNEL_CHUNK vertex slots."""
    return len(chunks) > 1 and max(chunks) <= KERNEL_CHUNK


@pytest.mark.parametrize("prims, eps, shows", [
    # the outer cell has the segments as holes: convex_decompose splits it
    (_random_segments(8, 3), 0.3, _disjoint_strip_pairs),
    (random_lines(5, 12), 0.3, _disjoint_strip_pairs),
    # a horizontal and a vertical line: walls parallel to profile rays
    (random_lines(3, 4) + [Line(Point(-1, 0.1), Point(1, 0.1)), Line(Point(-0.2, -1), Point(-0.2, 1))], 0.25,
     _disjoint_strip_pairs),
    # a line of slope 1e10: vertical profile strips 1e-10 wide beside it,
    # which a band must not be pruned against
    (random_lines(3, 4) + [Line(Point(0.05, -1), Point(0.05 + 2e-10, 1))], 0.25, _disjoint_strip_pairs),
    # the axes and a line through (0.25, 0): in the quadrant x, y > 0 the
    # level line x + y = 0.25 runs through that vertex of its cell
    ([X_AXIS, Y_AXIS, Line(Point(0.25, 0.0), Point(0.75, 1.0))], 0.25, _level_line_through_a_vertex),
    # segments that meet in a T: one ends on the middle of another
    ([Segment(Point(-0.6, 0.0), Point(0.6, 0.0)), Segment(Point(0.1, 0.0), Point(0.3, 0.7)),
      Segment(Point(-0.4, -0.5), Point(0.5, -0.3))], 0.3, None),
    (lower_bound_lines(8, 0.25), 0.25, _several_chunks),
], ids=["segments-with-holes", "lines", "axis-parallel-lines", "steep-line", "level-through-vertex",
        "t-junction", "lower-bound-8"])
def test_square_curves_equal_the_per_pair_reference(prims, eps, shows, monkeypatch):
    chunks = []  # vertex slots of each chunk of pair rows the kernel cuts

    def level_ends(pts, *args):
        chunks.append(pts.shape[0] * pts.shape[1])
        return _level_ends(pts, *args)

    monkeypatch.setattr("critplace.placement._level_ends", level_ends)
    pa = build_placement_arrangement(prims, eps, SQUARE, include_line_translates=True)
    arr = pa.arrangement
    if isinstance(prims[0], Segment):
        assert any(cell.holes for cell in arr.cells)
    assert shows is None or shows(pa, chunks)
    regions = cell_regions(arr, [cell.id for cell in arr.cells])
    for k, cell in enumerate(arr.cells):
        new_regions = np.flatnonzero(regions.cell_of == k)
        for r, ref in zip(new_regions, reference_regions(arr, cell.id), strict=True):
            assert _table_profiles(regions, r) == {
                d: [(s.lo, s.hi, s.line) for s in strips] for d, strips in ref.profiles.items()
            }
    warnings = []
    ref_curves = [
        c for tau in pa.vectors.vectors
        for c in reference_collect(tau, arr, eps, pa.domain, warnings)
    ]
    assert {c.vector.kind for c in ref_curves} == {"corner", "edge"}
    # exact float equality of every piece, in the same order
    assert pa.curves == ref_curves
    assert pa.warnings == warnings


@pytest.mark.parametrize("prims, eps", [
    (lower_bound_lines(8, 0.25), 0.25),
    (_random_segments(8, 3), 0.3),
], ids=["lower-bound-8", "segments-with-holes"])
def test_corner_kernel_does_not_depend_on_its_chunks(prims, eps, monkeypatch):
    """The corner kernel's segments are the same bytes whatever budget cuts
    its bands and pairs into chunks."""
    arr = build_placement_arrangement(prims, eps, SQUARE).arrangement
    if isinstance(prims[0], Segment):
        assert any(cell.holes for cell in arr.cells)
    regions = cell_regions(arr, [cell.id for cell in arr.cells])
    digests, chunks = [], []
    for budget in (64, KERNEL_CHUNK, 1 << 20):
        calls = []

        def level_ends(*args, calls=calls):
            calls.append(1)
            return _level_ends(*args)

        monkeypatch.setattr("critplace.arrangement.KERNEL_CHUNK", budget)
        monkeypatch.setattr("critplace.placement.KERNEL_CHUNK", budget)
        monkeypatch.setattr("critplace.placement._level_ends", level_ends)
        out = _corner_level_segments(regions, eps)
        assert len(out[0])
        digests.append(hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest())
        chunks.append(len(calls))
    assert digests[0] == digests[1] == digests[2]
    assert chunks[0] > chunks[1] >= chunks[2] == 1


def test_wall_rays_equal_the_looped_reference():
    rng = np.random.default_rng(5)
    ends = [Point(*p) for p in rng.uniform(-1.0, 1.0, (30, 2))]
    walls = [(ends[i], ends[i + 1], ("w", i)) for i in range(29)]
    walls += [
        # a wall along the rays, and two pairs of walls that a ray through
        # (0.3, 0.2) or (-0.4, 0.2) meets at one t: the first in order wins
        (Point(-1.0, 0.2), Point(1.0, 0.2), ("w", 29)),
        (Point(0.3, 0.2), Point(0.6, 0.9), ("w", 30)),
        (Point(0.3, 0.2), Point(0.1, -0.7), ("w", 31)),
        (Point(-0.4, -0.5), Point(-0.4, 0.8), ("w", 32)),
        (Point(-0.4, 0.8), Point(-0.4, -0.5), ("w", 33)),
    ]
    array = np.array([(a.x, a.y, b.x, b.y) for a, b, _tag in walls])
    # the last origin's ray passes 5e-10 above the end (-0.4, 0.8) of walls
    # 32 and 33: within the strip rays' wall slack, past the corner rays'
    origins = np.vstack(
        [rng.uniform(-1.0, 1.0, (200, 2)), [(0.0, 0.2), (-0.1, 0.2), (0.0, 0.8 + 5e-10)]]
    )
    for tols in ((RAY_START, RAY_WALL_SLACK), (SHOT_START, SHOT_WALL_SLACK)):
        for dvec in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            hits = [_first_wall_hit(origin, dvec, walls, *tols) for origin in origins.tolist()]
            wall, t = _first_wall_hits(origins, dvec, array, *tols)
            assert wall.tolist() == [-1 if hit is None else hit[1][1] for hit in hits]
            assert t.tolist() == [math.inf if hit is None else hit[0] for hit in hits]
    ties = array[29:]
    assert _first_wall_hits(origins[-3:-1], (1.0, 0.0), ties, RAY_START, RAY_WALL_SLACK)[0].tolist() == [1, 1]
    assert _first_wall_hits(origins[-3:], (-1.0, 0.0), ties, RAY_START, RAY_WALL_SLACK)[0].tolist() == [3, 3, 3]
    assert _first_wall_hits(origins[-1:], (-1.0, 0.0), ties, SHOT_START, SHOT_WALL_SLACK)[0].tolist() == [-1]
    # one call for all four directions, a step per origin, as the profiles cast them
    steps = np.repeat([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], len(origins), axis=0)
    tols = (RAY_START, RAY_WALL_SLACK)
    each = [_first_wall_hits(origins, dvec, array, *tols)[0] for dvec in steps[:: len(origins)]]
    assert np.array_equal(_first_wall_hits(np.tile(origins, (4, 1)), steps, array, *tols)[0], np.concatenate(each))


def test_pair_intersections_disjoint():
    arr = build_line_arrangement([Y_AXIS, X_AXIS])
    vs = translation_vectors(SQUARE, 0.25)
    by_vector = curves_by_vector(arr, SQUARE, 0.25)
    assert pair_intersections(by_vector[_corner(vs, "tr")], by_vector[_corner(vs, "bl")]) == []


def test_pair_intersections_are_double_placements():
    lines = random_lines(4, 28)
    arr = build_line_arrangement(lines)
    families = {v.s: curves for v, curves in curves_by_vector(arr, SQUARE, 0.4).items()}
    keys = sorted(families)
    found = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            pts = pair_intersections(families[keys[i]], families[keys[j]])
            for p in pts:
                ok, wit = is_epsilon_placement(p, lines, SQUARE, 0.4)
                assert ok
                found += 1
    assert found > 0


@pytest.mark.parametrize("shape, eps", [(SQUARE, 0.4), (CIRCLE, 0.5)])
def test_pair_intersections_skip_only_pairs_within_a_family(shape, eps):
    # the same points as crossing every piece with every other and keeping
    # the pairs across the two families
    pa = build_placement_arrangement(random_lines(4, 28), eps, shape, include_line_translates=True)
    families: dict = {}
    for curve in pa.curves:
        families.setdefault(curve.vector.s, []).append(curve)
    families = list(families.values()) + [pa.line_translates]
    found = 0
    for curves_a, curves_b in zip(families, families[1:] + families[:1]):
        pieces = [p for c in curves_a + curves_b for p in c.pieces]
        na = sum(len(c.pieces) for c in curves_a)
        every, _overlaps = _piece_crossings(pieces, list(range(len(pieces))), VERTEX_SNAP)
        xy = every[(every[:, 0] < na) & (every[:, 1] >= na), 2:]
        first = xy[_snap_merge(xy, VERTEX_SNAP) == np.arange(len(xy))].tolist()
        expected = [Point(x, y) for x, y in sorted(first)]
        assert pair_intersections(curves_a, curves_b) == expected
        found += len(expected)
    assert found > 0


def test_overlay_counts_empty():
    pa = build_placement_arrangement([], 0.25, SQUARE)
    # only the domain frame: 4 vertices, 4 edges, 2 faces
    assert pa.counts == {"vertices": 4, "edges": 4, "faces": 2}


@pytest.mark.parametrize("prims, shape, message", [
    ([X_AXIS, Segment(Point(0, 1), Point(1, 0))], SQUARE, "mixes infinite lines and segments"),
    ([Segment(Point(0, 0), Point(1, 0.3)), Segment(Point(0.2, -0.5), Point(0.6, 0.8))], CIRCLE,
     "only computed over lines"),
], ids=["mixed", "circle-over-segments"])
def test_placement_refuses_unsupported_primitives(prims, shape, message):
    with pytest.raises(GeometryError, match=message):
        build_placement_arrangement(prims, 0.3, shape)


@pytest.mark.parametrize("prims", [
    [X_AXIS, Y_AXIS],
    [Segment(Point(0, 0), Point(1, 0.3)), Segment(Point(0.2, -0.5), Point(0.6, 0.8))],
], ids=["lines", "segments"])
def test_arrangement_reaches_past_the_domain(prims):
    # every wall distance of up to 1 + eps from the domain ends on a real wall
    pa = build_placement_arrangement(prims, 0.3, SQUARE)
    need, box = pa.domain.expanded(1.3), pa.arrangement.clip_box
    assert box.xmin < need.xmin and box.ymin < need.ymin
    assert box.xmax > need.xmax and box.ymax > need.ymax


def test_overlay_intersections_on_pieces():
    pa = build_placement_arrangement(random_lines(3, 55), 0.5, SQUARE)
    assert pa.counts["vertices"] > 4
    assert pa.counts["edges"] >= pa.counts["vertices"] - 4


def test_single_line_square_curveless():
    # one line never admits a gap of sub-unit length: no gap curves, and the
    # scan only reports contact events along the four line translates
    pa = build_placement_arrangement([Y_AXIS], 0.25, SQUARE, include_line_translates=True)
    assert pa.curves == []
    assert len(pa.line_translates) == 4
    scan = dense_scan([Y_AXIS], SQUARE, 0.25, pa.domain, 0.25 / 10)
    assert scan.shape[0] > 0
    for x, _y in scan:
        assert min(abs(x - t) for t in (-0.5, 0.5)) < 0.05
    assert verify(pa, scan, delta=0.25 / 5).empty()


def test_segment_scene_oracle_equivalence():
    segs = [
        Segment(Point(-1.0, -0.1), Point(1.0, 0.2)),
        Segment(Point(-0.2, -1.0), Point(0.1, 1.0)),
        Segment(Point(-0.8, 0.7), Point(0.9, -0.8)),
    ]
    eps = 0.5
    pa = build_placement_arrangement(segs, eps, SQUARE, include_line_translates=True)
    scan = dense_scan(segs, SQUARE, eps, pa.domain, eps / 20)
    rep = verify(pa, scan, delta=eps / 10)
    assert rep.empty()


def test_level_segment_ends_use_scalar_projection():
    # the line runs through two clusters of vertices a few ulps apart; which
    # vertex of a cluster ends the segment is decided by the projection onto
    # (-Q, P) computed as x * -Q + y * P in doubles, whatever BLAS numpy has;
    # the batched kernel cuts all 2000 lines in one call
    rng = np.random.default_rng(11)
    ties = 0
    polys, lines, expected = [], [], []
    for _ in range(2000):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        P, Q = math.cos(ang), math.sin(ang)
        R, level = rng.uniform(-1.0, 1.0, 2)
        x0, y0 = P * (level - R), Q * (level - R)

        def on_line(s):
            return (x0 - s * Q, y0 + s * P)

        def nudge(pt):
            x, y = pt
            for _ in range(int(rng.integers(1, 4))):
                x = float(np.nextafter(x, rng.choice((-np.inf, np.inf))))
                y = float(np.nextafter(y, rng.choice((-np.inf, np.inf))))
            return (x, y)

        a = on_line(rng.uniform(-2.0, -0.5))
        b = on_line(rng.uniform(0.5, 2.0))
        # one vertex on each side of the line, a unit step off its middle
        c = (0.5 * (a[0] + b[0]) + P, 0.5 * (a[1] + b[1]) + Q)
        d = (0.5 * (a[0] + b[0]) - P, 0.5 * (a[1] + b[1]) - Q)
        a2, b2 = nudge(a), nudge(b)
        polys.append([a, a2, c, b, b2, d])
        lines.append((P, Q, R, level))
        pts = [a, a2, b, b2]
        proj = [x * -Q + y * P for x, y in pts]
        ties += proj[0] == proj[1] or proj[2] == proj[3]
        i0 = min(range(4), key=proj.__getitem__)
        i1 = max(range(4), key=proj.__getitem__)
        expected.append((pts[i0], pts[i1]))
    P, Q, R, level = np.array(lines).T
    ok, lo, hi = _level_ends(np.array(polys), np.full(len(polys), 6), P, Q, R, level[:, None])
    assert ok.all()
    assert list(zip(map(tuple, lo.tolist()), map(tuple, hi.tolist()))) == expected
    assert ties > 0


# ---------------------------------------------------------------------------
# arc-arc crossings
# ---------------------------------------------------------------------------

def _random_arc(rng, center, max_len):
    return CurvePiece(
        "arc",
        center=tuple(float(v) for v in center),
        vec_a=tuple(float(v) for v in rng.uniform(-1.2, 1.2, 2)),
        vec_b=tuple(float(v) for v in rng.uniform(-1.2, 1.2, 2)),
        psi0=(psi0 := float(rng.uniform(-7.0, 7.0))),
        psi1=psi0 + float(rng.uniform(0.05, max_len)),
    )


def _implicit(arc, x, y):
    """(|M^-1 (p - c)|^2 - 1, psi) in the arc's own frame; x, y may be arrays."""
    (ax, ay), (bx, by) = arc.vec_a, arc.vec_b
    det = ax * by - ay * bx
    rx, ry = x - arc.center[0], y - arc.center[1]
    s, c = (rx * by - ry * bx) / det, (ax * ry - ay * rx) / det
    return s * s + c * c - 1.0, np.arctan2(s, c)


def _range_gap(arc, psi):
    """How far psi lies outside the arc's range modulo 2 pi (<= 0 inside)."""
    d = (psi - arc.psi0) % (2.0 * math.pi)
    return min(d - (arc.psi1 - arc.psi0), 2.0 * math.pi - d)


def _arc_pairs(n, seed=5):
    """Arc pairs near one another; the first arc's range may pass 2 pi, which
    the kernel solves in several stretches."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        c = rng.uniform(-0.5, 0.5, 2)
        p = _random_arc(rng, c, 7.0)
        q = _random_arc(rng, c + rng.uniform(-0.2, 0.2, 2), 4.0)
        dets = [abs(a.vec_a[0] * a.vec_b[1] - a.vec_a[1] * a.vec_b[0]) for a in (p, q)]
        if min(dets) > 0.05:
            pairs.append((p, q))
    return pairs


def test_arc_crossings_lie_on_both_arcs():
    found = 0
    for p, q in _arc_pairs(400):
        for x, y in _arc_arc_points(p, q):
            for arc in (p, q):
                g, psi = _implicit(arc, x, y)
                assert abs(g) <= 1e-9
                assert _range_gap(arc, psi) <= 1e-9
            found += 1
    assert found > 100


def test_arc_crossings_match_a_dense_scan():
    # away from tangency the kernel finds every sign change of q's implicit
    # form along p that a 20,000-step scan finds inside q's range, and no more
    checked = crossings = 0
    for p, q in _arc_pairs(400, seed=6):
        psi = np.linspace(p.psi0, p.psi1, 20001)
        pts = p.sample(20001)
        vals, qpsi = _implicit(q, pts[:, 0], pts[:, 1])
        turns = np.nonzero(np.diff(np.sign(np.diff(vals))))[0] + 1
        if np.abs(vals[turns]).min(initial=np.inf) < 1e-3:
            continue
        changes = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        gaps = [_range_gap(q, qpsi[k]) for k in changes]
        if any(abs(g) < 1e-3 for g in gaps) or any(
            min(psi[k] - p.psi0, p.psi1 - psi[k]) < 1e-3 for k in changes
        ):
            continue
        expected = sum(1 for g in gaps if g <= 0.0)
        assert len(_arc_arc_points(p, q)) == expected
        checked += 1
        crossings += expected
    assert checked > 300 and crossings > 100


def test_arc_box_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        arc = _random_arc(rng, (0.0, 0.0), 6.0)
        pts = arc.sample(20001)
        box = np.array(_piece_bbox(arc))
        dense = np.array([pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max()])
        assert np.all(box[:2] <= dense[:2] + 1e-12) and np.all(box[2:] >= dense[2:] - 1e-12)
        assert np.abs(box - dense).max() <= 1e-6


@pytest.mark.parametrize("sign, shift", [(1.0, 0.0), (-1.0, math.pi)])
def test_arcs_on_one_ellipse_share_their_overlap(sign, shift):
    # [0, 1] and [0.5, 1.5] on one ellipse, the second also given as the
    # opposite branch (negated vectors, parameter shifted by pi): the shared
    # stretch [0.5, 1] is one edge, so the arcs add 4 vertices and 3 edges
    first = CurvePiece("arc", center=(0.1, -0.2), vec_a=(0.3, 0.4), vec_b=(-0.8, 0.6), psi0=0.0, psi1=1.0)
    second = CurvePiece(
        "arc",
        center=(0.1, -0.2),
        vec_a=(sign * 0.3, sign * 0.4),
        vec_b=(sign * -0.8, sign * 0.6),
        psi0=0.5 + shift,
        psi1=1.5 + shift,
    )
    # no crossings, only the ends that lie on the other arc
    assert len(_arc_arc_points(first, second)) == 2
    curves = [CriticalCurve(-1, None, [first]), CriticalCurve(-1, None, [second])]
    counts = _overlay_counts(curves, BBox(-3.0, -3.0, 3.0, 3.0))
    assert counts["vertices"] == 4 + 4 and counts["edges"] == 4 + 3


def test_arc_box_pruning_keeps_counts(monkeypatch):
    pa = build_placement_arrangement(random_lines(3, 5), 0.5, "circle", include_line_translates=True)
    curves = pa.all_curves()
    monkeypatch.setattr(
        "critplace.placement._piece_bbox", lambda piece: (-np.inf, -np.inf, np.inf, np.inf)
    )
    assert _overlay_counts(curves, pa.domain) == pa.counts


def _moved(prims, f):
    return [type(p)(Point(*f(p.p.x, p.p.y)), Point(*f(p.q.x, p.q.y))) for p in prims]


NOISE_VARIANTS = {
    "shifted": lambda ps: _moved(ps, lambda x, y: (x + 0.37, y - 0.21)),
    "rotated": lambda ps: _moved(ps, lambda x, y: (-y, x)),
    "mirrored": lambda ps: _moved(ps, lambda x, y: (x, -y)),
    "reversed": lambda ps: ps[::-1],
}


@pytest.mark.parametrize("lines, eps, shape, translates", [
    (random_lines(3, 31), 0.8, CIRCLE, False),
    (random_lines(3, 31), 0.8, CIRCLE, True),
    (lower_bound_lines(16, 0.25), 0.25, SQUARE, True),
], ids=["circle", "circle-translates", "square-lower-bound"])
def test_overlay_counts_do_not_depend_on_noise(lines, eps, shape, translates):
    # moved by a symmetry of the shape or given in reverse order, the scene
    # has the same placement arrangement size
    def counts(prims):
        return build_placement_arrangement(prims, eps, shape, include_line_translates=translates).counts

    expected = counts(lines)
    for name, variant in NOISE_VARIANTS.items():
        assert counts(variant(lines)) == expected, name


def _random_segments(n: int, seed: int, half: float = 2.0) -> list[Segment]:
    """The segment scenes of the benchmark: n segments with both ends in
    [-half, half]^2, lengths 0.3-1.5."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x0, y0 = rng.uniform(-half, half, 2)
        length, ang = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        x1, y1 = x0 + length * math.cos(ang), y0 + length * math.sin(ang)
        if abs(x1) <= half and abs(y1) <= half:
            out.append(Segment(Point(float(x0), float(y0)), Point(float(x1), float(y1))))
    return out


def test_segment_scene_counts_do_not_depend_on_its_translation():
    # the benchmark's segments-square scene at the translations of its seeds
    # 1 and 7: a corner-chain piece 3.2e-4 long ends 6.6e-14 past a contact
    # translate at one and 3.4e-13 short of it at the other
    base = _random_segments(24, 0)
    counts = []
    for seed in (1, 7):
        dx, dy = (float(v) for v in np.random.default_rng(seed).uniform(-0.5, 0.5, (1, 2))[0])
        segs = _moved(base, lambda x, y: (x + dx, y + dy))
        counts.append(build_placement_arrangement(segs, 0.3, SQUARE, include_line_translates=True).counts)
    assert counts[0] == counts[1]


def test_segment_scene_translated_twice_keeps_its_chains():
    # the benchmark's segments-square scene at the translation of its seed
    # 1290081760, then moved again by (0.37, -0.21): chain ends that differ
    # in their last bits must still join, as `_snap_merge` joins them
    base = _random_segments(24, 0)
    dx, dy = (float(v) for v in np.random.default_rng(1290081760).uniform(-0.5, 0.5, (1, 2))[0])
    once = _moved(base, lambda x, y: (x + dx, y + dy))
    twice = _moved(once, lambda x, y: (x + 0.37, y - 0.21))
    pa = build_placement_arrangement(twice, 0.3, SQUARE, include_line_translates=True)
    assert len(pa.curves) == 337
    assert pa.counts == {"vertices": 3153, "edges": 5752, "faces": 2602}


def test_circle_scene_on_a_rounding_boundary_keeps_its_chains():
    # the benchmark's circle-lines scene moved by under a micron, so that two
    # ends of one chain, 1.3e-15 apart in x, fall on either side of a half
    # step of a 1e-6 rounding grid: they must still join, as `_snap_merge`
    # joins them
    lines = random_lines(2, 3)
    base = build_placement_arrangement(lines, 0.7, CIRCLE)
    moved = _moved(lines, lambda x, y: (x + 3.846829249587458e-07, y))
    pa = build_placement_arrangement(moved, 0.7, CIRCLE)
    assert len(base.curves) == len(pa.curves) == 22
    assert pa.counts == base.counts == {"vertices": 72, "edges": 88, "faces": 18}


def test_overlay_splits_collinear_overlaps():
    # (0,0)-(2,0) and (1,0)-(3,0) share [1, 2]: 4 vertices and 3 edges
    curves = [CriticalCurve(-1, None, [seg_piece(0, 0, 2, 0)]), CriticalCurve(-1, None, [seg_piece(1, 0, 3, 0)])]
    counts = _overlay_counts(curves, BBox(-5.0, -5.0, 5.0, 5.0))
    assert (counts["vertices"], counts["edges"]) == (4 + 4, 4 + 3)


def test_a_short_piece_meets_a_piece_it_stops_just_short_of():
    # 3e-4 long and 3.4e-13 short: within the snap distance, but past a
    # parameter slack of 1e-9 of its length
    gap = 3.4e-13
    stem = seg_piece(0.3, 3e-4 + gap, 0.3, gap)
    floor = seg_piece(-1.0, 0.0, 1.0, 0.0)
    counts = _overlay_counts([CriticalCurve(-1, None, [stem]), CriticalCurve(-1, None, [floor])], BBox(-3.0, -3.0, 3.0, 3.0))
    assert (counts["vertices"], counts["edges"]) == (4 + 4, 4 + 3)
    walls = [Segment(Point(*p.p0), Point(*p.p1)) for p in (floor, stem)]
    assert build_segment_arrangement(walls).n_edges == 4 + 3
