import math
from collections import Counter

import numpy as np
import pytest

import critplace.arrangement
from _reference import (
    interior_vertex_ids,
    pairwise_segment_crossings,
    reference_extract_faces,
    segment_intersection,
)
from critplace.arrangement import (
    OnBoundary,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    locate,
)
from critplace.generators import random_lines
from critplace.geom import Line, Point, Segment


def _poly_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _is_convex(poly, tol=1e-9):
    m = len(poly)
    for i in range(m):
        a, b, c = poly[i], poly[(i + 1) % m], poly[(i + 2) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross < -tol:
            return False
    return True


def test_two_crossing_lines():
    arr = build_line_arrangement(
        [Line(Point(0, -1), Point(0, 1)), Line(Point(-1, 0), Point(1, 0))]
    )
    assert len(interior_vertex_ids(arr)) == 1
    assert len(arr.cells) == 4
    assert arr.euler_ok()


def test_three_lines_cell_count():
    lines = [
        Line(Point(0, -1), Point(0.1, 1)),
        Line(Point(-1, 0), Point(1, 0.13)),
        Line(Point(-1, 1), Point(1, -0.8)),
    ]
    arr = build_line_arrangement(lines)
    assert len(interior_vertex_ids(arr)) == 3
    assert len(arr.cells) == (3 * 3 + 3 + 2) // 2  # (n^2 + n + 2) / 2 = 7
    assert arr.euler_ok()


@pytest.mark.parametrize("n,seed", [(6, 2), (10, 5), (128, 1)])
def test_random_lines_interior_vertices(n, seed):
    lines = random_lines(n, seed)
    # brute-force count of pairwise intersections
    expected = 0
    for i in range(n):
        for j in range(i + 1, n):
            det = lines[i].a * lines[j].b - lines[j].a * lines[i].b
            if abs(det) > 1e-12:
                expected += 1
    arr = build_line_arrangement(lines)
    assert len(interior_vertex_ids(arr)) == expected == n * (n - 1) // 2
    assert len(arr.cells) == (n * n + n + 2) // 2
    assert arr.euler_ok()
    # all line-arrangement cells are convex
    assert all(c.convex for c in arr.cells)


def test_segment_crossing_counts():
    segs = [
        Segment(Point(-1, -1), Point(1, 1)),
        Segment(Point(-1, 1), Point(1, -1)),
    ]
    arr = build_segment_arrangement(segs)
    # 4 endpoints + 1 crossing inside the box
    assert len(interior_vertex_ids(arr)) == 5
    assert len(arr.cells) == 1
    assert arr.euler_ok()


def test_segment_square_cell():
    segs = [
        Segment(Point(0, 0), Point(1, 0)),
        Segment(Point(1, 0), Point(1, 1)),
        Segment(Point(1, 1), Point(0, 1)),
        Segment(Point(0, 1), Point(0, 0)),
    ]
    arr = build_segment_arrangement(segs)
    convex_cells = [c for c in arr.cells if c.convex]
    assert len(convex_cells) == 1
    assert arr.cell_area(convex_cells[0].id) == pytest.approx(1.0)
    assert arr.euler_ok()


def test_random_segments_vertex_count():
    rng = np.random.default_rng(9)
    segs = []
    while len(segs) < 40:
        p = Point(*rng.uniform(-2, 2, 2))
        q = Point(*rng.uniform(-2, 2, 2))
        if p.dist(q) > 0.3:
            segs.append(Segment(p, q))
    crossings = 0
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            hit = segment_intersection(segs[i].p, segs[i].q, segs[j].p, segs[j].q)
            if hit is not None:
                crossings += 1
    arr = build_segment_arrangement(segs)
    assert len(interior_vertex_ids(arr)) == 2 * len(segs) + crossings
    assert arr.euler_ok()


def _subdivision(arr):
    cells = [(c.outer, c.outer_tags, c.holes, c.convex) for c in arr.cells]
    return arr.verts.tobytes(), arr.edges, cells, arr.n_components


SOUP = [
    Segment(Point(0, 0), Point(2, 0)),
    Segment(Point(2, 0), Point(2, 2)),  # shares an end with its neighbours
    Segment(Point(2, 2), Point(0, 0)),
    Segment(Point(1, -1), Point(1, 0)),  # T-touches the first
    Segment(Point(3.1, 1.3), Point(2, 1)),  # T-touches the second
    Segment(Point(-1, 0), Point(0.5, 0)),  # overlaps the first
    Segment(Point(-1, 3), Point(3, 3 + 4e-6)),  # crosses the next at 1.5e-6 rad
    Segment(Point(-1, 3 + 2e-6), Point(3, 3)),
    Segment(Point(0.3, -0.7), Point(1.7, 2.9)),
    Segment(Point(-0.6, 2.2), Point(2.9, -0.4)),
]


def test_subdivision_matches_the_pairwise_reference(monkeypatch):
    room = [
        Segment(Point(0, 0), Point(4, 0)),
        Segment(Point(4, 0), Point(4, 4)),
        Segment(Point(4, 4), Point(0, 4)),
        Segment(Point(0, 4), Point(0, 0)),
        Segment(Point(0, 2), Point(2.3, 2.7)),
        Segment(Point(3, 0.5), Point(3.5, 1.2)),  # a hole in a cell that is a hole's cell
    ]

    def scenes():
        soup_arr = build_segment_arrangement(SOUP)
        room_arr = build_segment_arrangement(room)
        cell = next(c for c in room_arr.cells if c.holes or not c.convex)
        polys = [sub.polygon.tobytes() for sub in convex_decompose(cell, room_arr)]
        lines_arr = build_line_arrangement(random_lines(6, 1))
        return _subdivision(soup_arr), _subdivision(lines_arr), polys

    swept = scenes()
    monkeypatch.setattr(critplace.arrangement, "_segment_crossings", pairwise_segment_crossings)
    monkeypatch.setattr(critplace.arrangement, "_extract_faces", reference_extract_faces)
    assert swept == scenes()
    assert len(swept[2]) > 1


def _edge_ends(arr, tag_kind):
    return sorted(
        tuple(sorted((tuple(arr.verts[u].tolist()), tuple(arr.verts[v].tolist()))))
        for u, v, tag in arr.edges
        if tag[0] == tag_kind
    )


@pytest.mark.parametrize(
    "segs,expected",
    [
        (
            SOUP,
            [  # the walls on y = 0, as the T-junction pass that this rule replaced split them
                ((-1.0, 0.0), (0.0, 0.0)),
                ((0.0, 0.0), (0.5, 0.0)),
                ((0.5, 0.0), (0.5722222222222222, 0.0)),
                ((0.5722222222222222, 0.0), (1.0, 0.0)),
                ((1.0, 0.0), (2.0, 0.0)),
            ],
        ),
        (
            [Segment(Point(0, 0), Point(3, 1.5)), Segment(Point(1, 0.5), Point(2, 1))],
            [((0.0, 0.0), (1.0, 0.5)), ((1.0, 0.5), (2.0, 1.0)), ((2.0, 1.0), (3.0, 1.5))],
        ),
        (
            [Segment(Point(0, 0), Point(3, 1.5)), Segment(Point(1, 0.5 + 1e-12), Point(4, 2 + 1e-12))],
            [
                ((0.0, 0.0), (1.0, 0.500000000001)),
                ((1.0, 0.500000000001), (3.0, 1.5)),
                ((3.0, 1.5), (4.0, 2.000000000001)),
            ],
        ),
        (  # parallel, 1e-6 apart: no overlap
            [Segment(Point(0, 0), Point(3, 1.5)), Segment(Point(1, 0.5 + 1e-6), Point(2, 1 + 1e-6))],
            [((0.0, 0.0), (3.0, 1.5)), ((1.0, 0.500001), (2.0, 1.000001))],
        ),
    ],
    ids=["soup", "contained", "staggered", "parallel"],
)
def test_collinear_overlaps_share_their_edges(segs, expected):
    arr = build_segment_arrangement(segs)
    edges = _edge_ends(arr, "segment")
    if segs is SOUP:
        edges = [e for e in edges if e[0][1] == e[1][1] == 0.0]
    assert sorted(set(edges)) == expected
    # no two edges leave a vertex in one direction
    for vid in range(arr.n_vertices):
        dirs = [
            math.atan2(*(arr.verts[w] - arr.verts[vid])[::-1])
            for u, v, _tag in arr.edges
            for w in ((v,) if u == vid else (u,) if v == vid else ())
        ]
        assert len(set(dirs)) == len(dirs)


def test_convex_decompose_rays_through_a_collinear_segment():
    # the +x ray from (1, 0) runs along (2, 0)-(3, 0) to the frame, and the
    # -x ray from (2, 0) along (0, 0)-(1, 0): each is split where it overlaps
    arr = build_segment_arrangement(
        [Segment(Point(0, 0), Point(1, 0)), Segment(Point(2, 0), Point(3, 0))]
    )
    assert (arr.n_vertices, arr.n_edges, len(arr.cells), arr.n_components) == (8, 6, 1, 3)
    subs = convex_decompose(arr.cells[0], arr)
    assert [s.polygon.tolist() for s in subs] == [  # as under the T-junction pass
        [[-1, -1], [4, -1], [4, 0], [3, 0], [2, 0], [1, 0], [0, 0], [-1, 0]],
        [[4, 0], [4, 1], [-1, 1], [-1, 0], [0, 0], [1, 0], [2, 0], [3, 0]],
    ]
    assert sum(_poly_area(s.polygon) for s in subs) == pytest.approx(arr.cell_area(0), rel=1e-12)


@pytest.mark.parametrize(
    "offset,meets", [(0.0, True), (1e-12, True), (5e-10, True), (1.5e-9, False), (3e-9, False)]
)
def test_a_segment_end_meets_a_wall_only_where_the_sweep_reports_it(offset, meets):
    # a stem starting at t = 0.37 on the wall, moved off it along the normal:
    # it meets the wall while that stays within the sweep's parameter slack
    wall = Segment(Point(0, 0), Point(2, 0.3))
    nx, ny = -0.3 / math.hypot(2, 0.3), 2 / math.hypot(2, 0.3)
    start = Point(0.74 + offset * nx, 0.111 + offset * ny)
    arr = build_segment_arrangement([wall, Segment(start, Point(start.x + nx, start.y + ny))])
    degree = Counter(v for u, w, _tag in arr.edges for v in (u, w))
    assert (arr.n_vertices, arr.n_edges, max(degree.values())) == ((8, 7, 3) if meets else (8, 6, 2))
    # where the stem dangles, the rays from its end reach the wall however short they are
    subs = convex_decompose(arr.cells[0], arr)
    assert sum(_poly_area(s.polygon) for s in subs) == pytest.approx(arr.cell_area(0), rel=1e-12)
    for s in subs:
        assert len({tuple(v) for v in s.polygon.tolist()}) == len(s.polygon)
        assert _is_convex(s.polygon)


CONCURRENT = [(-1, -1, 1, 1), (-1, 1, 1, -1), (0, -1, 0, 1)]


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.37, -0.21), (-1000.0, 250.0)])
@pytest.mark.parametrize(
    "coords,counts", [(CONCURRENT, (9, 15, 8)), (CONCURRENT + [(-1, 0.3, 1, 0.1)], (14, 24, 12))]
)
def test_concurrent_lines_keep_their_thin_cell(coords, counts, shift):
    # general position splits the common point into a triangle of area about
    # 1e-15: a cell, however far from the origin the lines lie
    dx, dy = shift
    lines = [Line(Point(x0 + dx, y0 + dy), Point(x1 + dx, y1 + dy)) for x0, y0, x1, y1 in coords]
    arr = build_line_arrangement(lines)
    assert (arr.n_vertices, arr.n_edges, arr.n_faces) == counts
    assert arr.euler_ok()


def test_locate():
    arr = build_line_arrangement(
        [Line(Point(0, -1), Point(0, 1)), Line(Point(-1, 0), Point(1, 0))]
    )
    cid = locate(Point(1, 1), arr)
    assert arr.point_in_cell(Point(1.5, 1.5), cid)  # same quadrant
    with pytest.raises(OnBoundary):
        locate(Point(0.0, 0.5), arr)


def test_locate_against_halfplane_signs():
    lines = random_lines(5, 13)
    arr = build_line_arrangement(lines)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 300:
        pt = Point(*rng.uniform(-1.5, 1.5, 2))
        try:
            cid = locate(pt, arr)
        except OnBoundary:
            continue
        probe = arr.cell_interior_point(cid)
        for ln in lines:
            assert ln.side_of(pt) * ln.side_of(probe) > 0
        checked += 1


def test_convex_decompose_identity_on_convex():
    arr = build_line_arrangement(
        [Line(Point(0, -1), Point(0, 1)), Line(Point(-1, 0), Point(1, 0))]
    )
    for cell in arr.cells:
        subs = convex_decompose(cell, arr)
        assert len(subs) == 1


def test_convex_decompose_l_shape():
    # an L-shaped cell: a square room with a wall poking in from one side
    segs = [
        Segment(Point(0, 0), Point(4, 0)),
        Segment(Point(4, 0), Point(4, 4)),
        Segment(Point(4, 4), Point(0, 4)),
        Segment(Point(0, 4), Point(0, 0)),
        Segment(Point(0, 2), Point(2, 2)),  # wall with one interior endpoint
    ]
    arr = build_segment_arrangement(segs)
    room = max(arr.cells, key=lambda c: arr.cell_area(c.id))
    inner = [c for c in arr.cells if 0 < arr.cell_area(c.id) < arr.cell_area(room.id)]
    cell = max(inner, key=lambda c: arr.cell_area(c.id))
    assert not cell.convex
    subs = convex_decompose(cell, arr)
    assert 2 <= len(subs) <= 4
    area = sum(abs(_poly_area(s.polygon)) for s in subs)
    assert area == pytest.approx(arr.cell_area(cell.id), rel=1e-9)
    for s in subs:
        assert _is_convex(s.polygon)


def test_convex_decompose_random_scenes():
    rng = np.random.default_rng(5)
    segs = []
    while len(segs) < 12:
        p = Point(*rng.uniform(-2, 2, 2))
        q = Point(p.x + rng.uniform(-1.5, 1.5), p.y + rng.uniform(-1.5, 1.5))
        if p.dist(q) > 0.4:
            segs.append(Segment(p, q))
    arr = build_segment_arrangement(segs)
    for cell in arr.cells:
        subs = convex_decompose(cell, arr)
        k = _endpoint_count_on_boundary(arr, cell, segs)
        assert len(subs) <= max(1, 4 * k * k)
        area = sum(abs(_poly_area(s.polygon)) for s in subs)
        assert area == pytest.approx(arr.cell_area(cell.id), rel=1e-7)
        for s in subs:
            assert _is_convex(s.polygon, tol=1e-8)


def _endpoint_count_on_boundary(arr, cell, segs):
    ends = {(round(s.p.x, 9), round(s.p.y, 9)) for s in segs} | {
        (round(s.q.x, 9), round(s.q.y, 9)) for s in segs
    }
    walk_pts = set()
    chains = [cell.outer] + [w for w, _t in cell.holes]
    for walk in chains:
        for v in walk:
            x, y = arr.verts[v]
            walk_pts.add((round(float(x), 9), round(float(y), 9)))
    return len(ends & walk_pts)


def test_duplicate_lines_get_perturbed():
    lines = [Line(Point(0, -1), Point(0, 1)), Line(Point(0, -2), Point(0, 2))]
    arr = build_line_arrangement(lines)
    # after perturbation the two verticals are distinct parallels: 3 cells
    assert len(arr.cells) == 3
    assert arr.euler_ok()


def _pairwise_merge(xy: np.ndarray, snap: float) -> list[int]:
    """The first index merged with each point, from a test of every pair."""
    label = list(range(len(xy)))
    for i in range(len(xy)):
        for j in range(i):
            if abs(xy[i] - xy[j]).max() <= snap:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if lab == old else lab for lab in label]
    return label


@pytest.mark.parametrize("chunk", [1, 7, critplace.arrangement.MERGE_CHUNK])
def test_snap_merge_matches_a_pairwise_union_find(monkeypatch, chunk):
    # clusters of near points, chains whose ends are farther apart than the
    # snap but join through the points between, and points on one vertical
    rng = np.random.default_rng(5)
    snap = 1e-3
    centers = rng.uniform(-1, 1, (30, 2))
    near = np.repeat(centers, 4, axis=0) + rng.uniform(-0.6 * snap, 0.6 * snap, (120, 2))
    chain = np.column_stack([0.3 + 0.9 * snap * np.arange(6), np.full(6, 0.7)])
    column = np.column_stack([np.full(40, -0.25), rng.uniform(-1, 1, 40)])
    xy = rng.permutation(np.concatenate([near, chain, column, rng.uniform(-1, 1, (60, 2))]))
    monkeypatch.setattr(critplace.arrangement, "MERGE_CHUNK", chunk)
    assert critplace.arrangement._snap_merge(xy, snap).tolist() == _pairwise_merge(xy, snap)
