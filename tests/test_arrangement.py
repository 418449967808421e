import numpy as np
import pytest

import critplace.arrangement
from _reference import pairwise_segment_crossings, segment_intersection
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
    assert len(arr.interior_vertex_ids()) == 1
    assert len(arr.cells) == 4
    assert arr.euler_ok()


def test_three_lines_cell_count():
    lines = [
        Line(Point(0, -1), Point(0.1, 1)),
        Line(Point(-1, 0), Point(1, 0.13)),
        Line(Point(-1, 1), Point(1, -0.8)),
    ]
    arr = build_line_arrangement(lines)
    assert len(arr.interior_vertex_ids()) == 3
    assert len(arr.cells) == (3 * 3 + 3 + 2) // 2  # (n^2 + n + 2) / 2 = 7
    assert arr.euler_ok()


@pytest.mark.parametrize("n,seed", [(6, 2), (10, 5)])
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
    assert len(arr.interior_vertex_ids()) == expected == n * (n - 1) // 2
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
    assert len(arr.interior_vertex_ids()) == 5
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
    assert len(arr.interior_vertex_ids()) == 2 * len(segs) + crossings
    assert arr.euler_ok()


def _subdivision(arr):
    cells = [(c.outer, c.outer_tags, c.holes, c.convex) for c in arr.cells]
    return arr.verts.tobytes(), arr.edges, cells, arr.n_components


def test_subdivision_matches_the_pairwise_reference(monkeypatch):
    soup = [
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
    room = [
        Segment(Point(0, 0), Point(4, 0)),
        Segment(Point(4, 0), Point(4, 4)),
        Segment(Point(4, 4), Point(0, 4)),
        Segment(Point(0, 4), Point(0, 0)),
        Segment(Point(0, 2), Point(2.3, 2.7)),
    ]

    def scenes():
        soup_arr = build_segment_arrangement(soup)
        room_arr = build_segment_arrangement(room)
        cell = next(c for c in room_arr.cells if c.holes or not c.convex)
        polys = [sub.polygon.tobytes() for sub in convex_decompose(cell, room_arr)]
        lines_arr = build_line_arrangement(random_lines(6, 1))
        return _subdivision(soup_arr), _subdivision(lines_arr), polys

    swept = scenes()
    monkeypatch.setattr(critplace.arrangement, "_segment_crossings", pairwise_segment_crossings)
    assert swept == scenes()
    assert len(swept[2]) > 1


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
