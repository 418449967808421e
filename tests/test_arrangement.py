import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import critplace.arrangement
from _reference import (
    interior_vertex_ids,
    pairwise_line_crossings,
    pairwise_segment_crossings,
    reference_extract_faces,
    segment_intersection,
    traced_peak,
)
from critplace.arrangement import (
    SHOT_START,
    SHOT_WALL_SLACK,
    SNAP,
    OnBoundary,
    _first_wall_hits,
    _line_pairs,
    _segment_crossings,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    distinct_lines,
    locate,
)
from critplace.generators import random_lines
from critplace.geom import EPS_GEOM, Line, Point, Segment


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

ROOM = [
    Segment(Point(0, 0), Point(4, 0)),
    Segment(Point(4, 0), Point(4, 4)),
    Segment(Point(4, 4), Point(0, 4)),
    Segment(Point(0, 4), Point(0, 0)),
    Segment(Point(0, 2), Point(2.3, 2.7)),
    Segment(Point(3, 0.5), Point(3.5, 1.2)),  # a hole in a cell that is a hole's cell
]


def _grid_lines(coords):
    return [Line(Point(c, 0), Point(c, 1)) for c in coords] + [
        Line(Point(0, c), Point(1, c)) for c in coords
    ]


def test_subdivision_matches_the_pairwise_reference(monkeypatch):
    def scenes():
        soup_arr = build_segment_arrangement(SOUP)
        room_arr = build_segment_arrangement(ROOM)
        cell = next(c for c in room_arr.cells if c.holes or not c.convex)
        polys = [sub.polygon.tobytes() for sub in convex_decompose(cell, room_arr)]
        lines_arr = build_line_arrangement(random_lines(6, 1))
        # holes, antennas and an island; unit cells of equal area, which
        # their vertex ids order
        antennas_arr = build_segment_arrangement(_room_with_antennas())
        grid_arr = build_line_arrangement(_grid_lines(range(4)))
        return (
            _subdivision(soup_arr), _subdivision(lines_arr), polys,
            _subdivision(antennas_arr), _subdivision(grid_arr),
        )

    swept = scenes()
    monkeypatch.setattr(critplace.arrangement, "_segment_crossings", pairwise_segment_crossings)
    monkeypatch.setattr(critplace.arrangement, "_extract_faces", reference_extract_faces)
    assert swept == scenes()
    assert len(swept[2]) > 1


# SHA-256 of the repr of `_subdivision` of each scene: vertex bytes, edges,
# every cell's outer walk, tags, holes and convex flag, and the component
# count.  The tenth grid's unit cells differ in area by rounding alone, and
# are numbered by it.
SUBDIVISION_SCENES = {
    "soup": lambda: build_segment_arrangement(SOUP),
    "room": lambda: build_segment_arrangement(ROOM),
    "room-with-antennas": lambda: build_segment_arrangement(_room_with_antennas()),
    "random-segments": lambda: build_segment_arrangement(_random_segments()),
    "lines-3-5": lambda: build_line_arrangement(random_lines(3, 5)),
    "lines-5-1": lambda: build_line_arrangement(random_lines(5, 1)),
    "lines-6-2": lambda: build_line_arrangement(random_lines(6, 2)),
    "lines-4-44": lambda: build_line_arrangement(random_lines(4, 44)),
    "lines-64-1": lambda: build_line_arrangement(random_lines(64, 1)),
    "tenth-grid": lambda: build_line_arrangement(_grid_lines([0.1 * k for k in range(5)])),
}
SUBDIVISION_DIGESTS = {
    "soup": "698e7637496df73eb827d331eda308ffa70a05e801e3edec5fa7edb2ccb90e00",
    "room": "0899f8e1c96dbca273559b42b5129423f5882bf812868dab3bb71f077ecfd916",
    "room-with-antennas": "195ea26958990bd63dc1469a9cb3c098645d6f836651b5cd489a81cfa4ce9bfa",
    "random-segments": "ffdd5e24a4b113b9f160ec7513d41c4dd4a22cada8f7899af203eb1d18dfe350",
    "lines-3-5": "4f0be9e279dca699dedba46e11e0413c80cc2720e6e876f33a96ebc851fdc2f5",
    "lines-5-1": "c5eb7d6223bb42a4b71c46f96d9e3ea515fd9f8a5d76b5d1294b0b695ba418c3",
    "lines-6-2": "ef1e0b61cee226eb66c6ee0621413023de0318487dd792ca5a5b781559b17c7a",
    "lines-4-44": "c9f4ff90ae37aa5cdd09135c72e149f618138bf68fdad984c10b03defd363023",
    "lines-64-1": "7d7dd39c91ff8a7e74d10f2cec5e0ee16078e2fe76a56499108dc7bcf37c79aa",
    "tenth-grid": "ab855e776a0d671d1a037a7f7de1aa84f5b8f296ab002625b3cdaa200130ceb6",
}


@pytest.mark.parametrize("name", list(SUBDIVISION_SCENES))
def test_subdivisions_are_pinned(name):
    subdivision = _subdivision(SUBDIVISION_SCENES[name]())
    digest = hashlib.sha256(repr(subdivision).encode()).hexdigest()
    assert digest == SUBDIVISION_DIGESTS[name]


_SOUP_ENDS = np.array([(s.p.x, s.p.y, s.q.x, s.q.y) for s in SOUP])
SWEEP_SCENES = {
    "soup": (_SOUP_ENDS, np.arange(len(SOUP))),
    # every third segment is of one family: those pairs never meet
    "same-family": (_SOUP_ENDS, np.arange(len(SOUP)) % 3),
    "vertical": (
        np.array([
            (0, 0, 0, 2), (0, 1, 0, 3), (-1, 1, 1, 1), (0.5, -1, 0.5, 3),
            (-1, 2.5, 2, 0.2), (0.5, 3, 0.5, 4), (2, 0.2, 2, 1.5),
        ], dtype=float),
        np.arange(7),
    ),
    # a point segment on the crossing of the diagonals, its twin and one alone
    "point": (
        np.array([(0, 0, 2, 2), (1, 1, 1, 1), (0, 2, 2, 0), (1, 1, 1, 1), (5, 5, 5, 5)], dtype=float),
        np.arange(5),
    ),
    # collinear overlaps, a contained piece, an end-to-end touch and a
    # parallel piece off the line
    "parallel": (
        np.array([
            (0, 0, 2, 0), (1, 0, 3, 0), (0.5, 0, 1.5, 0), (0, 0.5, 2, 0.5), (0, 0, 1, 1),
            (2, 2, 0.5, 0.5), (2, 2, 3, 3), (1, -1, 1, 1), (3, 0, 4, 0),
        ], dtype=float),
        np.arange(9),
    ),
    # one segment across every other's x-range
    "long": (
        np.vstack([
            [(-10.0, 0.1, 10.0, 0.3)],
            np.random.default_rng(4).uniform(-5.0, 5.0, (12, 4)) * [1.0, 0.2, 1.0, 0.2],
        ]),
        np.arange(13),
    ),
}


# (crossings, overlap ends) of each scene
SWEEP_MEETS = {
    "soup": (12, 2), "same-family": (8, 2), "vertical": (8, 3), "point": (1, 4),
    "parallel": (9, 10), "long": (27, 0),
}


@pytest.mark.parametrize("chunk", [1, 3, critplace.arrangement.SWEEP_CHUNK])
@pytest.mark.parametrize("name", list(SWEEP_SCENES))
def test_sweep_matches_the_pairwise_reference(monkeypatch, name, chunk):
    # chunks of 1 and 3 candidate pairs cut between and inside the pairs of
    # one segment, which then takes a chunk of its own
    ends, family = SWEEP_SCENES[name]
    monkeypatch.setattr(critplace.arrangement, "SWEEP_CHUNK", chunk)
    swept = _segment_crossings(ends[:, :2], ends[:, 2:], family, SNAP)
    expected = pairwise_segment_crossings(ends[:, :2], ends[:, 2:], family, SNAP)
    assert [rows.tolist() for rows in swept] == [rows.tolist() for rows in expected]
    assert tuple(map(len, swept)) == SWEEP_MEETS[name]


def test_sweep_memory_stays_bounded():
    # 1,500 disjoint horizontal segments over one x-range: about 1.1 M
    # candidate pairs and no meeting; all at once they would take 56 MB
    n = 1500
    y = np.arange(n, dtype=float)
    P0, P1 = np.column_stack([np.zeros(n), y]), np.column_stack([np.ones(n), y])
    (crossings, overlaps), peak = traced_peak(lambda: _segment_crossings(P0, P1, np.arange(n), SNAP))
    assert crossings.shape == overlaps.shape == (0, 4)
    assert peak < 3e6


def test_decomposition_kernels_stay_bounded():
    # a comb: the unit square under a sawtooth of n teeth, one cell of
    # 2n + 3 walls whose n valleys, at height 0.5, are reflex corners
    n = 600
    top = [Point(1.0 - k / (2 * n), 1.0 if k % 2 == 0 else 0.5) for k in range(2 * n + 1)]
    outline = [Point(0.0, 0.0), Point(1.0, 0.0), *top]
    arr = build_segment_arrangement([Segment(a, b) for a, b in zip(outline, outline[1:] + outline[:1])])
    cid = locate(Point(0.5, 0.25), arr)
    walls = np.array([(a.x, a.y, b.x, b.y) for a, b, _tag in arr.cell_walls(cid)])
    assert len(walls) == 2 * n + 3
    valleys = np.array([(p.x, p.y) for p in top[1::2]])
    # every valley's ray down meets the bottom; all at once 720,000 ray-wall
    # entries would take 35 MB
    (wall, t), peak = traced_peak(
        lambda: _first_wall_hits(valleys, (0.0, -1.0), walls, SHOT_START, SHOT_WALL_SLACK)
    )
    assert set(wall.tolist()) == {walls.tolist().index([0.0, 0.0, 1.0, 0.0])}
    assert t.tolist() == [0.5] * n
    assert peak < 1e6
    # 2,000 probes under and over the teeth against 1,203 boundary steps,
    # which all at once would take 41 MB
    arr.cell_boundary_steps(cid)
    probes = np.column_stack([np.linspace(0.001, 0.999, 2000), np.tile([0.25, 1.25], 1000)])
    inside, peak = traced_peak(lambda: arr.points_in_cell(probes, cid))
    assert inside.tolist() == [True, False] * 1000
    assert peak < 1e6


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
    "coords,counts", [(CONCURRENT, (7, 12, 7)), (CONCURRENT + [(-1, 0.3, 1, 0.1)], (12, 21, 11))]
)
def test_concurrent_lines_keep_their_thin_cell(coords, counts, shift):
    # the three crossings at the common point merge into one vertex of degree
    # 6, and no thin cell is left between them, however far from the origin
    # the lines lie
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
        # every cell of a line arrangement is convex: its vertex mean is inside
        probe = Point(*arr.cell_polygon(cid).mean(axis=0))
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


def _random_segments():
    rng = np.random.default_rng(5)
    segs = []
    while len(segs) < 12:
        p = Point(*rng.uniform(-2, 2, 2))
        q = Point(p.x + rng.uniform(-1.5, 1.5), p.y + rng.uniform(-1.5, 1.5))
        if p.dist(q) > 0.4:
            segs.append(Segment(p, q))
    return segs


def test_convex_decompose_random_scenes():
    segs = _random_segments()
    arr = build_segment_arrangement(segs)
    for cell in arr.cells:
        subs = convex_decompose(cell, arr)
        k = _endpoint_count_on_boundary(arr, cell, segs)
        assert len(subs) <= max(1, 4 * k * k)
        area = sum(abs(_poly_area(s.polygon)) for s in subs)
        assert area == pytest.approx(arr.cell_area(cell.id), rel=1e-7)
        for s in subs:
            assert _is_convex(s.polygon, tol=1e-8)


def _room_with_antennas():
    # a 3 x 3 room, two antennas up from its floor, two in from its left
    # wall, and an island triangle near its top right corner
    ends = [
        (0, 0, 3, 0), (3, 0, 3, 3), (3, 3, 0, 3), (0, 3, 0, 0),
        (1, 0, 1, 0.5), (2, 0, 2, 0.5), (0, 1, 0.5, 1), (0, 2, 0.5, 2),
        (2.4, 2.4, 2.8, 2.4), (2.8, 2.4, 2.6, 2.8), (2.6, 2.8, 2.4, 2.4),
    ]
    return [Segment(Point(x0, y0), Point(x1, y1)) for x0, y0, x1, y1 in ends]


def test_convex_decompose_keeps_subcells_by_the_side_of_their_walls():
    arr = build_segment_arrangement(_room_with_antennas())
    cid = locate(Point(1.5, 1.5), arr)
    subs = convex_decompose(arr.cells[cid], arr)
    assert len(subs) == 13
    assert sum(_poly_area(s.polygon) for s in subs) == pytest.approx(8.92, rel=1e-12)
    # the middle square is bounded by rays alone
    middle = [s.polygon.tolist() for s in subs if s.polygon.min(axis=0).tolist() == [1.0, 1.0]]
    assert middle == [[[1.0, 2.0], [1.0, 1.0], [2.0, 1.0], [2.0, 2.0]]]
    # each subcell is convex, so its vertex mean is inside it: every one
    # lies in the room's cell, none inside the island
    assert all(_is_convex(s.polygon) for s in subs)
    assert {locate(Point(*s.polygon.mean(axis=0)), arr) for s in subs} == {cid}
    assert locate(Point(2.6, 2.5), arr) != cid


def test_convex_decompose_keeps_a_subcell_one_ulp_tall():
    # a ray ends one ulp below the clip frame's bottom, so one subcell of the
    # frame's cell has two vertex heights one ulp apart; a scanline between
    # them runs along the bottom, where an interior-point search found no
    # point inside and the subcell was dropped
    ends = [
        (0.025289194285797567, 0.07693611851884619, -0.6791011639025694, -1.0353989469256515),
        (-1.9170758696925363, -0.42468815630536705, -3.3467200096725316, -0.42468815630536705),
        (1.1524255751939143, 0.47038152731867156, 1.1524255751939143, 1.5537171647530248),
        (0.5257167853291222, -1.2540316121952948, 0.5257167853291222, -1.4902721131757972),
    ]
    arr = build_segment_arrangement([Segment(Point(a, b), Point(c, d)) for a, b, c, d in ends])
    subs = convex_decompose(arr.cells[0], arr)
    assert len(subs) == 8
    area = sum(_poly_area(s.polygon) for s in subs)
    assert area == pytest.approx(arr.cell_area(0), rel=1e-12)


def test_convex_decompose_subcells_are_pinned():
    # every subcell polygon, in order, of every cell of four scenes: the
    # bytes the decomposition gave when it located a probe per subcell
    digest = hashlib.sha256()
    for segs in (SOUP, ROOM, _random_segments(), _room_with_antennas()):
        arr = build_segment_arrangement(segs)
        for cell in arr.cells:
            for sub in convex_decompose(cell, arr):
                digest.update(sub.polygon.tobytes())
    assert digest.hexdigest() == "4a91d615cdd3ef7059cceb962f17dac770c3d2ddbc5d7433ad173996a5745d15"

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


def test_coincident_lines_count_once():
    lines = [Line(Point(0, -1), Point(0, 1)), Line(Point(0, -2), Point(0, 2))]
    arr = build_line_arrangement(lines)
    # the second vertical is the first one again: one line, two cells
    assert arr.primitives == lines[:1]
    assert len(arr.cells) == 2
    assert arr.euler_ok()


@pytest.mark.parametrize("start", [0, 1, 9, 13])
def test_line_pairs_match_the_pair_loop(start):
    # random lines, two parallels and a vertical repeated: every float is
    # the loop's, in the loop's order
    lines = random_lines(10, 5) + [Line(Point(0, 0), Point(1, 1)), Line(Point(0, 1), Point(1, 2))]
    lines += [Line(Point(0.3, -1), Point(0.3, 1))] * 2
    i, j, det, x, y = _line_pairs(lines, start)
    want = [row for row in pairwise_line_crossings(lines) if row[1] >= start]
    assert list(zip(i.tolist(), j.tolist(), det.tolist())) == [row[:3] for row in want]
    finite = det != 0.0
    assert not np.isfinite(x[~finite]).any() and (~finite).sum() == sum(row[3] is None for row in want)
    assert x[finite].tolist() == [row[3] for row in want if row[3] is not None]
    assert y[finite].tolist() == [row[4] for row in want if row[4] is not None]


def _moved(line: Line, along_normal: float, turn: float) -> Line:
    """The line shifted along its normal and its second anchor moved across
    it, both by multiples of EPS_GEOM."""
    g = EPS_GEOM
    dx, dy = line.a * along_normal * g, line.b * along_normal * g
    span = line.p.dist(line.q)
    return Line(
        Point(line.p.x + dx, line.p.y + dy),
        Point(line.q.x + dx + line.a * turn * g * span, line.q.y + dy + line.b * turn * g * span),
    )


@pytest.mark.parametrize("along_normal, turn", [
    (0.5, 0.0), (-0.5, 0.0), (2.0, 0.0), (-2.0, 0.0), (0.0, 0.5), (0.0, -0.5), (0.0, 2.0), (0.0, -2.0),
])
@pytest.mark.parametrize("base", [(-1, 0.1, 1, 0.2), (0.2, -1, -0.1, 1), (0, -1, 0, 1), (-0.3, 0.8, 0.5, -0.6)])
def test_repeat_filter_agrees_with_same_line(base, along_normal, turn):
    line = Line(Point(*base[:2]), Point(*base[2:]))
    other = _moved(line, along_normal, turn)
    # half a tolerance apart is one line, two tolerances apart are two
    same = abs(along_normal) < 1.0 and abs(turn) < 1.0
    assert line.same_line(other) == same
    assert distinct_lines([line, other]) == ([line] if same else [line, other])
    assert distinct_lines([other, line]) == ([other] if same else [other, line])


def test_repeat_filter_compares_with_kept_lines_only():
    line = Line(Point(-1, 0.1), Point(1, 0.2))
    near, far = _moved(line, 0.6, 0.0), _moved(line, 1.2, 0.0)
    # `near` repeats `line` and goes; `far` is no repeat of `line`, the line kept
    assert near.same_line(far) and not line.same_line(far)
    assert distinct_lines([line, near, far]) == [line, far]


def _pairwise_merge(xy: np.ndarray, snap: float, group=None) -> list[int]:
    """The first index merged with each point, from a test of every pair (of
    one group, when a group is given)."""
    group = [0] * len(xy) if group is None else list(group)
    label = list(range(len(xy)))
    for i in range(len(xy)):
        for j in range(i):
            if group[i] == group[j] and abs(xy[i] - xy[j]).max() <= snap:
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
    # in three groups a point joins only its own group's points: never
    # through another group's point between them (two ends 1.2 snap apart
    # with one of group 1 halfway), nor where they share a grid cell
    between = np.column_stack([-0.5 + 0.6 * snap * np.arange(3), np.full(3, 0.1)])
    xy = np.concatenate([xy, between, np.full((3, 2), 0.55)])
    group = np.concatenate([rng.integers(0, 3, len(xy) - 6), [0, 1, 0, 2, 0, 2]])
    grouped = critplace.arrangement._snap_merge(xy, snap, group).tolist()
    assert grouped == _pairwise_merge(xy, snap, group)
    assert grouped[-6:] == [len(xy) - k for k in (6, 5, 4, 3, 2, 3)]
