import numpy as np
import pytest

from critplace.arrangement import build_line_arrangement
from critplace.generators import cross_trajectories, lower_bound_lines, random_lines
from critplace.geom import Point
from critplace.junctions import assess

from _reference import curves_by_vector, interior_vertex_ids


def test_lower_bound_counts_and_audit():
    lines = lower_bound_lines(8, 0.25)
    assert len(lines) == 8
    # no two parallel, no three concurrent is audited inside the generator;
    # the arrangement sees the full C(8,2) vertex count
    arr = build_line_arrangement(lines)
    assert len(interior_vertex_ids(arr)) == 28


def test_lower_bound_interior_cell_sizes():
    eps = 0.25
    lines = lower_bound_lines(8, eps)
    arr = build_line_arrangement(lines)
    # interior grid cells: bounded cells inside the central region
    small = []
    for cell in arr.cells:
        walls = arr.cell_walls(cell.id)
        if any(t[0] == "clip" for _p, _q, t in walls):
            continue
        poly = arr.cell_polygon(cell.id)
        if np.abs(poly).max() > 1.0:
            continue
        d = 0.0
        for i in range(len(poly)):
            for j in range(i + 1, len(poly)):
                d = max(d, float(np.hypot(*(poly[i] - poly[j]))))
        small.append(d)
    assert len(small) == 9  # 3x3 interior grid for n=8
    for d in small:
        assert eps / 2 <= d <= 2 * eps


def test_lower_bound_param_validation():
    with pytest.raises(ValueError):
        lower_bound_lines(5, 0.25)
    with pytest.raises(ValueError):
        lower_bound_lines(8, 1.5)
    with pytest.raises(ValueError):
        lower_bound_lines(8, 0.25, tilt=0.5)


def test_random_lines_deterministic():
    a = random_lines(6, 42)
    b = random_lines(6, 42)
    assert all(x.same_line(y) for x, y in zip(a, b))
    assert random_lines(0, 1) == []


def test_random_lines_general_position():
    lines = random_lines(12, 3)
    count = 0
    for i in range(12):
        for j in range(i + 1, 12):
            det = lines[i].a * lines[j].b - lines[j].a * lines[i].b
            assert abs(det) > 1e-9
            count += 1
    assert count == 66


def test_cross_trajectories_straight_pair():
    trajs = cross_trajectories(4, 1, 0.0, 0)
    assert len(trajs) == 2
    for t in trajs:
        v0, v2 = t.vertices[0], t.vertices[-1]
        assert abs(v0.x + v2.x) < 1e-9 and abs(v0.y + v2.y) < 1e-9


def test_cross_trajectories_deterministic():
    a = cross_trajectories(5, 2, 0.1, 9)
    b = cross_trajectories(5, 2, 0.1, 9)
    assert [t.id for t in a] == [t.id for t in b]
    for ta, tb in zip(a, b):
        for va, vb in zip(ta.vertices, tb.vertices):
            assert va.x == vb.x and va.y == vb.y


def test_lower_bound_piece_count_quadratic():
    # pieces of one vector's curve family stay bounded by a constant times
    # n^2 across doublings
    density = {}
    for n in (8, 16):
        lines = lower_bound_lines(n, 0.25)
        arr = build_line_arrangement(lines)
        by_vector = curves_by_vector(arr, "square", 0.25)
        tr = next(v for v in by_vector if v.label == "tr")
        pieces = sum(len(c.pieces) for c in by_vector[tr])
        density[n] = pieces / (n * n)
    assert density[16] <= 2.0 * density[8]


def test_cross_trajectories_cluster_counts():
    for arms in (3, 4, 5, 6):
        for seed in (0, 1):
            trajs = cross_trajectories(arms, 2, 0.1, seed)
            a = assess(Point(0, 0), trajs, 0.3)
            assert len(a.clusters) == arms
