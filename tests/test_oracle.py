import math

import numpy as np
import pytest

from critplace.arrangement import BBox
from critplace.generators import random_lines
from critplace.geom import CIRCLE, SQUARE, Line, Point
from critplace.oracle import (
    boundary_gaps,
    dense_scan,
    is_epsilon_placement,
    verify,
)
from critplace.placement import build_placement_arrangement

from _reference import dense_scan_naive


V_LINE = Line(Point(0, -1), Point(0, 1))
H_LINE = Line(Point(-1, 0), Point(1, 0))


def test_gaps_single_vertical_line():
    prof = boundary_gaps(Point(0, 0), [V_LINE], SQUARE)
    assert sorted(round(c.length, 9) for c in prof.components) == [2.0, 2.0]
    assert prof.total_length() == pytest.approx(4.0)


def test_gaps_two_vertical_lines():
    lines = [Line(Point(-0.25, -1), Point(-0.25, 1)), Line(Point(0.25, -1), Point(0.25, 1))]
    prof = boundary_gaps(Point(0, 0), lines, SQUARE)
    assert sorted(round(c.length, 6) for c in prof.components) == [0.5, 0.5, 1.5, 1.5]


def test_gaps_circle_halved():
    prof = boundary_gaps(Point(0, 0), [H_LINE], CIRCLE)
    lengths = sorted(c.length for c in prof.components)
    assert lengths == pytest.approx([math.pi, math.pi])


def test_gaps_lengths_sum_to_perimeter():
    rng = np.random.default_rng(4)
    lines = random_lines(4, 17)
    for _ in range(100):
        c = Point(*rng.uniform(-1.5, 1.5, 2))
        for shape, P in ((SQUARE, 4.0), (CIRCLE, 2 * math.pi)):
            prof = boundary_gaps(c, lines, shape)
            assert prof.total_length() == pytest.approx(P, abs=1e-9)


def test_corner_spanning_component_merged():
    # one diagonal line clipping the upper-right corner: the long component
    # wraps through three corners as a single piece
    diag = Line(Point(0.3, 0.5), Point(0.5, 0.3))
    prof = boundary_gaps(Point(0, 0), [diag], SQUARE)
    lengths = sorted(c.length for c in prof.components)
    assert len(lengths) == 2
    assert lengths[0] == pytest.approx(0.4)
    assert lengths[1] == pytest.approx(3.6)


def test_is_epsilon_placement():
    lines = [Line(Point(-0.25, -1), Point(-0.25, 1)), Line(Point(0.25, -1), Point(0.25, 1))]
    ok, wit = is_epsilon_placement(Point(0, 0), lines, SQUARE, 0.5)
    assert ok and len(wit) == 2
    ok, _ = is_epsilon_placement(Point(0, 0), lines, SQUARE, 0.3)
    assert not ok


def test_is_epsilon_translation_invariant():
    rng = np.random.default_rng(2)
    lines = random_lines(3, 8)
    for _ in range(50):
        c = Point(*rng.uniform(-1, 1, 2))
        d = rng.uniform(-3, 3, 2)
        moved = [
            Line(
                Point(ln.p.x + d[0], ln.p.y + d[1]),
                Point(ln.q.x + d[0], ln.q.y + d[1]),
            )
            for ln in lines
        ]
        a, _ = is_epsilon_placement(c, lines, SQUARE, 0.4)
        b, _ = is_epsilon_placement(Point(c.x + d[0], c.y + d[1]), moved, SQUARE, 0.4)
        assert a == b


def test_oracle_rotation_symmetry():
    # rotating the whole instance by 90 degrees preserves gap lengths
    rng = np.random.default_rng(14)
    lines = random_lines(3, 23)
    rot = [
        Line(Point(-ln.p.y, ln.p.x), Point(-ln.q.y, ln.q.x)) for ln in lines
    ]
    for _ in range(50):
        c = Point(*rng.uniform(-1, 1, 2))
        a = sorted(x.length for x in boundary_gaps(c, lines, SQUARE).components)
        b = sorted(
            x.length
            for x in boundary_gaps(Point(-c.y, c.x), rot, SQUARE).components
        )
        assert np.allclose(a, b, atol=1e-9)


def test_tangency_warning():
    # line through a square corner, touching without crossing
    graze = Line(Point(0.5, 0.5), Point(1.5, -0.5))
    prof = boundary_gaps(Point(0, 0), [graze], SQUARE)
    assert any("tangency" in w for w in prof.warnings)
    tangent = Line(Point(-2, 1.0), Point(2, 1.0))
    prof = boundary_gaps(Point(0, 0), [tangent], CIRCLE)
    assert any("tangency" in w for w in prof.warnings)


def test_dense_scan_empty():
    pts = dense_scan([], SQUARE, 0.25, BBox(-1, -1, 1, 1), 0.025)
    assert pts.shape == (0, 2)


def test_dense_scan_resolution_precondition():
    with pytest.raises(ValueError):
        dense_scan([V_LINE], SQUARE, 0.25, BBox(-1, -1, 1, 1), 0.1)


@pytest.mark.parametrize("shape,eps", [(SQUARE, 0.4), (CIRCLE, 0.5)])
def test_dense_scan_matches_naive(shape, eps):
    lines = random_lines(2, 31)
    box = BBox(-1.2, -1.1, 1.1, 1.3)
    res = eps / 12
    fast = dense_scan(lines, shape, eps, box, res)
    slow = dense_scan_naive(lines, shape, eps, box, res)
    # the two detectors may disagree on conservative structure-change points,
    # but every reported point must sit near a point of the other set
    def close_cover(a, b):
        if a.shape[0] == 0:
            return True
        d = np.min(
            np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1]),
            axis=1,
        ) if b.shape[0] else np.full(a.shape[0], np.inf)
        return float(np.max(d, initial=0.0)) <= 2.5 * res

    assert close_cover(fast, slow)
    assert close_cover(slow, fast)


def test_verify_fault_injection():
    lines = [V_LINE, H_LINE]
    eps = 0.5
    pa = build_placement_arrangement(lines, eps, SQUARE, include_line_translates=True)
    scan = dense_scan(lines, SQUARE, eps, pa.domain, eps / 20)
    assert verify(pa, scan, delta=eps / 10).empty()
    # deleting a curve leaves scan points uncovered
    dropped = pa.curves.pop()
    rep = verify(pa, scan, delta=eps / 10)
    assert len(rep.missed_scan_points) > 0
    pa.curves.append(dropped)


@pytest.mark.parametrize("extra, counts", [
    ([], (137, 202, 71)),
    ([Line(Point(-1, 0.3), Point(1, 0.1))], (316, 494, 186)),
], ids=["three", "three-and-one"])
def test_verify_concurrent_lines(extra, counts):
    # three lines through one point: general position leaves a cell of area
    # about 1e-15 between them, and its curves must still verify
    lines = [Line(Point(-1, -1), Point(1, 1)), Line(Point(-1, 1), Point(1, -1)), V_LINE] + extra
    eps = 0.3
    pa = build_placement_arrangement(lines, eps, SQUARE, include_line_translates=True)
    assert (pa.counts["vertices"], pa.counts["edges"], pa.counts["faces"]) == counts
    scan = dense_scan(lines, SQUARE, eps, pa.domain, eps / 20)
    assert verify(pa, scan, delta=eps / 10).empty()


def test_verify_refinement_monotone():
    lines = random_lines(3, 40)
    eps = 0.5
    pa = build_placement_arrangement(lines, eps, SQUARE, include_line_translates=True)
    coarse = dense_scan(lines, SQUARE, eps, pa.domain, eps / 10)
    fine = dense_scan(lines, SQUARE, eps, pa.domain, eps / 20)
    rep_c = verify(pa, coarse, delta=eps / 5)
    rep_f = verify(pa, fine, delta=eps / 10)
    assert len(rep_f.missed_scan_points) <= max(len(rep_c.missed_scan_points), 0)
    assert rep_f.empty()
