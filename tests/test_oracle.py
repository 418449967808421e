import dataclasses
import math

import numpy as np
import pytest

from critplace.arrangement import BBox
from critplace.generators import random_lines
from critplace.geom import CIRCLE, SQUARE, Line, Point, Segment
from critplace.oracle import (
    _points_far_from_segments,
    boundary_gaps,
    dense_scan,
    is_epsilon_placement,
    verify,
)
from critplace.placement import build_placement_arrangement

from _reference import (
    dense_scan_naive,
    reference_points_far_from_segments,
    reference_verify,
    sample_verdicts,
    total_length,
)


V_LINE = Line(Point(0, -1), Point(0, 1))
H_LINE = Line(Point(-1, 0), Point(1, 0))


def test_gaps_single_vertical_line():
    prof = boundary_gaps(Point(0, 0), [V_LINE], SQUARE)
    assert sorted(round(c.length, 9) for c in prof.components) == [2.0, 2.0]
    assert total_length(prof) == pytest.approx(4.0)


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
            assert total_length(prof) == pytest.approx(P, abs=1e-9)


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


CONCURRENT = [Line(Point(-1, -1), Point(1, 1)), Line(Point(-1, 1), Point(1, -1)), V_LINE]
THREE_SEGMENTS = [
    Segment(Point(0, 0), Point(1, 0.3)),
    Segment(Point(0.2, -0.5), Point(0.6, 0.8)),
    Segment(Point(-0.4, 0.4), Point(0.3, -0.2)),
]


@pytest.mark.parametrize("prims, shape, eps", [
    (random_lines(2, 31), SQUARE, 0.4),
    (random_lines(2, 31), CIRCLE, 0.5),
    (CONCURRENT, SQUARE, 0.3),
    (THREE_SEGMENTS, SQUARE, 0.3),
], ids=["square-0.4", "circle-0.5", "concurrent-lines-0.3", "segments-0.3"])
def test_dense_scan_matches_naive(prims, shape, eps):
    box = BBox(-1.2, -1.1, 1.1, 1.3)
    res = eps / 12
    fast = dense_scan(prims, shape, eps, box, res)
    slow = dense_scan_naive(prims, shape, eps, box, res)
    # the scan reads the definition's crossings and piece lengths, so it finds
    # the points the per-placement scan finds, up to the grid's rounding
    assert fast.shape[0] > 0
    assert np.array_equal(np.unique(fast.round(9), axis=0), np.unique(slow.round(9), axis=0))


@pytest.mark.parametrize("resolution", [0.0, -0.01, math.inf, math.nan])
def test_dense_scan_refuses_a_bad_resolution(resolution):
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        dense_scan([V_LINE], SQUARE, 0.25, BBox(-1, -1, 1, 1), resolution)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan])
def test_verify_refuses_a_bad_delta(delta):
    eps = 0.5
    pa = build_placement_arrangement([V_LINE, H_LINE], eps, SQUARE, include_line_translates=True)
    scan = dense_scan([V_LINE, H_LINE], SQUARE, eps, pa.domain, eps / 20)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        verify(pa, scan, delta)


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
    ([], (137, 214, 79)),
    ([Line(Point(-1, 0.3), Point(1, 0.1))], (316, 518, 204)),
], ids=["three", "three-and-one"])
def test_verify_concurrent_lines(extra, counts):
    # three lines through one point: general position leaves a cell of area
    # about 1e-15 between them, and its curves must still verify
    lines = CONCURRENT + extra
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


@pytest.mark.parametrize("prims, shape, eps", [
    (THREE_SEGMENTS, SQUARE, 0.3),
    (random_lines(2, 3), CIRCLE, 0.7),
    (random_lines(3, 31), CIRCLE, 0.8),
    (random_lines(5, 7), CIRCLE, 0.4),
], ids=["square-segments", "circle-2-3", "circle-3-31", "circle-5-7"])
def test_batched_verdicts_equal_the_scalar_definition(prims, shape, eps):
    pa = build_placement_arrangement(prims, eps, shape, include_line_translates=True)
    batched, scalar, contact = sample_verdicts(pa, eps / 10)
    assert contact.any() and (~contact).any()
    assert np.array_equal(batched, scalar)
    # and where samples fail: a budget off by 0.01 rejects many of them ...
    pa.eps += 0.01
    batched, scalar, _contact = sample_verdicts(pa, eps / 10)
    assert 0 < (~batched).sum() < batched.size
    assert np.array_equal(batched, scalar)
    # ... and a witness of the right length that misses the curve's fixed
    # boundary point rejects them too: each curve gets the next vector's
    pa.eps -= 0.01
    vecs = pa.vectors.vectors
    pa.curves = [
        dataclasses.replace(c, vector=vecs[(vecs.index(c.vector) + 1) % len(vecs)]) for c in pa.curves
    ]
    batched, scalar, _contact = sample_verdicts(pa, eps / 10)
    assert 0 < (~batched).sum() < batched.size
    assert np.array_equal(batched, scalar)


@pytest.mark.parametrize("n, seed, eps, counts", [
    (2, 3, 0.7, (234, 795)),
    (4, 5, 0.6, (526, 3944)),
    (5, 7, 0.4, (1598, 7813)),
])
def test_verify_equals_the_scalar_reference_on_failing_curves(n, seed, eps, counts):
    # every other curve dropped and the budget off by 0.01: both lists fill
    lines = random_lines(n, seed)
    pa = build_placement_arrangement(lines, eps, CIRCLE, include_line_translates=True)
    scan = dense_scan(lines, CIRCLE, eps, pa.domain, eps / 20)
    pa.curves = pa.curves[::2]
    pa.eps += 0.01
    report = verify(pa, scan, delta=eps / 10)
    assert (len(report.missed_scan_points), len(report.unsupported_curve_samples)) == counts
    assert report == reference_verify(pa, scan, delta=eps / 10)


def test_far_points_through_the_bucket_index():
    delta = 0.1
    seg_a = np.array([[0.0, 0.0], [0.05, 0.0], [1.0, 1.0]])
    seg_b = np.array([[0.05, 0.0], [0.1, 0.0], [1.0, 1.05]])
    pts = np.array([
        [0.05, 0.05],    # within delta of the first two
        [0.25, 0.0],     # a neighbouring bucket's segment, but too far
        [0.5, 0.5],      # inside the buckets' span, no segment around it
        [40.0, -30.0],   # outside the span
        [1.02, 1.12],    # within delta of the third, past its end
        [-0.03, -0.03],  # below the lowest bucket, still near
    ])
    far = _points_far_from_segments(pts, seg_a, seg_b, delta)
    assert far.tolist() == [1, 2, 3]
    assert far.tolist() == reference_points_far_from_segments(pts, seg_a, seg_b, delta)
