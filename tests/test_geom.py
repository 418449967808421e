import math

import numpy as np
import pytest

from critplace.geom import (
    CIRCLE,
    SQUARE,
    Line,
    NotOnBoundary,
    PerimeterCoord,
    Point,
    _line_in_box,
    _slab_clip,
    perimeter_coordinate,
    perimeter_point,
)


def test_line_canonical_form_unique():
    a = Line(Point(0, 0), Point(2, 2))
    b = Line(Point(5, 5), Point(-3, -3))
    assert a.same_line(b)
    assert math.isclose(a.a ** 2 + a.b ** 2, 1.0, abs_tol=1e-12)
    # leading coefficient positive
    assert a.a > 0 or (abs(a.a) <= 1e-9 and a.b > 0)


def test_perimeter_coordinate_square_examples():
    c = Point(0, 0)
    assert perimeter_coordinate(SQUARE, c, Point(-0.5, -0.5)).s == pytest.approx(0.0)
    assert perimeter_coordinate(SQUARE, c, Point(0.5, -0.5)).s == pytest.approx(1.0)
    assert perimeter_coordinate(SQUARE, c, Point(0.5, 0.0)).s == pytest.approx(1.5)
    with pytest.raises(NotOnBoundary):
        perimeter_coordinate(SQUARE, c, Point(0.2, 0.2))


def test_perimeter_roundtrip_random():
    rng = np.random.default_rng(3)
    for shape in (SQUARE, CIRCLE):
        L = 4.0 if shape == SQUARE else 2 * math.pi
        center = Point(0.3, -1.7)
        for s in rng.uniform(0, L, 1000):
            coord = PerimeterCoord(shape, center, float(s))
            pt = perimeter_point(coord)
            back = perimeter_coordinate(shape, center, pt)
            d = abs(back.s - coord.s)
            assert min(d, L - d) < 1e-9


# Boundary cases on the box [-0.5, 0.5]^2, each as end points (p, q).  The
# expected values were recorded from the clips that `_slab_clip` replaced:
# the strict clip of infinite lines (arrangement walls) and of segments
# (placement curve pieces) give end points, the closed clip of segments
# (junction detection) gives the parameter interval over [0, 1].
CLIP_BOX = (-0.5, -0.5, 0.5, 0.5)
CLIP_CASES = {
    # case: (p, q, strict line, strict segment, closed segment)
    "diagonal line through a corner": ((0.0, 1.0), (1.0, 0.0), None, None, (0.5, 0.5)),
    "line on the top edge": (
        (-1.0, 0.5), (1.0, 0.5),
        ((-0.5, 0.5), (0.5, 0.5)), ((-0.5, 0.5), (0.5, 0.5)), (0.25, 0.75),
    ),
    "line 1e-13 above the top edge": (
        (-1.0, 0.5 + 1e-13), (1.0, 0.5 + 1e-13), None, None, (0.25, 0.75),
    ),
    "segment ending on the box": (
        (1.0, 0.0), (0.5, 0.0), ((-0.5, 0.0), (0.5, 0.0)), None, (1.0, 1.0),
    ),
    "segment touching a corner": (
        (1.0, 1.0), (0.5, 0.5), ((0.5, 0.5), (-0.5, -0.5)), None, (1.0, 1.0),
    ),
}


@pytest.mark.parametrize("case", sorted(CLIP_CASES))
def test_slab_clip_boundary_rules(case):
    p, q, line_strict, seg_strict, seg_closed = CLIP_CASES[case]
    ln = Line(Point(*p), Point(*q))
    assert _line_in_box(ln, *CLIP_BOX) == line_strict
    # every case touches the closed box; where the strict rule hits, both agree
    lx, ly = ln.p.x, ln.p.y
    ldx, ldy = ln.direction()
    strict = _slab_clip(lx, ly, ldx, ldy, -math.inf, math.inf, *CLIP_BOX)
    closed = _slab_clip(lx, ly, ldx, ldy, -math.inf, math.inf, *CLIP_BOX, closed=True)
    assert closed is not None
    assert strict is None or closed == strict

    dx, dy = q[0] - p[0], q[1] - p[1]
    strict = _slab_clip(*p, dx, dy, 0.0, 1.0, *CLIP_BOX)
    if strict is not None:
        t0, t1 = strict
        strict = ((p[0] + t0 * dx, p[1] + t0 * dy), (p[0] + t1 * dx, p[1] + t1 * dy))
    assert strict == seg_strict
    assert _slab_clip(*p, dx, dy, 0.0, 1.0, *CLIP_BOX, closed=True) == seg_closed
