import math

import numpy as np
import pytest
from _reference import reference_slab_clip

from critplace.arrangement import BBox
from critplace.geom import (
    CIRCLE,
    CLOSED_PAD,
    PARALLEL_DIR,
    SQUARE,
    Line,
    NotOnBoundary,
    PerimeterCoord,
    Point,
    _lines_in_box,
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


def _clip_row(px, py, dx, dy, t0, t1, closed):
    """The one-row `_slab_clip` on CLIP_BOX: (t0, t1), or None on a miss."""
    hit, a, b = _slab_clip(*(np.array([v]) for v in (px, py, dx, dy)), t0, t1, *CLIP_BOX, closed)
    return (float(a[0]), float(b[0])) if hit[0] else None


@pytest.mark.parametrize("case", sorted(CLIP_CASES))
def test_slab_clip_boundary_rules(case):
    p, q, line_strict, seg_strict, seg_closed = CLIP_CASES[case]
    ln = Line(Point(*p), Point(*q))
    hit, ends = _lines_in_box([ln], BBox(*CLIP_BOX))
    x0, y0, x1, y1 = ends[0].tolist()
    assert (((x0, y0), (x1, y1)) if hit[0] else None) == line_strict
    # every case touches the closed box; where the strict rule hits, both agree
    lx, ly = ln.p.x, ln.p.y
    ldx, ldy = ln.direction()
    strict = _clip_row(lx, ly, ldx, ldy, -math.inf, math.inf, False)
    closed = _clip_row(lx, ly, ldx, ldy, -math.inf, math.inf, True)
    assert closed is not None
    assert strict is None or closed == strict

    dx, dy = q[0] - p[0], q[1] - p[1]
    strict = _clip_row(*p, dx, dy, 0.0, 1.0, False)
    if strict is not None:
        t0, t1 = strict
        strict = ((p[0] + t0 * dx, p[1] + t0 * dy), (p[0] + t1 * dx, p[1] + t1 * dy))
    assert strict == seg_strict
    assert _clip_row(*p, dx, dy, 0.0, 1.0, True) == seg_closed


def _clip_rows():
    """Rows (px, py, dx, dy) against the box [-0.5, 0.5]^2: random ones,
    axis-parallel ones on and just outside each side, and ones that end on a
    side or touch a corner."""
    rng = np.random.default_rng(25)
    rows = [np.column_stack([rng.uniform(-1.5, 1.5, (2000, 2)), rng.uniform(-2.0, 2.0, (2000, 2))])]
    # axis-parallel, 0, CLOSED_PAD / 2 and 2 CLOSED_PAD outside a side, with
    # a direction component of either sign of zero or just at PARALLEL_DIR
    for off in (0.0, 0.5 * CLOSED_PAD, 2.0 * CLOSED_PAD):
        for side in (-0.5, 0.5):
            c = side + math.copysign(off, side)
            for along in (1.0, -1.0, 0.3):
                for small in (0.0, -0.0, PARALLEL_DIR, -2.0 * PARALLEL_DIR):
                    for start in (-1.0, 0.2):
                        rows.append([(start, c, along, small), (c, start, small, along)])
    # segments that end on a side or at a corner, lines through a corner
    for x, y in ((0.5, 0.0), (-0.5, 0.3), (0.1, 0.5), (0.0, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)):
        for dx, dy in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-0.7, 0.4), (0.25, -1.5)):
            rows.append([(x - dx, y - dy, dx, dy), (x, y, dx, dy), (x - 0.5 * dx, y - 0.5 * dy, dx, dy)])
    return np.vstack(rows)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("span", [(0.0, 1.0), (-math.inf, math.inf)])
@pytest.mark.parametrize("per_row", [False, True])
def test_slab_clip_matches_the_scalar_clip(closed, span, per_row):
    """`_slab_clip` gives the scalar clip's verdicts and parameters bit for
    bit, signed zeros included, with shared or per-row bounds (the junction
    kernel clips each edge to its own grid point's square)."""
    px, py, dx, dy = _clip_rows().T
    n = len(px)
    box = [np.full(n, v) for v in CLIP_BOX]
    if per_row:  # squares around grid points 0.25 apart, some of them far off
        rng = np.random.default_rng(26)
        cx, cy = 0.25 * rng.integers(-6, 7, n), 0.25 * rng.integers(-6, 7, n)
        box = [cx - 0.5, cy - 0.5, cx + 0.5, cy + 0.5]
    hit, t0, t1 = _slab_clip(px, py, dx, dy, *span, *(b if per_row else v for b, v in zip(box, CLIP_BOX)), closed)
    rows = zip(px.tolist(), py.tolist(), dx.tolist(), dy.tolist(), *(b.tolist() for b in box))
    want = [reference_slab_clip(x, y, u, v, *span, *b, closed) for x, y, u, v, *b in rows]
    assert hit.tolist() == [w is not None for w in want]
    got = [(a.hex(), b.hex()) for a, b in zip(t0[hit].tolist(), t1[hit].tolist())]
    assert got == [(a.hex(), b.hex()) for a, b in (w for w in want if w is not None)]
