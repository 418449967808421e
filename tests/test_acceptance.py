"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The scaling criterion prints the counts it measures on the worst-case grid
and their log-log slopes: the whole overlay complexity against n and 1/eps,
and the side-window crossings that witness the quadratic growth in 1/eps.
"""

import math
import time

import numpy as np
import pytest

from critplace.arrangement import (
    BBox,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    locate,
)
from critplace.generators import cross_trajectories, lower_bound_lines, random_lines
from critplace.geom import CIRCLE, SQUARE, Line, Point, Segment
from critplace.junctions import assess, grid_scan, top_k
from critplace.oracle import boundary_gaps, dense_scan, is_epsilon_placement, verify
from critplace.placement import build_placement_arrangement, pair_intersections
from critplace.sceneio import (
    Scene,
    emit_result,
    emit_scene,
    parse_scene,
    result_from_junctions,
    result_from_placement,
)

from _reference import Unbounded, f_value, in_cell_or_near

# 20 random instances: n in {2..5} crossed with eps in {0.2, 0.5}
ACC_INSTANCES = [
    (n, 100 * n + rep, eps)
    for n in (2, 3, 4, 5)
    for rep, eps in ((1, 0.2), (2, 0.2), (3, 0.5), (4, 0.5))
] + [(3, 351, 0.2), (4, 452, 0.5), (5, 551, 0.2), (5, 552, 0.5)]
ACC_INSTANCES = ACC_INSTANCES[:20]


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def random_suite():
    out = []
    for n, seed, eps in ACC_INSTANCES:
        lines = random_lines(n, seed)
        pa = build_placement_arrangement(lines, eps, SQUARE, include_line_translates=True)
        out.append((lines, eps, pa))
    return out


@pytest.fixture(scope="module")
def lb_suite():
    out = {}
    for n, eps in ((8, 0.25), (16, 0.25), (32, 0.25), (16, 0.5), (16, 0.125)):
        t0 = time.perf_counter()
        lines = lower_bound_lines(n, eps)
        pa = build_placement_arrangement(lines, eps, SQUARE)
        out[(n, eps)] = (pa, time.perf_counter() - t0)
    return out


def test_criterion_1_oracle_equivalence(random_suite):
    t0 = time.perf_counter()
    missed = 0
    unsupported = 0
    for lines, eps, pa in random_suite:
        scan = dense_scan(lines, SQUARE, eps, pa.domain, eps / 20)
        report = verify(pa, scan, delta=eps / 10)
        missed += len(report.missed_scan_points)
        unsupported += len(report.unsupported_curve_samples)
    elapsed = time.perf_counter() - t0
    ok = missed == 0 and unsupported == 0 and elapsed < 120.0
    assert _verdict(
        1,
        ok,
        f"{len(random_suite)} instances, missed={missed}, "
        f"unsupported={unsupported}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_level_set_soundness(random_suite):
    target = 10_000
    checked = 0
    failures = 0
    for _lines, eps, pa in random_suite:
        for curve in pa.curves:
            for piece in curve.pieces:
                length = piece.length()
                inset = min(0.02, 1e-5 / max(length, 1e-9))
                n = max(3, int(length / 0.02) + 2)
                for x, y in piece.sample(n, inset=inset):
                    ok, wits = is_epsilon_placement(
                        Point(x, y), pa.arrangement.primitives, SQUARE, eps
                    )
                    good = ok and any(
                        in_cell_or_near(pa.arrangement, w.mid_point, curve.cell_id, 1e-6)
                        for w in wits
                    )
                    checked += 1
                    if not good:
                        failures += 1
        if checked >= target:
            break
    ok = checked >= target and failures == 0
    assert _verdict(2, ok, f"{checked} curve samples, {failures} failures (tolerance 0)")


def test_criterion_3_level_set_properties(random_suite):
    rng = np.random.default_rng(2024)
    concave_bad = 0
    pair_count = 0
    for lines, eps, pa in random_suite[:5]:
        arr = pa.arrangement
        per_instance = 0
        while per_instance < 1000:
            a = Point(*rng.uniform(-1.2, 1.2, 2))
            b = Point(*rng.uniform(-1.2, 1.2, 2))
            try:
                if locate(a, arr) != locate(b, arr):
                    continue
            except Exception:
                continue
            mid = Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
            try:
                fm = f_value(mid, lines, "upper_right")
                fa = f_value(a, lines, "upper_right")
                fb = f_value(b, lines, "upper_right")
            except Unbounded:
                continue
            if fm < 0.5 * (fa + fb) - 1e-9:
                concave_bad += 1
            per_instance += 1
            pair_count += 1

    convex_bad = 0
    align_bad = 0
    chains = 0
    for _lines, eps, pa in random_suite:
        arr = pa.arrangement
        vx = {round(float(v[0]), 9) for v in arr.verts}
        vy = {round(float(v[1]), 9) for v in arr.verts}
        d = pa.domain
        for curve in pa.curves:
            if curve.vector is None or curve.vector.kind != "corner":
                continue
            chains += 1
            pts = curve.chain_points()
            if not _discrete_convex(pts):
                convex_bad += 1
            for x, y in pts[1:-1]:
                # points on the measurement window edge are clip cuts, not
                # level-set vertices
                if (
                    min(abs(x - d.xmin), abs(x - d.xmax)) < 1e-7
                    or min(abs(y - d.ymin), abs(y - d.ymax)) < 1e-7
                ):
                    continue
                bx = round(x + curve.vector.dx, 9)
                by = round(y + curve.vector.dy, 9)
                if not (_near(bx, vx) or _near(by, vy)):
                    align_bad += 1
    ok = concave_bad == 0 and convex_bad == 0 and align_bad == 0
    assert _verdict(
        3,
        ok,
        f"{pair_count} midpoint pairs ({concave_bad} concavity violations), "
        f"{chains} corner chains ({convex_bad} non-convex, {align_bad} unaligned kinks)",
    )


def _near(value: float, coords: set, tol: float = 1e-9) -> bool:
    return any(abs(value - c) <= tol for c in coords)


def _discrete_convex(pts, tol: float = 1e-9) -> bool:
    sign = 0
    for i in range(len(pts) - 2):
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        cx, cy = pts[i + 2]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if abs(cross) <= tol:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _side_crossings(pa) -> int:
    """Distinct crossings of horizontal-side curves with vertical-side curves.

    Every other term of the overlay count grows at most like n^2/eps: there
    are 4 corner vectors at every eps and 4(ceil(1/eps)-1) side vectors,
    family pairs cross O(n^2) times, and side curves of the same axis do not
    cross each other. Only the crossings of a top/bottom side window with a
    left/right side window pair up Theta(1/eps) vectors on each axis, so
    they carry the n^2/eps^2 term.
    """
    edge = [c for c in pa.curves if c.vector.kind == "edge"]
    horizontal = [c for c in edge if c.vector.label in ("top", "bottom")]
    vertical = [c for c in edge if c.vector.label in ("left", "right")]
    points = pair_intersections(horizontal, vertical)
    return len(points)


def test_criterion_4_complexity_scaling(lb_suite):
    # n-direction: the whole count is Theta(n^2) at fixed eps.
    ks_n = [lb_suite[(n, 0.25)][0].complexity for n in (8, 16, 32)]
    exp_n = _loglog_slope([8, 16, 32], ks_n)
    # eps-direction: the whole count is O(n^2/eps^2) (slope at most 2.3),
    # and the side-window crossings show the bound is reached (slope at
    # least 1.7). The whole count's own slope stays lower at these sizes
    # because its n^2/eps terms (corner and side pieces) dominate it at
    # coarse eps.
    pas_e = [lb_suite[(16, e)][0] for e in (0.5, 0.25, 0.125)]
    ks_e = [pa.complexity for pa in pas_e]
    ws_e = [_side_crossings(pa) for pa in pas_e]
    if not all(w > 0 for w in ws_e):
        assert _verdict(
            4,
            False,
            f"side-window crossings(1/eps)={ws_e}: every build needs crossings "
            "of top/bottom with left/right side curves",
        )
    exp_e = _loglog_slope([2, 4, 8], ks_e)
    exp_w = _loglog_slope([2, 4, 8], ws_e)
    slowest = max(dt for _pa, dt in lb_suite.values())
    ok_n = 1.7 <= exp_n <= 2.3
    ok_e = exp_e <= 2.3
    ok_w = exp_w >= 1.7
    ok_time = slowest < 300.0
    detail = (
        f"k(n)={ks_n} exponent {exp_n:.2f} "
        f"{'in' if ok_n else 'OUTSIDE'} [1.7, 2.3]; "
        f"k(1/eps)={ks_e} exponent {exp_e:.2f} {'<=' if ok_e else '>'} 2.3; "
        f"side-window crossings(1/eps)={ws_e} exponent {exp_w:.2f} "
        f"{'>=' if ok_w else '<'} 1.7; slowest build {slowest:.1f}s"
    )
    assert _verdict(4, ok_n and ok_e and ok_w and ok_time, detail)


def test_criterion_5_pair_intersection_bound(lb_suite):
    ratios = {}
    for n in (8, 32):
        pa, _dt = lb_suite[(n, 0.25)]
        families: dict[float, list] = {}
        for curve in pa.curves:
            families.setdefault(curve.vector.s, []).append(curve)
        keys = sorted(families)
        best = 0
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                pts = pair_intersections(families[keys[i]], families[keys[j]])
                best = max(best, len(pts))
        ratios[n] = best / (n * n)
    ok = ratios[8] > 0 and ratios[32] <= 1.5 * ratios[8]
    assert _verdict(
        5,
        ok,
        f"max |S(tau) cap S(sigma)|/n^2: n=8 -> {ratios[8]:.3f}, "
        f"n=32 -> {ratios[32]:.3f} (<= 1.5x)",
    )


def test_criterion_6_circle_ellipse():
    eps = 0.5
    a = 1.0
    lines = [
        Line(Point(-2, -2 * a), Point(2, 2 * a)),
        Line(Point(-2, 2 * a), Point(2, -2 * a)),
    ]
    pa = build_placement_arrangement(lines, eps, CIRCLE)
    A = abs(math.sin(eps / 2) - a * math.cos(eps / 2)) / a
    B = a * math.sin(eps / 2) + math.cos(eps / 2)
    eq_checked = 0
    eq_bad = 0
    chord_bad = 0
    for curve in pa.curves:
        for piece in curve.pieces:
            if piece.kind != "arc":
                continue
            apex_branch = abs(math.hypot(*piece.vec_a) - A) < 1e-9
            for x, y in piece.sample(30, inset=0.01):
                if apex_branch:
                    r = min(
                        abs(x * x / (A * A) + y * y / (B * B) - 1.0),
                        abs(x * x / (B * B) + y * y / (A * A) - 1.0),
                    )
                    eq_checked += 1
                    if r > 1e-9:
                        eq_bad += 1
                prof = boundary_gaps(Point(x, y), lines, CIRCLE)
                wits = [w for w in prof.components if abs(w.length - eps) < 1e-6]
                if not wits:
                    chord_bad += 1
                    continue
                for w in wits:
                    u = (x + math.cos(w.start), y + math.sin(w.start))
                    v = (
                        x + math.cos(w.start + w.length),
                        y + math.sin(w.start + w.length),
                    )
                    chord2 = (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
                    if abs(chord2 - (2 - 2 * math.cos(eps))) > 1e-6:
                        chord_bad += 1

    # degenerate wedge: half-angle tan equals tan(eps/2)
    a2 = math.tan(eps / 2)
    lines2 = [
        Line(Point(-2, -2 * a2), Point(2, 2 * a2)),
        Line(Point(-2, 2 * a2), Point(2, -2 * a2)),
    ]
    pa2 = build_placement_arrangement(lines2, eps, CIRCLE)
    min_axis = min(
        (
            math.hypot(*p.vec_a)
            for c in pa2.curves
            for p in c.pieces
            if p.kind == "arc"
        ),
        default=math.inf,
    )
    ok = eq_checked >= 100 and eq_bad == 0 and chord_bad == 0 and min_axis < 1e-9
    assert _verdict(
        6,
        ok,
        f"{eq_checked} arc samples on the ellipse (<= 1e-9), chord-law "
        f"failures {chord_bad} (<= 1e-6), degenerate x semi-axis {min_axis:.1e}",
    )


def test_criterion_7_circle_concavity():
    # chords in the configuration of the derivation: the tracked piece sits
    # beyond its bounding lines from the center (second differences of the
    # piece length must never exceed +1e-6)
    rng = np.random.default_rng(4321)
    violations = 0
    tested = 0
    seeds = (35, 36, 37, 38, 39, 40)
    si = 0
    lines = random_lines(3, seeds[si])
    arr = build_line_arrangement(lines)
    while tested < 1000:
        theta = float(rng.uniform(0, 2 * math.pi))
        ux, uy = math.cos(theta), math.sin(theta)
        q0 = Point(*rng.uniform(-1.2, 1.2, 2))
        try:
            cell = locate(q0, arr)
        except Exception:
            continue
        step = 0.004
        vals = []
        bounds0 = None
        far = True
        okrun = True
        for k in range(-3, 4):
            q = Point(q0.x + k * step * ux, q0.y + k * step * uy)
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
            if comp.bound_ids != bounds0 or not in_cell_or_near(arr, comp.mid_point, cell, 1e-9):
                okrun = False
                break
            for lid in set(comp.bound_ids):
                if lines[lid].side_of(p) * lines[lid].side_of(comp.mid_point) > 0:
                    far = False
            vals.append(comp.length)
        if not okrun or not far or len(vals) != 7:
            continue
        if float(np.diff(vals, 2).max()) > 1e-6:
            violations += 1
        tested += 1
        if tested % 400 == 0 and si + 1 < len(seeds):
            si += 1
            lines = random_lines(3, seeds[si])
            arr = build_line_arrangement(lines)
    ok = violations == 0
    assert _verdict(7, ok, f"{tested} chords, {violations} convexity violations")


def test_criterion_8_segment_decomposition():
    rng = np.random.default_rng(88)
    bad_convex = 0
    bad_count = 0
    cells_checked = 0
    for scene_i in range(20):
        n = int(rng.integers(3, 31))
        segs = []
        while len(segs) < n:
            p = Point(*rng.uniform(-2.5, 2.5, 2))
            q = Point(*rng.uniform(-2.5, 2.5, 2))
            if p.dist(q) > 0.3:
                segs.append(Segment(p, q))
        arr = build_segment_arrangement(segs)
        ends = [(s.p.x, s.p.y) for s in segs] + [(s.q.x, s.q.y) for s in segs]
        for cell in arr.cells:
            subs = convex_decompose(cell, arr)
            cells_checked += 1
            for sub in subs:
                if not _poly_convex(sub.polygon):
                    bad_convex += 1
            walk_pts = []
            for walk in [cell.outer] + [w for w, _t in cell.holes]:
                for v in walk:
                    x, y = arr.verts[v]
                    walk_pts.append((float(x), float(y)))
            k = sum(
                1
                for ex, ey in ends
                if any(abs(ex - x) < 1e-7 and abs(ey - y) < 1e-7 for x, y in walk_pts)
            )
            if len(subs) > max(1, 4 * k * k):
                bad_count += 1

    # oracle equivalence on small segment scenes
    missed = 0
    unsupported = 0
    for seed in (1, 2, 3):
        rng2 = np.random.default_rng(seed)
        segs = []
        while len(segs) < 4:
            p = Point(*rng2.uniform(-1.2, 1.2, 2))
            q = Point(*rng2.uniform(-1.2, 1.2, 2))
            if p.dist(q) > 0.6:
                segs.append(Segment(p, q))
        eps = 0.5
        pa = build_placement_arrangement(segs, eps, SQUARE, include_line_translates=True)
        scan = dense_scan(segs, SQUARE, eps, pa.domain, eps / 20)
        report = verify(pa, scan, delta=eps / 10)
        missed += len(report.missed_scan_points)
        unsupported += len(report.unsupported_curve_samples)
    ok = bad_convex == 0 and bad_count == 0 and missed == 0 and unsupported == 0
    assert _verdict(
        8,
        ok,
        f"{cells_checked} cells decomposed ({bad_convex} nonconvex subcells, "
        f"{bad_count} over 4k^2), oracle missed={missed} unsupported={unsupported}",
    )


def _poly_convex(poly, tol=1e-8) -> bool:
    m = len(poly)
    for i in range(m):
        a, b, c = poly[i], poly[(i + 1) % m], poly[(i + 2) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross < -tol:
            return False
    return True


def test_criterion_9_junction_pipeline():
    cross4 = assess(Point(0, 0), cross_trajectories(4, 1, 0.0, 0), 0.3)
    y3 = assess(Point(0, 0), cross_trajectories(3, 1, 0.0, 0), 0.3)
    single = assess(Point(0, 0), cross_trajectories(2, 1, 0.0, 0), 0.3)
    basic_ok = (
        cross4.junction_like
        and len(cross4.clusters) == 4
        and cross4.kind == "crossing"
        and y3.kind == "realJunction"
        and not single.junction_like
    )

    centers = [Point(6.0 * i, 6.0 * j) for j in range(2) for i in range(4)]
    specs = [(4, 1), (3, 1), (4, 2), (3, 2), (5, 2), (4, 3), (5, 3), (6, 3)]
    trajs = []
    for center, (arms, per) in zip(centers, specs):
        trajs.extend(
            cross_trajectories(arms, per, 0.05, arms * 10 + per, center=center)
        )
    spacing = 0.25
    grid = grid_scan(trajs, 0.3, BBox(-1.5, -1.5, 19.5, 7.5), spacing)
    res = top_k(grid, 8)
    reps_ok = len(res) == 8 and res.complete
    within = 0
    if reps_ok:
        for pt, _a in res.items:
            d = min(max(abs(pt.x - c.x), abs(pt.y - c.y)) for c in centers)
            if d <= spacing + 1e-9:
                within += 1
        reps_ok = within == 8
    ok = basic_ok and reps_ok
    assert _verdict(
        9,
        ok,
        f"crossing/realJunction/none classification {'ok' if basic_ok else 'BROKEN'}; "
        f"8-junction scene: {len(res)} representatives, {within} within one spacing",
    )


def test_criterion_10_determinism():
    lines = lower_bound_lines(8, 0.25)
    scene_text = emit_scene(Scene(lines=lines))

    def run_critical() -> str:
        scene = parse_scene(scene_text)
        pa = build_placement_arrangement(
            scene.primitives(), 0.25, SQUARE, include_line_translates=True
        )
        return emit_result(result_from_placement(pa))

    def run_junctions() -> str:
        trajs = cross_trajectories(4, 2, 0.05, 9)
        scene = parse_scene(emit_scene(Scene(trajectories=trajs)))
        grid = grid_scan(scene.trajectories, 0.3, BBox(-1, -1, 1, 1), 0.2)
        return emit_result(result_from_junctions(grid, top_k(grid, 2), 0.3))

    crit_same = run_critical() == run_critical()
    junc_same = run_junctions() == run_junctions()
    ok = crit_same and junc_same
    assert _verdict(
        10,
        ok,
        f"critical results byte-identical: {crit_same}; "
        f"junction results byte-identical: {junc_same}",
    )
