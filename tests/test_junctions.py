import math
from pathlib import Path

import numpy as np
import pytest

from critplace.arrangement import BBox
from critplace.generators import cross_trajectories
from critplace.geom import CLOSED_PAD, SQUARE, PerimeterCoord, Point, Polyline
import critplace.junctions
from critplace.junctions import (
    assess,
    epsilon_cluster,
    grid_scan,
    SignificanceGrid,
    salient_subtrajectories,
    top_k,
)
from critplace.sceneio import parse_scene

from _reference import reference_assess, reference_top_k_reps

SCENES = Path(__file__).resolve().parent.parent / "demos" / "scenes"


def _coords(svals):
    c = Point(0, 0)
    return [PerimeterCoord(SQUARE, c, s) for s in svals]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_cluster_examples():
    cs = epsilon_cluster(_coords([0.0, 0.1, 0.3, 1.0]), 0.15)
    assert len(cs) == 3
    sizes = sorted(c.size for c in cs.clusters)
    assert sizes == [1, 1, 2]

    cs = epsilon_cluster(_coords([0.0, 0.1, 0.3, 1.0]), 0.25)
    assert len(cs) == 2
    assert sorted(c.size for c in cs.clusters) == [1, 3]

    cs = epsilon_cluster(_coords([0.05, 3.95]), 0.15)
    assert len(cs) == 1  # wraparound

    # closeness is closed: gaps of exactly eps join, across the wrap too
    assert len(epsilon_cluster(_coords([0.25, 0.75]), 0.5)) == 1
    assert len(epsilon_cluster(_coords([0.25, 3.75]), 0.5)) == 1


def test_cluster_gap_invariants():
    rng = np.random.default_rng(12)
    for _ in range(100):
        svals = sorted(rng.uniform(0, 4.0, rng.integers(2, 15)))
        eps = float(rng.uniform(0.05, 1.0))
        cs = epsilon_cluster(_coords(list(svals)), eps)
        for cluster in cs.clusters:
            members = sorted(cluster.members)
            if len(members) > 1:
                gaps = np.diff(members)
                wrap = members[0] + 4.0 - members[-1]
                # all consecutive gaps small except possibly the cyclic break
                big = [g for g in list(gaps) if g > eps]
                assert len(big) == 0 or (len(big) <= 1 and wrap <= eps)
        # transitive closure: any two points of different clusters are more
        # than eps apart along the boundary
        for i, ca in enumerate(cs.clusters):
            for cb in cs.clusters[i + 1 :]:
                for a in ca.members:
                    for b in cb.members:
                        d = abs(a - b)
                        assert min(d, 4.0 - d) > eps - 1e-12


# ---------------------------------------------------------------------------
# salient subtrajectories
# ---------------------------------------------------------------------------

def test_salient_straight_through():
    traj = Polyline("t", (Point(-2, 0.01), Point(2, 0.02)))
    subs = salient_subtrajectories([traj], Point(0, 0))
    assert len(subs) == 1
    (sub,) = subs
    sides = sorted((int(sub.entry.s), int(sub.exit.s)))
    assert sides == [1, 3]  # left and right sides


def test_salient_corner_passer_excluded():
    # clips the corner but never reaches the inner square
    traj = Polyline("t", (Point(0.1, 2.0), Point(2.0, 0.1)))
    assert salient_subtrajectories([traj], Point(0, 0)) == []


def test_salient_u_shape_two_pieces():
    traj = Polyline(
        "u",
        (
            Point(-2.0, 0.2),
            Point(-0.05, 0.2),
            Point(-0.05, 0.9),
            Point(0.05, 0.9),
            Point(0.05, 0.2),
            Point(2.0, 0.2),
        ),
    )
    subs = salient_subtrajectories([traj], Point(0, 0))
    assert len(subs) == 2


def test_salient_requires_boundary_endpoints():
    # a trajectory that ends inside the square has no salient piece there
    traj = Polyline("t", (Point(-2, 0), Point(0, 0)))
    assert salient_subtrajectories([traj], Point(0, 0)) == []


# ---------------------------------------------------------------------------
# assessment
# ---------------------------------------------------------------------------

def test_assess_crossing():
    trajs = cross_trajectories(4, 1, 0.0, 0)
    a = assess(Point(0, 0), trajs, 0.3)
    assert len(a.clusters) == 4
    assert a.junction_like
    assert a.kind == "crossing"
    assert a.significance > 0


def test_assess_y_junction():
    trajs = cross_trajectories(3, 1, 0.0, 0)
    a = assess(Point(0, 0), trajs, 0.3)
    assert len(a.clusters) == 3
    assert a.kind == "realJunction"
    # a real junction outranks a crossing with the same arm structure
    c = assess(Point(0, 0), cross_trajectories(4, 1, 0.0, 0), 0.3)
    assert a.significance > c.significance / 2


def test_assess_single_trajectory():
    trajs = cross_trajectories(2, 1, 0.0, 0)
    a = assess(Point(0, 0), trajs, 0.3)
    assert len(a.clusters) == 2
    assert not a.junction_like
    assert a.kind == "none"
    assert a.significance == 0.0


def test_assess_invariant_under_reordering():
    trajs = cross_trajectories(5, 2, 0.05, 3)
    a = assess(Point(0, 0), trajs, 0.3)
    b = assess(Point(0, 0), list(reversed(trajs)), 0.3)
    assert len(a.clusters) == len(b.clusters)
    assert a.kind == b.kind
    assert a.significance == b.significance


def test_assess_and_cluster_refuse_a_bad_eps():
    # two parallel trajectories 0.05 apart through (0, 0): one cluster on
    # each side at eps 0.3, but four, read as a crossing, at eps <= 0
    trajs = [
        Polyline("a", (Point(-2, 0), Point(2, 0))),
        Polyline("b", (Point(-2, 0.05), Point(2, 0.05))),
    ]
    a = assess(Point(0, 0), trajs, 0.3)
    assert (a.junction_like, a.kind, len(a.clusters)) == (False, "none", 2)
    coords = [c for sub in a.subtrajectories for c in (sub.entry, sub.exit)]
    for eps in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="eps"):
            assess(Point(0, 0), trajs, eps)
        with pytest.raises(ValueError, match="eps"):
            epsilon_cluster(coords, eps)
        with pytest.raises(ValueError, match="eps"):
            epsilon_cluster([], eps)


def test_cluster_count_matches_arms_with_jitter():
    for seed in range(5):
        trajs = cross_trajectories(4, 3, 0.1, seed)
        a = assess(Point(0, 0), trajs, 0.3)
        assert len(a.clusters) == 4


# ---------------------------------------------------------------------------
# grid scan and reporting
# ---------------------------------------------------------------------------

def test_grid_scan_empty():
    grid = grid_scan([], 0.3, BBox(-1, -1, 1, 1), 0.5)
    assert (grid.kind == "none").all() and (grid.significance == 0.0).all()
    assert not grid.junction_like.any() and (grid.n_clusters == 0).all()


def test_grid_scan_blob_and_decay():
    trajs = cross_trajectories(4, 2, 0.05, 1)
    grid = grid_scan(trajs, 0.3, BBox(-1.0, -1.0, 1.0, 1.0), 0.1)
    assert grid.junction_like.any()
    center = grid.at(grid.ny // 2, grid.nx // 2)
    assert center.junction_like
    # significance does not increase outward along the +x axis beyond the blob
    row = grid.ny // 2
    sig = [grid.at(row, c).significance for c in range(grid.nx // 2, grid.nx)]
    peak = max(sig)
    dropped = False
    for v in sig:
        if v < peak:
            dropped = True
        if dropped:
            assert v <= peak
    assert sig[-1] <= sig[0]


def test_grid_scan_refuses_a_grid_above_the_cap(monkeypatch):
    def no_kernel(*_args, **_kwargs):
        raise AssertionError("a refused grid runs no kernel")

    monkeypatch.setattr(critplace.junctions, "MAX_GRID_POINTS", 12)
    box = BBox(0.0, 0.0, 0.75, 1.0)  # 4 x 5 points at spacing 0.25
    grid = grid_scan([], 0.3, BBox(0.0, 0.0, 0.5, 0.75), 0.25)  # 3 x 4: at the cap
    assert grid.nx * grid.ny == 12
    monkeypatch.setattr(critplace.junctions, "_salient", no_kernel)
    monkeypatch.setattr(critplace.junctions, "_classify", no_kernel)
    for spacing in (0.25, 1e-5, 1e-320):
        with pytest.raises(ValueError, match="spacing"):
            grid_scan([], 0.3, box, spacing)


def test_grid_scan_translation_equivariance():
    trajs = cross_trajectories(4, 1, 0.0, 0)
    d = (7.25, -3.5)
    moved = [
        Polyline(t.id, tuple(Point(v.x + d[0], v.y + d[1]) for v in t.vertices))
        for t in trajs
    ]
    g1 = grid_scan(trajs, 0.3, BBox(-0.6, -0.6, 0.6, 0.6), 0.2)
    g2 = grid_scan(
        moved, 0.3, BBox(-0.6 + d[0], -0.6 + d[1], 0.6 + d[0], 0.6 + d[1]), 0.2
    )
    assert g1.significance.tolist() == g2.significance.tolist()
    assert g1.kind.tolist() == g2.kind.tolist()


def _lattice(seed: int) -> list[Polyline]:
    """Eight seeded bundles of 3 to 6 arms on a 4 x 2 lattice of pitch 6."""
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(8):
        row, col = divmod(i, 4)
        trajs += cross_trajectories(
            3 + i % 4, 1 + i % 3, 0.05, int(rng.integers(2**31)), Point(6.0 * col, 6.0 * row)
        )
    return trajs


def test_grid_scan_matches_assess_on_every_trajectory(monkeypatch):
    # grid points sit on multiples of 0.25 over [-1, 1]^2
    eps, bbox, spacing = 0.3, BBox(-1.0, -1.0, 1.0, 1.0), 0.25
    trajs = cross_trajectories(4, 2, 0.05, 1) + [
        # touches the inner square of (0, 0) at a vertex: salient there only
        # because that square is closed
        Polyline("touch", (Point(-1, 0.6), Point(0, 0.25), Point(1, 0.6))),
        # on the right edge of the squares of column x = 0.25
        Polyline("edge", (Point(0.75, -2), Point(0.75, 2))),
        # its box covers the grid, but it misses the square of (-1, -1)
        Polyline("zigzag", tuple(Point(x, y) for x, y in (
            (-2.0, -1.7), (-0.9, 1.9), (0.2, -1.8), (1.3, 1.6), (2.2, -0.4),
            (2.4, 1.9), (-1.8, 2.3),
        ))),
        Polyline("away", (Point(4, 4), Point(6, 5), Point(5, 7))),
    ]
    pairs = []
    candidates = critplace.junctions._candidates

    def recording_candidates(edges, xs, ys):
        found = candidates(edges, xs, ys)
        pairs.append((len(found[0]), len(edges.x) * len(xs) * len(ys)))
        return found

    monkeypatch.setattr(critplace.junctions, "_candidates", recording_candidates)
    grid = grid_scan(trajs, eps, bbox, spacing)
    monkeypatch.undo()
    assert sum(p for p, _ in pairs) < sum(every for _, every in pairs)
    touched = grid.at(4, 4)
    assert touched.point == Point(0.0, 0.0)
    assert "touch" in {s.source_id for s in touched.subtrajectories}
    assert "zigzag" not in {s.source_id for s in grid.at(0, 0).subtrajectories}

    walks = parse_scene((SCENES / "crossing_walks.txt").read_text()).trajectories
    pad = CLOSED_PAD
    # each case about the square of (0, 0)
    edge_cases = [
        # along its top side, then down through its center
        Polyline("on-side", (Point(-2, 0.5), Point(0, 0.5), Point(0, -2))),
        # along a line CLOSED_PAD outside its right side, then left through
        # its center, and the same from the left side
        Polyline("pad-right", (Point(0.5 + pad, -2), Point(0.5 + pad, 0), Point(-2, 0))),
        Polyline("pad-left", (Point(-0.5 - pad, 2), Point(-0.5 - pad, 0), Point(2, 0))),
        # a vertex on its right side, the neighbours inside
        Polyline("graze", (Point(-2, 0), Point(0, 0), Point(0.5, 0.2), Point(0, 0.4), Point(-2, 0.4))),
        # starts on its right side
        Polyline("from-side", (Point(0.5, -0.1), Point(-2, -0.1))),
        # out past its right side by less than the first clip's EDGE_END and
        # back in by more than the second's: two pieces
        Polyline("out-and-back", (
            Point(-2, 0.1), Point(0.5 + 9e-13, 0.1), Point(0.45, 0.15), Point(-2, 0.2),
        )),
        # out and back in by less than EDGE_END on both clips: one piece
        Polyline("just-out", (Point(-2, -0.2), Point(0.5 + 1e-13, -0.2), Point(-2, -0.3))),
    ]
    scenes = [
        (trajs, bbox), (walks, BBox(-2.5, -2.5, 2.5, 2.5)), (edge_cases, bbox),
        (_lattice(3), BBox(-1.5, -1.5, 19.5, 7.5)), (_lattice(11), BBox(-1.5, -1.5, 19.5, 7.5)),
    ]
    for scene, box in scenes:
        grid = grid_scan(scene, eps, box, spacing)
        for row in range(grid.ny):
            for col in range(grid.nx):
                ref = reference_assess(grid.point(row, col), scene, eps)
                assert grid.kind[row, col] == ref.kind
                assert grid.significance[row, col] == ref.significance
                assert grid.n_clusters[row, col] == len(ref.clusters)
                assert grid.junction_like[row, col] == ref.junction_like
                cell = grid.at(row, col)
                assert cell.subtrajectories == ref.subtrajectories
                assert cell.clusters == ref.clusters
                assert (cell.kind, cell.significance) == (ref.kind, ref.significance)


def test_cluster_count_changes_only_at_critical_moments():
    # along a dense placement path the cluster count may only change where
    # consecutive endpoint coordinates sit exactly eps apart or where the
    # salient subtrajectory set changes
    eps = 0.3
    trajs = cross_trajectories(4, 2, 0.12, 7)
    step = eps / 20
    prev = None
    for k in range(120):
        p = Point(-1.5 + k * step, 0.04)
        subs = salient_subtrajectories(trajs, p)
        coords = []
        for s in subs:
            coords.extend([s.entry, s.exit])
        cs = epsilon_cluster(coords, eps)
        key = (len(cs), len(subs))
        if prev is not None and key[0] != prev[1][0]:
            if key[1] != prev[1][1]:
                prev = (p, key)
                continue  # salience membership changed
            # otherwise some adjacent gap must pass through eps between the
            # two sample points
            found = False
            for t in np.linspace(0.0, 1.0, 21):
                q = Point(prev[0].x + t * (p.x - prev[0].x), 0.04)
                qsubs = salient_subtrajectories(trajs, q)
                svals = sorted(
                    c.s for s in qsubs for c in (s.entry, s.exit)
                )
                if len(svals) >= 2:
                    gaps = [b - a for a, b in zip(svals, svals[1:])]
                    gaps.append(svals[0] + 4.0 - svals[-1])
                    if min(abs(g - eps) for g in gaps) < 0.02:
                        found = True
                        break
            assert found
        prev = (p, key)


def test_top_k_single_blob():
    trajs = cross_trajectories(4, 1, 0.0, 0)
    grid = grid_scan(trajs, 0.3, BBox(-1, -1, 1, 1), 0.1)
    res = top_k(grid, 1)
    assert len(res) == 1 and res.complete
    pt, a = res.items[0]
    assert math.hypot(pt.x, pt.y) <= 0.45
    assert a.junction_like


def test_top_k_ranking_and_incomplete_flag():
    trajs = cross_trajectories(4, 2, 0.02, 5) + [
        Polyline(
            f"far{i}",
            tuple(
                Point(6.0 + 2.5 * math.cos(th), 2.5 * math.sin(th))
                for th in (angle, angle + math.pi)
            ),
        )
        for i, angle in enumerate((0.1, 1.2, 2.3))
    ]
    grid = grid_scan(trajs, 0.3, BBox(-1.5, -1.5, 7.5, 1.5), 0.15)
    res2 = top_k(grid, 2)
    assert len(res2) == 2
    sigs = [a.significance for _p, a in res2.items]
    assert sigs[0] >= sigs[1]
    res9 = top_k(grid, 9)
    assert not res9.complete
    assert len(res9) < 9


# a U whose arms meet only in its bottom row, a bar above its gap, and a
# cell alone; significances tie within the U and across the blobs
_HAND_LIKE = np.array([
    [1, 0, 1, 0, 1],
    [1, 0, 1, 0, 0],
    [1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0],
], dtype=bool)


def _synthetic_grid(like: np.ndarray, significance: np.ndarray) -> SignificanceGrid:
    ny, nx = like.shape
    kinds = np.where(like, "realJunction", "none")
    return SignificanceGrid(
        BBox(0.0, 0.0, nx - 1.0, ny - 1.0), 1.0, nx, ny, significance, kinds,
        np.where(like, 3, 0), like, [], 0.3,
    )


@pytest.mark.parametrize("case", ["hand", "square", "row", "column"])
def test_top_k_blobs_match_the_flood_fill(case):
    # union-find blobs against the flood fill, with ties in significance and
    # k below, at and above the blob count
    rng = np.random.default_rng(len(case))
    if case == "hand":
        like = _HAND_LIKE
        significance = np.where(like, 2.0, 0.0)
        significance[0, 4] = 1.0
    else:
        shape = {"square": (9, 11), "row": (1, 17), "column": (13, 1)}[case]
        like = rng.random(shape) < 0.45
        significance = rng.integers(0, 3, shape).astype(float)
    grid = _synthetic_grid(like, significance)
    expected = [grid.point(*divmod(i, grid.nx)) for i in reference_top_k_reps(like, significance)]
    assert len(expected) >= 3
    for k in (1, 2, len(expected), len(expected) + 3):
        res = top_k(grid, k)
        assert [p for p, _a in res.items] == expected[:k]
        assert res.complete == (k <= len(expected))
