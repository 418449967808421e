"""Junction detection on trajectory data.

A point is junction-like when the crossings of its salient subtrajectories
with the surrounding unit square cluster into at least three groups along the
boundary.  Crossings where all traffic goes straight through are told apart
from real junctions by how the clusters pair up under entry/exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrangement import BBox, bbox_of_points
from .geom import (
    SQUARE,
    NotOnBoundary,
    PerimeterCoord,
    Point,
    Polyline,
    _slab_clip,
    perimeter_coordinate,
    require_positive,
)

# Side ratio of the inner square a salient subtrajectory must reach.
INNER_RATIO = 0.5
# Most grid points grid_scan assesses; each keeps an assessment in memory.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class SalientSubtrajectory:
    source_id: str
    first_edge: int  # polyline edge index where the piece starts
    last_edge: int
    points: tuple[Point, ...]  # clipped chain, endpoints on the square
    entry: PerimeterCoord
    exit: PerimeterCoord


@dataclass
class Cluster:
    members: list[float]  # perimeter coordinates
    size: int
    span: float  # along-boundary extent


@dataclass
class ClusterSet:
    perimeter: float
    clusters: list[Cluster]
    assignment: list[int]  # cluster index per input coordinate

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass
class JunctionAssessment:
    point: Point
    clusters: ClusterSet
    subtrajectories: list[SalientSubtrajectory]
    junction_like: bool
    kind: str  # "crossing" | "realJunction" | "none"
    significance: float


@dataclass
class SignificanceGrid:
    bbox: BBox
    spacing: float
    nx: int
    ny: int
    cells: list[JunctionAssessment]  # row-major: rows over y, columns over x

    def at(self, row: int, col: int) -> JunctionAssessment:
        return self.cells[row * self.nx + col]


# ---------------------------------------------------------------------------
# salient subtrajectories
# ---------------------------------------------------------------------------

def salient_subtrajectories(trajectories: list[Polyline], p: Point) -> list[SalientSubtrajectory]:
    """Maximal trajectory pieces inside the unit square around p that reach
    the inner square and properly cross the boundary at both ends.

    A vertex touching the boundary with both neighbors strictly inside counts
    as contact and does not end a piece; pieces that stop on the boundary
    without crossing (trajectory endpoints, grazing vertices) are dropped.
    """
    out: list[SalientSubtrajectory] = []
    # the closed unit square around p and the inner square
    xmin, ymin, xmax, ymax = p.x - 0.5, p.y - 0.5, p.x + 0.5, p.y + 0.5
    inner_half = 0.5 * INNER_RATIO
    ixmin, iymin = p.x - inner_half, p.y - inner_half
    ixmax, iymax = p.x + inner_half, p.y + inner_half
    for traj in trajectories:
        verts = traj.vertices
        last_edge = len(verts) - 2
        runs: list[tuple[int, float, int, float]] = []
        open_run: tuple[int, float] | None = None
        last: tuple[int, float] | None = None
        for ei, (a, b) in enumerate(traj.edges()):
            clip = _slab_clip(
                a.x, a.y, b.x - a.x, b.y - a.y, 0.0, 1.0, xmin, ymin, xmax, ymax, True
            )
            if clip is None:
                if open_run is not None:
                    runs.append((open_run[0], open_run[1], last[0], last[1]))
                    open_run = None
                continue
            t0, t1 = clip
            connects = (
                open_run is not None
                and last[0] == ei - 1
                and last[1] >= 1.0 - 1e-12
                and t0 <= 1e-12
            )
            if not connects:
                if open_run is not None:
                    runs.append((open_run[0], open_run[1], last[0], last[1]))
                open_run = (ei, t0)
            last = (ei, t1)
            if t1 < 1.0 - 1e-12:
                runs.append((open_run[0], open_run[1], ei, t1))
                open_run = None
        if open_run is not None:
            runs.append((open_run[0], open_run[1], last[0], last[1]))

        for e0, t0, e1, t1 in runs:
            # endpoints must be true crossings: a piece that begins or ends
            # at a trajectory endpoint never crossed the boundary there
            if e0 == 0 and t0 <= 1e-12:
                continue
            if e1 == last_edge and t1 >= 1.0 - 1e-12:
                continue
            pts = _run_points(verts, e0, t0, e1, t1)
            if len(pts) < 2:
                continue
            if not any(
                _slab_clip(
                    u.x, u.y, v.x - u.x, v.y - u.y, 0.0, 1.0,
                    ixmin, iymin, ixmax, iymax, True,
                )
                is not None
                for u, v in zip(pts, pts[1:])
            ):
                continue
            try:
                entry = perimeter_coordinate(SQUARE, p, pts[0])
                exit_ = perimeter_coordinate(SQUARE, p, pts[-1])
            except NotOnBoundary:
                continue
            out.append(
                SalientSubtrajectory(traj.id, e0, e1, tuple(pts), entry, exit_)
            )
    return out


def _run_points(verts, e0: int, t0: float, e1: int, t1: float) -> list[Point]:
    def lerp(a: Point, b: Point, t: float) -> Point:
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    pts = [lerp(verts[e0], verts[e0 + 1], t0)]
    for ei in range(e0, e1):
        pts.append(verts[ei + 1])
    last = lerp(verts[e1], verts[e1 + 1], t1)
    if last.dist(pts[-1]) > 1e-12:
        pts.append(last)
    return pts


# ---------------------------------------------------------------------------
# clustering along the boundary
# ---------------------------------------------------------------------------

def epsilon_cluster(coords: list[PerimeterCoord], eps: float) -> ClusterSet:
    """Transitive closure of along-boundary closeness at granularity eps."""
    if not coords:
        return ClusterSet(4.0, [], [])
    P = coords[0].perimeter
    for c in coords:
        if abs(c.perimeter - P) > 1e-12:
            raise ValueError("mixed shapes in one clustering")
    svals = [c.s for c in coords]
    order = sorted(range(len(svals)), key=lambda i: svals[i])
    groups: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if svals[cur] - svals[prev] <= eps:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    # wraparound: merge the last group into the first when the cyclic gap closes
    if len(groups) > 1:
        gap = svals[order[0]] + P - svals[order[-1]]
        if gap <= eps:
            groups[0] = groups.pop() + groups[0]
    clusters = []
    assignment = [0] * len(svals)
    for gi, grp in enumerate(groups):
        members = [svals[i] for i in grp]
        span = _cyclic_span(sorted(members), P)
        for i in grp:
            assignment[i] = gi
        clusters.append(Cluster(members, len(members), span))
    return ClusterSet(P, clusters, assignment)


def _cyclic_span(sorted_members: list[float], P: float) -> float:
    if len(sorted_members) <= 1:
        return 0.0
    gaps = [b - a for a, b in zip(sorted_members, sorted_members[1:])]
    gaps.append(sorted_members[0] + P - sorted_members[-1])
    return P - max(gaps)


# ---------------------------------------------------------------------------
# assessment
# ---------------------------------------------------------------------------

def default_significance(n_clusters: int, min_cluster_size: int, kind: str) -> float:
    """Stand-in junction importance: more arms and fatter thinnest arm score
    higher; decision points outrank straight-through crossings."""
    if n_clusters < 3:
        return 0.0
    base = (n_clusters - 2) * min_cluster_size
    return float(2 * base if kind == "realJunction" else base)


def assess(p: Point, trajectories: list[Polyline], eps: float) -> JunctionAssessment:
    """Cluster the salient crossing points around p and classify the point."""
    subs = salient_subtrajectories(trajectories, p)
    coords: list[PerimeterCoord] = []
    for sub in subs:
        coords.append(sub.entry)
        coords.append(sub.exit)
    clusters = epsilon_cluster(coords, eps)
    junction_like = len(clusters) >= 3
    kind = "none"
    if junction_like:
        partners: dict[int, set[int]] = {i: set() for i in range(len(clusters))}
        for si, sub in enumerate(subs):
            ci = clusters.assignment[2 * si]
            cj = clusters.assignment[2 * si + 1]
            partners[ci].add(cj)
            partners[cj].add(ci)
        paired = all(
            len(ps) == 1 and next(iter(ps)) != ci for ci, ps in partners.items()
        )
        kind = "crossing" if paired else "realJunction"
    min_size = min((c.size for c in clusters.clusters), default=0)
    significance = default_significance(len(clusters), min_size, kind)
    return JunctionAssessment(p, clusters, subs, junction_like, kind, significance)


# ---------------------------------------------------------------------------
# grid scan and reporting
# ---------------------------------------------------------------------------

def grid_scan(trajectories: list[Polyline], eps: float, bbox: BBox, spacing: float) -> SignificanceGrid:
    """assess() on a regular grid over the box, row-major and deterministic.

    Each grid point only looks at the trajectories whose bounding box comes
    near its unit square.
    """
    require_positive("eps", eps)
    require_positive("spacing", spacing)
    # capped before int(): a tiny spacing overflows the step count to inf
    nx, ny = (
        max(1, int(math.floor(min(side / spacing, MAX_GRID_POINTS))) + 1)
        for side in (bbox.width, bbox.height)
    )
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(
            f"spacing {spacing} gives more than {MAX_GRID_POINTS} grid points "
            f"over a {bbox.width:g} x {bbox.height:g} box"
        )
    # a trajectory whose vertices all lie more than 1e-9 past one side of the
    # closed square has no edge the closed clip (pad 1e-12) keeps: no salient piece
    reach = 0.5 + 1e-9
    boxed = [
        (t, bbox_of_points([(v.x, v.y) for v in t.vertices])) for t in trajectories
    ]
    cells: list[JunctionAssessment] = []
    for row in range(ny):
        y = bbox.ymin + row * spacing
        in_row = [(t, b) for t, b in boxed if b.ymin - reach <= y <= b.ymax + reach]
        for col in range(nx):
            x = bbox.xmin + col * spacing
            near = [t for t, b in in_row if b.xmin - reach <= x <= b.xmax + reach]
            cells.append(assess(Point(x, y), near, eps))
    return SignificanceGrid(bbox, spacing, nx, ny, cells)


@dataclass
class TopKResult:
    items: list[tuple[Point, JunctionAssessment]]
    requested: int
    complete: bool

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def top_k(grid: SignificanceGrid, k: int) -> TopKResult:
    """One representative per 4-connected blob of junction-like cells, ranked
    by the blob's best significance; flagged incomplete when fewer than k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    flags = [a.junction_like for a in grid.cells]
    seen = [False] * len(grid.cells)
    blobs: list[list[int]] = []
    for idx in range(len(grid.cells)):
        if not flags[idx] or seen[idx]:
            continue
        stack = [idx]
        seen[idx] = True
        blob = []
        while stack:
            cur = stack.pop()
            blob.append(cur)
            row, col = divmod(cur, grid.nx)
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                r, c = row + dr, col + dc
                if 0 <= r < grid.ny and 0 <= c < grid.nx:
                    nidx = r * grid.nx + c
                    if flags[nidx] and not seen[nidx]:
                        seen[nidx] = True
                        stack.append(nidx)
        blobs.append(blob)

    reps = []
    for blob in blobs:
        best = min(
            blob,
            key=lambda i: (-grid.cells[i].significance, divmod(i, grid.nx)),
        )
        reps.append(best)
    reps.sort(key=lambda i: (-grid.cells[i].significance, divmod(i, grid.nx)))
    chosen = reps[:k]
    items = [(grid.cells[i].point, grid.cells[i]) for i in chosen]
    return TopKResult(items, k, len(reps) >= k)
