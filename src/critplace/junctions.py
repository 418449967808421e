"""Junction detection on trajectory data.

A point is junction-like when the crossings of its salient subtrajectories
with the surrounding unit square cluster into at least three groups along the
boundary.  Crossings where all traffic goes straight through are told apart
from real junctions by how the clusters pair up under entry/exit.

One batched kernel assesses many points at once: `_salient` clips every
(point, trajectory edge) pair near each other and cuts the clips into
salient subtrajectories, and `_classify` clusters their boundary crossings
and classifies each point.  `grid_scan` runs it over the grid a batch of
rows at a time; `assess`, `salient_subtrajectories` and `epsilon_cluster`
run it on one point and return its rows as objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrangement import BBox, _merge_labels
from .geom import (
    SQUARE,
    SQUARE_PERIMETER,
    PerimeterCoord,
    Point,
    Polyline,
    _slab_clip,
    _square_perimeter_s,
    require_positive,
)

# Side ratio of the inner square a salient subtrajectory must reach.
INNER_RATIO = 0.5
# Most grid points grid_scan assesses; its result keeps four arrays of one entry a point.
MAX_GRID_POINTS = 1_000_000
# Most candidate (grid point, edge) pairs grid_scan forms for one batch of rows, unless one row alone forms more.
CHUNK_PAIRS = 1 << 16
# A point's kind, by the code the kernel gives it.
KINDS = ("none", "crossing", "realJunction")
# Tolerances, each with its reason.
# A clip parameter this close to 0 or 1 is its edge's end, where a run goes on or the trajectory ends.
EDGE_END = 1e-12
# A run's clipped end this close to the vertex before it is that vertex.
SAME_POINT = 1e-12
# Perimeters that differ by more than this belong to different shapes.
SAME_PERIMETER = 1e-12
# A vertex box more than this past the square leaves no edge the closed clip (`geom.CLOSED_PAD`) keeps.
BOX_REACH = 1e-9


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


@dataclass(eq=False)
class SignificanceGrid:
    """The grid's assessment as (ny, nx) arrays, rows over y and columns over
    x: `significance`, `kind` (names from KINDS), `n_clusters` and
    `junction_like`.  `at` assesses one grid point anew, with its clusters
    and subtrajectories."""

    bbox: BBox
    spacing: float
    nx: int
    ny: int
    significance: np.ndarray
    kind: np.ndarray
    n_clusters: np.ndarray
    junction_like: np.ndarray
    trajectories: list[Polyline]
    eps: float

    def point(self, row: int, col: int) -> Point:
        return Point(self.bbox.xmin + col * self.spacing, self.bbox.ymin + row * self.spacing)

    def at(self, row: int, col: int) -> JunctionAssessment:
        if not (0 <= row < self.ny and 0 <= col < self.nx):
            raise IndexError(f"grid point ({row}, {col}) outside {self.ny} x {self.nx}")
        return assess(self.point(row, col), self.trajectories, self.eps)


# ---------------------------------------------------------------------------
# the batched kernel: salient subtrajectories
# ---------------------------------------------------------------------------

class _Table:
    """Arrays of the kernel, one per field, named when the table is made."""

    def __init__(self, **arrays: np.ndarray):
        self.__dict__.update(arrays)


def _edge_table(trajectories: list[Polyline]) -> _Table:
    """Every trajectory edge in trajectory order: start vertex (x, y),
    direction (dx, dy), trajectory, index within it and whether it is its
    trajectory's last; `xy` holds all vertices, `start` each edge's first."""
    n = np.array([len(t.vertices) for t in trajectories], dtype=np.int64)
    xy = np.array([(v.x, v.y) for t in trajectories for v in t.vertices], dtype=float).reshape(-1, 2)
    ends = np.cumsum(n)
    start = np.delete(np.arange(len(xy)), ends - 1)
    traj = np.repeat(np.arange(len(n)), n - 1)
    index = start - (ends - n)[traj]
    x, y = xy[start, 0], xy[start, 1]
    return _Table(
        xy=xy, start=start, x=x, y=y, dx=xy[start + 1, 0] - x, dy=xy[start + 1, 1] - y,
        traj=traj, index=index, last=index == (n - 2)[traj],
    )


def _ranges(edges: _Table, xs: np.ndarray, ys: np.ndarray):
    """Per edge, the columns [c0, c1) and rows [r0, r1) of the grid points
    whose squares its bounding box comes near."""
    reach = 0.5 + BOX_REACH
    a, b = edges.xy[edges.start], edges.xy[edges.start + 1]
    lo, hi = np.minimum(a, b) - reach, np.maximum(a, b) + reach
    return (
        np.searchsorted(xs, lo[:, 0]), np.searchsorted(xs, hi[:, 0], "right"),
        np.searchsorted(ys, lo[:, 1]), np.searchsorted(ys, hi[:, 1], "right"),
    )


def _candidates(edges: _Table, xs: np.ndarray, ys: np.ndarray):
    """(edge, row, col) of every candidate pair, sorted by grid point in
    row-major order, then by edge."""
    c0, c1, r0, r1 = _ranges(edges, xs, ys)
    nc = c1 - c0
    m = (r1 - r0) * nc
    e = np.repeat(np.arange(len(m)), m)
    k = np.arange(len(e)) - np.repeat(np.cumsum(m) - m, m)
    row, col = r0[e] + k // nc[e], c0[e] + k % nc[e]
    order = np.argsort(row * len(xs) + col, kind="stable")
    return e[order], row[order], col[order]


def _salient(edges: _Table, xs: np.ndarray, ys: np.ndarray) -> _Table:
    """The salient subtrajectories of every grid point (xs[col], ys[row]),
    one row each, ordered by grid point, then trajectory, then position
    along it: the point's row-major index, the edge table rows of the
    `first` and `last` edge, the chain's (n, 2) `entry` and `exit` points,
    whether the exit is a point of its own (`clipped_exit`) rather than the
    last edge's start, and the (n, 2) entry and exit perimeter coordinates
    `s`.

    Each trajectory edge is clipped to the closed unit square of each grid
    point near it.  Clips of consecutive edges that meet inside the square
    form one run.  A run is dropped when it starts at the trajectory's first
    point or ends at its last, when no segment of its chain touches the
    closed inner square (a chain left with fewer than two points once its
    clipped end merges with the vertex before it has no segment), or when
    an end is off the square's boundary.
    """
    e, row, col = _candidates(edges, xs, ys)
    cx, cy = xs[col], ys[row]
    hit, t0, t1 = _slab_clip(
        edges.x[e], edges.y[e], edges.dx[e], edges.dy[e], 0.0, 1.0,
        cx - 0.5, cy - 0.5, cx + 0.5, cy + 0.5, True,
    )
    e, row, col, t0, t1 = e[hit], row[hit], col[hit], t0[hit], t1[hit]
    point = row * len(xs) + col
    # a clip continues the run of the clip before it when both are one
    # point's, of consecutive edges of one trajectory, and meet at the vertex
    head = np.ones(len(e), dtype=bool)
    head[1:] = ~(
        (point[1:] == point[:-1]) & (e[1:] == e[:-1] + 1) & ~edges.last[e[:-1]]
        & (t1[:-1] >= 1.0 - EDGE_END) & (t0[1:] <= EDGE_END)
    )
    stop = np.ones(len(e), dtype=bool)
    stop[:-1] = head[1:]
    e0, t0, e1, t1 = e[head], t0[head], e[stop], t1[stop]
    point, row, col = point[head], row[head], col[head]
    # the ends of runs that stop at a trajectory's ends never crossed there
    keep = ~((edges.index[e0] == 0) & (t0 <= EDGE_END)) & ~(edges.last[e1] & (t1 >= 1.0 - EDGE_END))
    x0, y0 = edges.x[e0] + t0 * edges.dx[e0], edges.y[e0] + t0 * edges.dy[e0]
    x1, y1 = edges.x[e1] + t1 * edges.dx[e1], edges.y[e1] + t1 * edges.dy[e1]
    # the chain's point before the clipped end: the last edge's start
    # vertex, or the entry on a run of one edge
    vx, vy = np.where(e1 > e0, edges.x[e1], x0), np.where(e1 > e0, edges.y[e1], y0)
    # np.hypot may differ from math.hypot in the last bit, which moves this
    # decision only for an end within an ulp of SAME_POINT from the vertex
    clipped_exit = np.hypot(x1 - vx, y1 - vy) > SAME_POINT
    e0, e1, point, row, col, x0, y0, clipped_exit = (
        a[keep] for a in (e0, e1, point, row, col, x0, y0, clipped_exit)
    )
    x1, y1 = np.where(clipped_exit, x1[keep], vx[keep]), np.where(clipped_exit, y1[keep], vy[keep])
    cx, cy = xs[col], ys[row]

    # the chain's segments, from each of its points to the next: the entry,
    # the vertices after the first edge up to the last edge's start, and the
    # clipped exit when it is a point of its own
    nseg = e1 - e0 + clipped_exit
    run = np.repeat(np.arange(len(e0)), nseg)
    j = np.arange(len(run)) - np.repeat(np.cumsum(nseg) - nseg, nseg)
    v = edges.start[e0][run] + j
    to_vertex = j < (e1 - e0)[run]
    ux = np.where(j == 0, x0[run], edges.xy[v, 0])
    uy = np.where(j == 0, y0[run], edges.xy[v, 1])
    wx = np.where(to_vertex, edges.xy[v + 1, 0], x1[run])
    wy = np.where(to_vertex, edges.xy[v + 1, 1], y1[run])
    half = 0.5 * INNER_RATIO
    icx, icy = cx[run], cy[run]
    touch, _, _ = _slab_clip(
        ux, uy, wx - ux, wy - uy, 0.0, 1.0, icx - half, icy - half, icx + half, icy + half, True
    )
    reached = np.bincount(run, weights=touch, minlength=len(e0)) > 0
    s_in, on_in = _square_perimeter_s(x0 - cx, y0 - cy)
    s_out, on_out = _square_perimeter_s(x1 - cx, y1 - cy)
    keep = reached & on_in & on_out
    return _Table(
        point=point[keep], first=e0[keep], last=e1[keep],
        entry=np.column_stack([x0[keep], y0[keep]]), exit=np.column_stack([x1[keep], y1[keep]]),
        clipped_exit=clipped_exit[keep], s=np.column_stack([s_in[keep], s_out[keep]]),
    )


def _subtrajectories(pieces: _Table, edges: _Table, trajectories: list[Polyline], p: Point) -> list[SalientSubtrajectory]:
    """The pieces of the one grid point p as objects."""
    out = []
    rows = zip(
        edges.traj[pieces.first].tolist(), edges.index[pieces.first].tolist(),
        edges.index[pieces.last].tolist(), pieces.entry.tolist(), pieces.exit.tolist(),
        pieces.clipped_exit.tolist(), pieces.s.tolist(),
    )
    for t, i0, i1, (x0, y0), (x1, y1), clipped_exit, (s0, s1) in rows:
        traj = trajectories[t]
        pts = (Point(x0, y0), *traj.vertices[i0 + 1 : i1 + 1]) + ((Point(x1, y1),) if clipped_exit else ())
        out.append(SalientSubtrajectory(
            traj.id, i0, i1, pts, PerimeterCoord(SQUARE, p, s0), PerimeterCoord(SQUARE, p, s1)
        ))
    return out


def salient_subtrajectories(trajectories: list[Polyline], p: Point) -> list[SalientSubtrajectory]:
    """Maximal trajectory pieces inside the unit square around p that reach
    the inner square and properly cross the boundary at both ends.

    A vertex touching the boundary with both neighbors strictly inside counts
    as contact and does not end a piece; pieces that stop on the boundary
    without crossing (trajectory endpoints, grazing vertices) are dropped.
    """
    edges = _edge_table(trajectories)
    pieces = _salient(edges, np.array([p.x], dtype=float), np.array([p.y], dtype=float))
    return _subtrajectories(pieces, edges, trajectories, p)


# ---------------------------------------------------------------------------
# the batched kernel: clustering along the boundary and classification
# ---------------------------------------------------------------------------

def _cluster(point: np.ndarray, s: np.ndarray, eps: float, perimeter: float) -> _Table:
    """Transitive closure of along-boundary closeness at granularity eps,
    for each point's coordinates: in (s, input) order a coordinate more than
    eps past the one before it starts a group, and the last group merges
    into the first when the cyclic gap between them closes.

    `order` sorts the coordinates by (point, s), and `group` numbers the
    groups of the sorted coordinates across all points, before the wrap
    merge; `label` gives each coordinate, in input order, its cluster's
    group number, the first group's for a point's last group when it wraps
    around into its first.  Per point with coordinates, ascending: `points`,
    its `first` group, `count` of clusters and whether it `wraps`."""
    n = len(s)
    order = np.lexsort((s, point))  # stable: equal coordinates keep input order
    sp, ss = point[order], s[order]
    new_point = np.ones(n, dtype=bool)
    new_point[1:] = sp[1:] != sp[:-1]
    new_group = new_point.copy()
    new_group[1:] |= ss[1:] - ss[:-1] > eps
    group = np.cumsum(new_group) - 1
    head = np.flatnonzero(new_point)
    tail = np.append(head[1:], n)[: len(head)] - 1
    first, last = group[head], group[tail]
    wraps = (last > first) & (ss[head] + perimeter - ss[tail] <= eps)
    slot = np.cumsum(new_point) - 1
    label = np.empty(n, dtype=np.int64)
    label[order] = np.where(wraps[slot] & (group == last[slot]), first[slot], group)
    return _Table(
        order=order, group=group, label=label, points=sp[head], first=first,
        count=last - first + 1 - wraps, wraps=wraps,
    )


def _cluster_set(s: list[float], c: _Table, perimeter: float) -> ClusterSet:
    """The clusters of one point's coordinates s as objects."""
    if not s:
        return ClusterSet(SQUARE_PERIMETER, [], [])
    groups: list[list[float]] = [[] for _ in range(int(c.group[-1]) + 1)]
    for i, g in zip(c.order.tolist(), c.group.tolist()):
        groups[g].append(s[i])
    if c.wraps[0]:
        groups[0] = groups.pop() + groups[0]
    clusters = [Cluster(m, len(m), _cyclic_span(sorted(m), perimeter)) for m in groups]
    return ClusterSet(perimeter, clusters, c.label.tolist())


def _cyclic_span(sorted_members: list[float], P: float) -> float:
    if len(sorted_members) <= 1:
        return 0.0
    gaps = [b - a for a, b in zip(sorted_members, sorted_members[1:])]
    gaps.append(sorted_members[0] + P - sorted_members[-1])
    return P - max(gaps)


def epsilon_cluster(coords: list[PerimeterCoord], eps: float) -> ClusterSet:
    """Transitive closure of along-boundary closeness at granularity eps."""
    require_positive("eps", eps)
    if not coords:
        return ClusterSet(SQUARE_PERIMETER, [], [])
    P = coords[0].perimeter
    for c in coords:
        if abs(c.perimeter - P) > SAME_PERIMETER:
            raise ValueError("mixed shapes in one clustering")
    s = [c.s for c in coords]
    return _cluster_set(s, _cluster(np.zeros(len(s), dtype=np.int64), np.array(s), eps, P), P)


def default_significance(n_clusters: int, min_cluster_size: int, kind: str) -> float:
    """Stand-in junction importance: more arms and fatter thinnest arm score
    higher; decision points outrank straight-through crossings."""
    if n_clusters < 3:
        return 0.0
    base = (n_clusters - 2) * min_cluster_size
    return float(2 * base if kind == "realJunction" else base)


def _classify(pieces: _Table, eps: float):
    """Cluster each point's entry and exit coordinates and classify the
    point: junction-like with three clusters or more, a crossing when every
    cluster pairs with exactly one other cluster, else a real junction.
    Returns the clustering, then per point with pieces (`points` of the
    clustering) its code in KINDS and its significance."""
    n = len(pieces.point)
    c = _cluster(np.repeat(pieces.point, 2), pieces.s.ravel(), eps, SQUARE_PERIMETER)
    G = int(c.group[-1]) + 1 if n else 0
    size = np.bincount(c.label, minlength=G)
    # a last group merged into its first has no members
    min_size = np.minimum.reduceat(np.where(size > 0, size, 2 * n + 1), c.first)
    a, b = c.label[0::2], c.label[1::2]
    pairs = np.unique(np.concatenate([a * G + b, b * G + a]))
    ci, cj = pairs // G, pairs % G
    unpaired = np.bincount(ci, minlength=G) != 1
    unpaired[ci[ci == cj]] = True
    real = np.logical_or.reduceat(unpaired & (size > 0), c.first)
    code = np.where(c.count >= 3, np.where(real, 2, 1), 0)
    significance = np.zeros(len(code))
    for k in np.flatnonzero(code).tolist():
        significance[k] = default_significance(int(c.count[k]), int(min_size[k]), KINDS[code[k]])
    return c, code, significance


def assess(p: Point, trajectories: list[Polyline], eps: float) -> JunctionAssessment:
    """Cluster the salient crossing points around p and classify the point."""
    require_positive("eps", eps)
    edges = _edge_table(trajectories)
    pieces = _salient(edges, np.array([p.x], dtype=float), np.array([p.y], dtype=float))
    c, code, significance = _classify(pieces, eps)
    subs = _subtrajectories(pieces, edges, trajectories, p)
    clusters = _cluster_set(pieces.s.ravel().tolist(), c, SQUARE_PERIMETER)
    kind = KINDS[code[0]] if len(code) else "none"
    return JunctionAssessment(
        p, clusters, subs, kind != "none", kind, float(significance[0]) if len(code) else 0.0
    )


# ---------------------------------------------------------------------------
# grid scan and reporting
# ---------------------------------------------------------------------------

def _row_batches(edges: _Table, xs: np.ndarray, ys: np.ndarray):
    """Batches [lo, hi) of whole grid rows that form at most CHUNK_PAIRS
    candidate pairs, or one row that alone forms more."""
    c0, c1, r0, r1 = _ranges(edges, xs, ys)
    change = np.zeros(len(ys) + 1, dtype=np.int64)
    np.add.at(change, r0, c1 - c0)
    np.add.at(change, r1, c0 - c1)
    before = np.concatenate([[0], np.cumsum(np.cumsum(change[:-1]))])  # pairs of the rows before
    lo = 0
    while lo < len(ys):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + CHUNK_PAIRS, "right")) - 1)
        yield lo, hi
        lo = hi


def grid_scan(trajectories: list[Polyline], eps: float, bbox: BBox, spacing: float) -> SignificanceGrid:
    """assess() on a regular grid over the box, row-major and deterministic,
    every point of a batch of rows at once."""
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
    edges = _edge_table(trajectories)
    xs = bbox.xmin + np.arange(nx) * spacing
    ys = bbox.ymin + np.arange(ny) * spacing
    significance = np.zeros(nx * ny)
    n_clusters = np.zeros(nx * ny, dtype=np.int64)
    code = np.zeros(nx * ny, dtype=np.int64)
    for lo, hi in _row_batches(edges, xs, ys):
        c, kinds, sig = _classify(_salient(edges, xs, ys[lo:hi]), eps)
        at = c.points + lo * nx
        n_clusters[at], code[at], significance[at] = c.count, kinds, sig
    return SignificanceGrid(
        bbox, spacing, nx, ny, significance.reshape(ny, nx), np.array(KINDS)[code].reshape(ny, nx),
        n_clusters.reshape(ny, nx), n_clusters.reshape(ny, nx) >= 3, trajectories, eps,
    )


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
    like = grid.junction_like
    at = np.arange(like.size).reshape(like.shape)
    # blobs join junction-like cells to their right and upper neighbours
    right, up = like[:, :-1] & like[:, 1:], like[:-1] & like[1:]
    blob = _merge_labels(
        like.size,
        np.concatenate([at[:, :-1][right], at[:-1][up]]),
        np.concatenate([at[:, 1:][right], at[1:][up]]),
    )
    # junction-like cells by rank, (-significance, row, col); each blob's
    # first is its representative, and a mask keeps them in rank order
    cells = np.flatnonzero(like)
    cells = cells[np.lexsort((cells, -grid.significance.ravel()[cells]))]
    first = np.zeros(len(cells), dtype=bool)
    first[np.unique(blob[cells], return_index=True)[1]] = True
    reps = cells[first].tolist()
    chosen = [grid.at(*divmod(i, grid.nx)) for i in reps[:k]]
    return TopKResult([(a.point, a) for a in chosen], k, len(reps) >= k)
