"""Planar arrangements of lines and line segments, clipped to a box.

The subdivision is stored half-edge style: undirected edges carry the id of
the supporting primitive.  `_extract_faces` traces every face in one numpy
pass: each vertex's ring is sorted once by angle, the cycles are labelled by
union-find and ranked by pointer jumping, and each cycle's area, convexity
and hole probe come from the arrays of its walk.  One rule decides where
walls meet: a wall is split at its two ends and where `_segment_crossings`
(the x-sweep the placement overlay uses for its straight pieces too) reports
a crossing or the end of a collinear overlap within `SNAP` of both, and
nowhere else, by `_split_pieces`, the splitting kernel the placement overlay
shares.  The sweep forms its candidate pairs in numpy, `SWEEP_CHUNK` pairs
at a time, and returns its meetings as arrays.  A face walk is a cell when
its signed area is positive relative to its size.  Nonconvex cells of
segment arrangements can be partitioned into convex subcells by shooting
axis-parallel rays from reflex vertices, all of a cell's rays through
`_first_wall_hits`, the ray kernel the placement's strip rays use too; each
ray ends at a split of the wall it hits, and a piece of the cut is kept by
the side of its walls.  The even-odd tests of points in a cell and of hole
probes go through `_scanline_xs`; they and the ray kernel hold at most
`KERNEL_CHUNK` entries at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    EPS_GEOM,
    GeometryError,
    Line,
    Point,
    Segment,
    _lines_in_box,
)

# Edge tags: ("line", i) / ("segment", i) for input primitives, ("clip", side)
# for the clip box frame, ("ray", k) for convex-decomposition rays and
# ("wall", k) for the walls of a decomposition's local subdivision.
Tag = tuple[str, int | str]

# Points this close in both coordinates are one vertex; walls this close meet.
SNAP = 1e-9
# A face walk is a cell only when its signed area, taken about its first
# vertex, exceeds this share of the sum of its terms' sizes: a relative cut
# keeps thin cells of nearly concurrent lines and drops rounding residue.
FACE_AREA_REL = 1e-12
# Segments whose direction cross product is at most this are parallel: they
# share no single crossing, and dividing by it would amplify rounding.
PARALLEL_DET = 1e-13
# A walk turning right by a cross product above this (relative to its
# squared coordinate scale) is not convex.
CONVEX_TURN_TOL = 1e-9
# A hole's probe sits this share of its longest step inside the face it bounds.
PROBE_NUDGE = 1e-7
# A corner angle below this is an antenna's dangling end: a full turn inside.
ANTENNA_TURN = 1e-12
# An angle at most this over pi is straight: no reflex corner, no ray needed.
STRAIGHT_SLACK = 1e-9
# A candidate ray within this angle of a corner's walls runs along a wall.
RAY_ANGLE_MARGIN = 1e-7
# A wall whose cross product with a ray is at most this runs along it.
RAY_PARALLEL = 1e-14
# A hit this close to the ray's origin is its own corner, not a wall ahead.
SHOT_START = 1e-9
# A ray passing this far (in wall parameter) past a wall's end still hits it.
SHOT_WALL_SLACK = 1e-12
# Points the vertex merge tests at once, which bounds its temporaries.
MERGE_CHUNK = 1024
# Entries (vertex slots of a row of polygons, walls of a ray origin or
# boundary steps of a probe) that one step of a batched kernel holds: its
# arrays stay near 64 KB.
KERNEL_CHUNK = 4096
# Candidate segment pairs the sweep tests at once, which bounds its temporaries.
SWEEP_CHUNK = 4096
# A point this far outside a box is inside it: an arc stretch whose middle
# lies just outside the domain is kept.
BOX_SLACK = 1e-9


class DegenerateInput(GeometryError):
    pass


class OnBoundary(GeometryError):
    pass


@dataclass(frozen=True)
class BBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def expanded(self, margin: float) -> "BBox":
        return BBox(
            self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin
        )

    def contains(self, x: float, y: float) -> bool:
        return (
            self.xmin - BOX_SLACK <= x <= self.xmax + BOX_SLACK
            and self.ymin - BOX_SLACK <= y <= self.ymax + BOX_SLACK
        )

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


def bbox_of_points(pts: list[tuple[float, float]]) -> BBox:
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return BBox(min(xs), min(ys), max(xs), max(ys))


@dataclass
class Cell:
    """One face of the subdivision: CCW outer walk plus CW hole walks."""

    id: int
    outer: list[int]
    outer_tags: list[Tag]
    holes: list[tuple[list[int], list[Tag]]] = field(default_factory=list)
    convex: bool = False


@dataclass
class Arrangement:
    verts: np.ndarray  # (V, 2)
    edges: list[tuple[int, int, Tag]]
    cells: list[Cell]
    clip_box: BBox
    kind: str  # "lines" | "segments"
    primitives: list
    n_components: int = 1
    # per cell: its boundary steps as (x0, y0, x1, y1) rows, built on first use
    _steps_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.verts)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        # all faces of the planar graph, the unbounded outer face included
        return len(self.cells) + 1

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def euler_ok(self) -> bool:
        """V - E + F = 1 + C; equals the classic 2 when connected (C = 1)."""
        return self.euler_characteristic() == 1 + self.n_components

    # -- per-cell geometry -------------------------------------------------

    def cell_polygon(self, cell_id: int) -> np.ndarray:
        return self.verts[np.array(self.cells[cell_id].outer, dtype=int)]

    def cell_walls(self, cell_id: int) -> list[tuple[Point, Point, Tag]]:
        """Boundary edges of a cell, each undirected edge reported once."""
        cell = self.cells[cell_id]
        seen: set[tuple[int, int]] = set()
        walls: list[tuple[Point, Point, Tag]] = []
        chains = [(cell.outer, cell.outer_tags)] + list(cell.holes)
        for walk, tags in chains:
            m = len(walk)
            for k in range(m):
                u, v = walk[k], walk[(k + 1) % m]
                key = (min(u, v), max(u, v))
                if key in seen:
                    continue
                seen.add(key)
                pu, pv = self.verts[u], self.verts[v]
                walls.append((Point(pu[0], pu[1]), Point(pv[0], pv[1]), tags[k]))
        return walls

    def cell_boundary_steps(self, cell_id: int) -> np.ndarray:
        """Every boundary walk step as a row (x0, y0, x1, y1), antenna edges
        included twice (for parity); built on first use."""
        steps = self._steps_cache.get(cell_id)
        if steps is None:
            cell = self.cells[cell_id]
            walks = [cell.outer] + [walk for walk, _tags in cell.holes]
            at = [v for walk in walks for v in walk]
            to = [v for walk in walks for v in walk[1:] + walk[:1]]
            steps = np.concatenate([self.verts[at], self.verts[to]], axis=1)
            self._steps_cache[cell_id] = steps
        return steps

    def point_in_cell(self, pt: Point, cell_id: int) -> bool:
        """Even-odd test against the cell's boundary steps."""
        return bool(self.points_in_cell(np.array([[pt.x, pt.y]]), cell_id)[0])

    def points_in_cell(self, pts: np.ndarray, cell_id: int) -> np.ndarray:
        """`point_in_cell` for each row of the (m, 2) points, in chunks of at
        most KERNEL_CHUNK point-step entries."""
        steps = self.cell_boundary_steps(cell_id)
        inside = np.zeros(len(pts), dtype=bool)
        for s in _chunks(len(pts), len(steps)):
            x, cross = _scanline_xs(steps, pts[s, 1])
            inside[s] = (cross & (x > pts[s, :1])).sum(axis=1) % 2 == 1
        return inside

    def cell_area(self, cell_id: int) -> float:
        """The shoelace sum of the cell's boundary steps, each walk's about
        its first vertex; holes walk clockwise, so they subtract."""
        cell = self.cells[cell_id]
        x0, y0, x1, y1 = self.cell_boundary_steps(cell_id).T
        lens = np.array([len(cell.outer)] + [len(walk) for walk, _tags in cell.holes])
        first = np.repeat(np.cumsum(lens) - lens, lens)
        ox, oy = x0[first], y0[first]
        return 0.5 * float(((x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)).sum())


@dataclass
class ConvexSubcell:
    parent_cell: int
    polygon: np.ndarray  # (m, 2) CCW


# ---------------------------------------------------------------------------
# subdivision construction from a soup of tagged walls
# ---------------------------------------------------------------------------

def _scanline_xs(steps: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each scanline y[i] meets the line of each step (x0, y0, x1, y1),
    as an (m, s) array, and the mask of the steps it crosses."""
    x0, y0, x1, y1 = steps.T
    y = y[:, None]
    cross = (y0 > y) != (y1 > y)
    # a horizontal step divides by zero; no scanline crosses it
    with np.errstate(divide="ignore", invalid="ignore"):
        return x0 + (y - y0) / (y1 - y0) * (x1 - x0), cross


def _chunks(n: int, width: int) -> list[slice]:
    """Slices of n rows, each of at most KERNEL_CHUNK entries of `width` a row."""
    step = max(1, KERNEL_CHUNK // max(1, width))
    return [slice(s, s + step) for s in range(0, n, step)]


def _segment_crossings(P0: np.ndarray, P1: np.ndarray, family: np.ndarray, snap: float):
    """Where segments P0[k]-P1[k] of different families meet, as two (m, 4)
    arrays of rows (i, j, x, y) with i < j, sorted by row: the crossings,
    and the ends of collinear overlaps, each once.

    An x-sweep over the segments sorted by left end pairs each segment with
    the ones that start before it ends, within snap.  The candidate pairs
    are formed in numpy, at most `SWEEP_CHUNK` at a time (a segment with
    more partners takes a chunk of its own), and those of other families
    that share a y-range within snap are solved; `family` holds one label
    per segment.  Two segments meet when their crossing lies at most snap
    outside either one (a parameter slack of snap over its length); the
    crossing lies on segment i, at its parameter clamped to [0, 1].
    Parallel segments never cross; each end of one that lies within snap of
    the other is an overlap end of the pair.
    """
    n = len(P0)
    D = P1 - P0
    xmin = np.minimum(P0[:, 0], P1[:, 0])
    xmax = np.maximum(P0[:, 0], P1[:, 0])
    ymin = np.minimum(P0[:, 1], P1[:, 1])
    ymax = np.maximum(P0[:, 1], P1[:, 1])
    order = np.argsort(xmin, kind="stable")
    # sorted position p pairs with positions p + 1 .. stops[p] - 1, the
    # segments that start before its end
    stops = np.searchsorted(xmin[order], xmax[order] + snap, side="right")
    count = np.maximum(stops - np.arange(n) - 1, 0)
    upto = np.cumsum(count)
    out, parallel = [np.zeros((0, 4))], [np.zeros((0, 2), dtype=int)]
    # a parallel pair or a point segment may divide by zero; its ok entry is false
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = snap / np.hypot(D[:, 0], D[:, 1])
        s = 0
        while s < n:
            # the positions from s whose pairs fit in one chunk, at least one
            e = max(int(np.searchsorted(upto, upto[s] - count[s] + SWEEP_CHUNK, side="right")), s + 1)
            c = count[s:e]
            pos = np.repeat(np.arange(s, e), c)
            nth = np.arange(len(pos)) - np.repeat(np.cumsum(c) - c, c)
            k, js = order[pos], order[pos + 1 + nth]
            s = e
            near = (
                (ymin[js] <= ymax[k] + snap)
                & (ymax[js] >= ymin[k] - snap)
                & (family[js] != family[k])
            )
            k, js = k[near], js[near]
            a, b = np.minimum(js, k), np.maximum(js, k)
            det = D[a, 0] * D[b, 1] - D[a, 1] * D[b, 0]
            ex = P0[b, 0] - P0[a, 0]
            ey = P0[b, 1] - P0[a, 1]
            t = (ex * D[b, 1] - ey * D[b, 0]) / det
            u = (ex * D[a, 1] - ey * D[a, 0]) / det
            par = np.abs(det) <= PARALLEL_DET
            parallel.append(np.column_stack([a[par], b[par]]))
            ok = ~par & (t >= -slack[a]) & (t <= 1.0 + slack[a])
            ok &= (u >= -slack[b]) & (u <= 1.0 + slack[b])
            a, t = a[ok], np.minimum(np.maximum(t[ok], 0.0), 1.0)
            x = P0[a, 0] + t * D[a, 0]
            y = P0[a, 1] + t * D[a, 1]
            out.append(np.column_stack([a, b[ok], x, y]))
        pairs = np.concatenate(parallel)
        overlaps = _overlap_ends(P0, P1, pairs[:, 0], pairs[:, 1], snap)
    out = np.concatenate(out)
    return out[np.lexsort((out[:, 1], out[:, 0]))], _unique_rows(overlaps)


def _overlap_ends(P0: np.ndarray, P1: np.ndarray, a: np.ndarray, b: np.ndarray, snap: float):
    """Rows (a, b, x, y) for each end of one segment of a parallel pair that
    lies within snap of the other: off its line by at most snap, and at most
    snap past either of its ends."""
    out = [np.zeros((0, 4))]
    for s, o in ((a, b), (b, a)):
        d = P1[o] - P0[o]
        L2 = (d * d).sum(axis=1)
        slack = snap / np.sqrt(L2)
        for E in (P0[s], P1[s]):
            e = E - P0[o]
            par = (e * d).sum(axis=1) / L2
            # |cross(d, e)| is the end's offset times |d|
            ok = (d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]) ** 2 <= snap * snap * L2
            ok &= (par >= -slack) & (par <= 1.0 + slack)
            out.append(np.column_stack([a[ok], b[ok], E[ok]]))
    return np.concatenate(out)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted column by column; of equal rows the first
    stays."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def _merge_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find over 0..n-1 joined by the pairs (a[k], b[k]): each label is
    the smallest index joined to it.  Each round hooks the larger root of
    every pair still apart onto the smaller, then jumps labels to roots;
    labels only fall, so a component's smallest index stays its root."""
    label = np.arange(n)
    while True:
        ra, rb = label[a], label[b]
        apart = ra != rb
        if not apart.any():
            return label
        label[np.maximum(ra, rb)[apart]] = np.minimum(ra, rb)[apart]
        while (label[label] != label).any():
            label = label[label]


def _snap_merge(xy: np.ndarray, snap: float, group: np.ndarray | None = None) -> np.ndarray:
    """For each of the (n, 2) points, the index of the first point merged
    with it: points within snap of each other in both coordinates merge, and
    so, transitively, do the points merged with them.  With `group`, one
    non-negative label per point, only points of one group merge.  The
    points are sorted by cell of a grid of side snap: points sharing a cell
    merge outright, and each is tested against the four cells ahead of its
    own."""
    n = len(xy)
    k = np.floor(xy / snap).astype(np.int64)
    # with return_index np.unique sorts stably, as the rest of the program
    # does; its default sort pages in another sort kernel (0.3 MB resident)
    ucol, _, col = np.unique(k[:, 0], return_index=True, return_inverse=True)
    urow, _, row = np.unique(k[:, 1], return_index=True, return_inverse=True)
    key = col * len(urow) + row
    if group is not None:
        # each group's grid takes keys of its own, and the cells ahead of a
        # cell are in its group's grid
        key = key + np.asarray(group, dtype=np.int64) * (len(ucol) * len(urow))
    order = np.argsort(key, kind="stable")
    skey = key[order]
    pairs = [(np.arange(n), order[np.searchsorted(skey, key)])]
    # the cells ahead, (0, 1), (1, -1), (1, 0) and (1, 1), are these steps of
    # the key away, where the column right and the rows above and below exist
    right = np.append(ucol[1:] == ucol[:-1] + 1, False)[col]
    above = np.append(urow[1:] == urow[:-1] + 1, False)[row]
    below = np.append(False, urow[1:] == urow[:-1] + 1)[row]
    there = np.column_stack([above, right & below, right, right & above])
    steps = np.array([1, len(urow) - 1, len(urow), len(urow) + 1])
    for s in range(0, n, MERGE_CHUNK):
        target = key[s : s + MERGE_CHUNK, None] + steps
        lo = np.searchsorted(skey, target).ravel()
        hi = np.searchsorted(skey, target, side="right").ravel()
        m = (hi - lo) * there[s : s + MERGE_CHUNK].ravel()
        i = np.repeat(s + np.arange(len(m)) // 4, m)
        j = order[np.repeat(lo - np.cumsum(m) + m, m) + np.arange(len(i))]
        near = (np.abs(xy[i] - xy[j]) <= snap).all(axis=1)
        pairs.append((i[near], j[near]))
    return _merge_labels(n, *map(np.concatenate, zip(*pairs)))


def _split_pieces(piece: np.ndarray, param: np.ndarray, xy: np.ndarray, snap: float, midpoint):
    """The planar graph of pieces split where they meet, for the arrangement
    and the placement overlay alike.

    Row k puts the point xy[k] on piece[k] at parameter param[k]: each
    piece's ends and its meetings.  Points `_snap_merge` merges are one
    vertex, at their first row's coordinates, numbered by first appearance.
    Consecutive rows of a piece in parameter order at different vertices
    bound an edge; edges joining the same two vertices whose midpoints
    (`midpoint(pieces, params)`, (m, 2)) merge are one, kept where first
    seen.  Returns the (V, 2) vertices, the (E, 3) rows (u, v, piece) with
    u < v, and the number of connected components."""
    first = _snap_merge(xy, snap)
    root = first == np.arange(len(xy))
    reps, vid = np.flatnonzero(root), (np.cumsum(root) - 1)[first]
    order = np.lexsort((param, piece))
    p, t, w = piece[order], param[order], vid[order]
    step = np.flatnonzero((p[1:] == p[:-1]) & (w[1:] != w[:-1]))
    u, v = np.minimum(w[step], w[step + 1]), np.maximum(w[step], w[step + 1])
    p, t = p[step], 0.5 * (t[step] + t[step + 1])
    # only edges that join the same two vertices need their midpoints merged
    _, _, pair = np.unique(u * len(reps) + v, return_index=True, return_inverse=True)
    dup, mid = np.flatnonzero(np.bincount(pair)[pair] > 1), np.zeros_like(pair)
    if dup.size:
        mid[dup] = dup[_snap_merge(midpoint(p[dup], t[dup]), snap)]
    keep = np.zeros(len(pair), dtype=bool)
    keep[np.unique(pair * len(pair) + mid, return_index=True)[1]] = True
    edges = np.column_stack([u[keep], v[keep], p[keep]])
    labels = _merge_labels(len(reps), edges[:, 0], edges[:, 1])
    return xy[reps], edges, int((labels == np.arange(len(reps))).sum())


def build_subdivision(
    walls: list[tuple[Point, Point, Tag]],
    clip_box: BBox,
    kind: str,
    primitives: list,
) -> Arrangement:
    """Planar subdivision of a tagged wall soup (clip frame must be included).

    A wall is split at its two ends and where `_segment_crossings` says it
    meets another within `SNAP`, and nowhere else.  Overlap ends are wall
    ends, so each shared stretch of two collinear walls becomes one edge.
    """
    ends = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _ in walls], dtype=float)
    P0, D = ends[:, :2], ends[:, 2:] - ends[:, :2]
    meets = np.concatenate(_segment_crossings(P0, ends[:, 2:], np.arange(len(walls)), SNAP))
    piece = np.concatenate([np.repeat(np.arange(len(walls)), 2), meets[:, :2].astype(int).ravel()])
    xy = np.concatenate([ends.reshape(-1, 2), np.repeat(meets[:, 2:], 2, axis=0)])
    # each row's parameter is its point's projection on its wall
    param = ((xy - P0[piece]) * D[piece]).sum(axis=1) / (D[piece] ** 2).sum(axis=1)
    verts, edge_rows, n_components = _split_pieces(
        piece, param, xy, SNAP, lambda k, t: P0[k] + t[:, None] * D[k]
    )
    tags = [tag for _p0, _p1, tag in walls]
    edges = [(u, v, tags[k]) for u, v, k in edge_rows.tolist()]
    cells = _extract_faces(verts, edge_rows, tags)
    arr = Arrangement(verts, edges, cells, clip_box, kind, primitives, n_components)
    if not arr.euler_ok():
        raise DegenerateInput(
            f"Euler check failed: V={arr.n_vertices} E={arr.n_edges} "
            f"F={arr.n_faces} C={arr.n_components}"
        )
    return arr


def _extract_faces(P: np.ndarray, edge_rows: np.ndarray, tags: list[Tag]) -> list[Cell]:
    """Face cycles of the (V, 2) points and (E, 3) rows (u, v, wall), the
    interior on the left of every walk, in one numpy pass.

    Half-edge 2e runs along edge e from u to v, 2e + 1 back; next(h) is the
    half-edge one step clockwise from the twin of h in the ring, sorted by
    (angle, half-edge), at its head.  A walk starts at its cycle's smallest
    half-edge.  Counter-clockwise cycles are the cells, largest first; every
    other cycle is a hole of the smallest cell around its probe (its first
    longest step's midpoint, nudged left), or bounds the unbounded face.
    """
    H = 2 * len(edge_rows)
    h = np.arange(H)
    org = edge_rows[:, :2].ravel()
    d = P[org[h ^ 1]] - P[org]  # each half-edge's step
    # a key that grows with the step's angle over (-pi, pi], as atan2 does,
    # from -2 to 2, without trigonometry; lexsort is stable, so equal keys at
    # a vertex keep half-edge order
    q = d[:, 1] / (np.abs(d[:, 0]) + np.abs(d[:, 1]))
    ring = np.lexsort((np.where(d[:, 0] < 0, np.copysign(2.0, d[:, 1]) - q, q), org))
    at = org[ring]
    # the slot before each; a ring's first slot follows its last
    prev = np.where(np.searchsorted(at, at) == h, np.searchsorted(at, at, "right") - 1, h - 1)
    nxt = np.empty(H, dtype=int)
    nxt[ring ^ 1] = ring[prev]

    label = _merge_labels(H, h, nxt)
    # Wyllie's list ranking: steps from each half-edge to its cycle's last,
    # jumping only the half-edges whose successor is not that last yet
    last = nxt == label
    togo, succ = (~last).astype(int), np.where(last, h, nxt)
    live = np.flatnonzero(~last)
    while live.size:
        hop = succ[live]
        togo[live] += togo[hop]
        succ[live] = succ[hop]
        live = live[~last[succ[live]]]
    root = label == h
    clen = np.bincount(label, minlength=H)[root]
    cstart = np.cumsum(clen) - clen
    cid = (np.cumsum(root) - 1)[label]
    walk = np.empty(H, dtype=int)  # the cycles one after another, each from its root
    walk[cstart[cid] + clen[cid] - 1 - togo] = h
    cyc, a = cid[walk], org[walk]
    pa, pb, step = P[a], P[org[walk ^ 1]], d[walk]

    (ax, ay), (bx, by) = pa.T, pb.T
    ox, oy = ax[cstart][cyc], ay[cstart][cyc]
    # bincount adds in walk order; the first and last steps add a zero
    term = (ax - ox) * (by - oy) - (bx - ox) * (ay - oy)
    area = 0.5 * np.bincount(cyc, term, len(clen))
    size = 0.5 * np.bincount(cyc, np.abs(term), len(clen))
    ccw = area > FACE_AREA_REL * size
    cell, other = np.flatnonzero(ccw), np.flatnonzero(~ccw)

    # convex: no turn right beyond the walk's scale, and no vertex twice
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(pa).max(axis=1), cstart))[cid]
    right = d[:, 0] * d[nxt, 1] - d[:, 1] * d[nxt, 0] < -CONVEX_TURN_TOL * scale * scale
    seen = cid * len(P) + org
    seen = seen[np.argsort(seen, kind="stable")]
    twice = seen[1:][seen[1:] == seen[:-1]] // len(P)
    convex = np.bincount(cid, right, len(clen)) + np.bincount(twice, minlength=len(clen)) == 0

    # cells largest first; cells of equal area in the order of their vertex
    # id lists, padded with -1 so that a prefix sorts first
    key = -area[cell]
    sorted_key = key[np.argsort(key, kind="stable")]
    tied = np.flatnonzero(np.searchsorted(sorted_key, key, "right") - np.searchsorted(sorted_key, key) > 1)
    tie = np.zeros(len(cell), dtype=int)
    if tied.size:
        lens = clen[cell[tied]]
        col = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        ids = np.full((len(tied), lens.max()), -1)
        ids[np.repeat(np.arange(len(tied)), lens), col] = a[np.repeat(cstart[cell[tied]], lens) + col]
        tie[tied[np.lexsort(ids.T[::-1])]] = np.arange(len(tied))
    cell = cell[np.lexsort((tie, key))]

    # each other cycle's probe, tested against every cycle's steps
    length = np.hypot(step[:, 0], step[:, 1])
    longest = np.where(length == np.maximum.reduceat(length, cstart)[cyc], h, H)
    longest = np.minimum.reduceat(longest, cstart)[other]
    nudge = PROBE_NUDGE * length[longest, None]
    left = nudge * step[longest, ::-1] * [-1.0, 1.0] / length[longest, None]
    probes = 0.5 * (pa[longest] + pb[longest]) + left
    steps = np.concatenate([pa, pb], axis=1)
    owner = np.full(len(other), -1)
    for s in _chunks(len(other), H):
        x, cross = _scanline_xs(steps, probes[s, 1])
        odd = (np.add.reduceat(cross & (x > probes[s, :1]), cstart, axis=1) % 2 == 1)[:, cell]
        # the last cell around a probe is the smallest: cells run largest first
        owner[s] = np.where(odd.any(axis=1), len(cell) - 1 - np.argmax(odd[:, ::-1], axis=1), -1)
    hole = owner >= 0
    by_cell = np.argsort(owner[hole], kind="stable")
    holes = other[hole][by_cell].tolist()
    hole_at = np.searchsorted(owner[hole][by_cell], np.arange(len(cell) + 1)).tolist()
    convex[cell[owner[hole]]] = False

    vids = a.tolist()
    walk_tags = np.fromiter(tags, dtype=object, count=len(tags))[edge_rows[walk >> 1, 2]].tolist()
    first, stop = cstart.tolist(), (cstart + clen).tolist()

    def traced(c):
        return vids[first[c] : stop[c]], walk_tags[first[c] : stop[c]]

    return [
        Cell(i, *traced(c), [traced(j) for j in holes[hole_at[i] : hole_at[i + 1]]], flag)
        for i, (c, flag) in enumerate(zip(cell.tolist(), convex[cell].tolist()))
    ]


# ---------------------------------------------------------------------------
# line arrangements
# ---------------------------------------------------------------------------

def _line_pairs(lines: list[Line], start: int):
    """Every pair i < j of the lines with j >= start, in nested-loop order (by
    i, then j): the index arrays, the determinant a_i b_j - a_j b_i of their
    canonical coefficients and their crossing point, inf or nan where the
    determinant is 0."""
    a, b, c = np.array([(ln.a, ln.b, ln.c) for ln in lines], dtype=float).reshape(-1, 3).T
    k = np.arange(len(lines))
    i, j = np.nonzero(k[:, None] < k[start:])
    j += start
    det = a[i] * b[j] - a[j] * b[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        return i, j, det, (c[i] * b[j] - c[j] * b[i]) / det, (a[i] * c[j] - a[j] * c[i]) / det


def distinct_lines(lines: list[Line]) -> list[Line]:
    """The lines without repeats: a line that is `Line.same_line` with an
    earlier kept line is dropped, so the first copy stays.  Lines whose
    unit normals agree within EPS_GEOM have a determinant of at most
    sqrt(2) EPS_GEOM, so only those pairs are compared."""
    i, j, det, _x, _y = _line_pairs(lines, 0)
    near = np.abs(det) <= 2.0 * EPS_GEOM
    keep = [True] * len(lines)
    for p, q in zip(i[near].tolist(), j[near].tolist()):
        if keep[p] and keep[q] and lines[p].same_line(lines[q]):
            keep[q] = False
    return [ln for ln, kept in zip(lines, keep) if kept]


def build_line_arrangement(lines: list[Line], clip_box: BBox | None = None) -> Arrangement:
    """Arrangement of infinite lines clipped to a box, each repeated line
    taken once (`distinct_lines`).  Lines that meet in one point need no
    rule of their own: their crossings merge into one vertex.

    The box auto-expands so that every pairwise intersection and every anchor
    point lies strictly inside it.
    """
    lines = distinct_lines(lines)
    _i, _j, det, x, y = _line_pairs(lines, 0)
    cross = np.abs(det) > EPS_GEOM
    pts = [(q.x, q.y) for ln in lines for q in (ln.p, ln.q)]
    box = bbox_of_points(pts + list(zip(x[cross].tolist(), y[cross].tolist())) or [(0.0, 0.0)])
    box = box.expanded(max(1.0, 0.05 * max(box.width, box.height)))
    if clip_box is not None:
        box = box.union(clip_box)

    walls = _frame_walls(box)
    hit, ends = _lines_in_box(lines, box)
    for i, (inside, (x0, y0, x1, y1)) in enumerate(zip(hit.tolist(), ends.tolist())):
        if inside:
            walls.append((Point(x0, y0), Point(x1, y1), ("line", i)))
    return build_subdivision(walls, box, "lines", lines)


def _frame_walls(box: BBox) -> list[tuple[Point, Point, Tag]]:
    bl = Point(box.xmin, box.ymin)
    br = Point(box.xmax, box.ymin)
    tr = Point(box.xmax, box.ymax)
    tl = Point(box.xmin, box.ymax)
    return [
        (bl, br, ("clip", "bottom")),
        (br, tr, ("clip", "right")),
        (tr, tl, ("clip", "top")),
        (tl, bl, ("clip", "left")),
    ]


# ---------------------------------------------------------------------------
# segment arrangements
# ---------------------------------------------------------------------------

def build_segment_arrangement(
    segments: list[Segment], clip_box: BBox | None = None
) -> Arrangement:
    """Arrangement of line segments; endpoints become vertices."""
    pts = [(s.p.x, s.p.y) for s in segments] + [(s.q.x, s.q.y) for s in segments]
    if not pts:
        pts = [(0.0, 0.0)]
    box = bbox_of_points(pts).expanded(1.0)
    if clip_box is not None:
        box = box.union(clip_box)
    walls = _frame_walls(box)
    for i, s in enumerate(segments):
        walls.append((s.p, s.q, ("segment", i)))
    return build_subdivision(walls, box, "segments", list(segments))


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def locate(point: Point, arrangement: Arrangement) -> int:
    """Id of the cell containing the point.

    Raises OnBoundary when the point sits within EPS_GEOM of an edge, and
    GeometryError when it falls outside the clip box.
    """
    uv = np.array([(u, v) for u, v, _tag in arrangement.edges])
    p0 = arrangement.verts[uv[:, 0]]
    d = arrangement.verts[uv[:, 1]] - p0
    e = np.array([point.x, point.y]) - p0
    # the projection on each edge, clamped to it (distinct vertices: no edge has length 0)
    t = np.clip((e * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    if (np.hypot(*(e - t[:, None] * d).T) <= EPS_GEOM).any():
        raise OnBoundary(f"point {point} lies on an arrangement edge")
    for cell in arrangement.cells:
        if arrangement.point_in_cell(point, cell.id):
            return cell.id
    raise GeometryError(f"point {point} outside the arrangement clip box")


# ---------------------------------------------------------------------------
# convex decomposition of nonconvex cells
# ---------------------------------------------------------------------------

_AXIS_DIRS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def convex_decompose(cell: Cell, arrangement: Arrangement) -> list[ConvexSubcell]:
    """Partition a cell into convex subcells with axis-parallel rays.

    Every reflex corner (segment endpoints dangling inside the cell show up
    as full-turn walks) shoots the fewest axis-direction rays that cut its
    interior angle into parts of at most a straight angle; rays stop at the
    first wall they cross, and a wall along a ray shares an edge with it.
    Each walk keeps its face on its left, so a piece of the cut is in the
    cell when its first wall step runs the way the cell's walk runs that
    wall (an antenna both ways), or when only rays bound it.  Convex cells
    come back unchanged as a single subcell.
    """
    if cell.convex and not cell.holes:
        return [ConvexSubcell(cell.id, arrangement.cell_polygon(cell.id))]

    walls = [(p0, p1, ("wall", k)) for k, (p0, p1, _tag) in enumerate(arrangement.cell_walls(cell.id))]
    shots = []  # (corner x, y, ray dx, dy)
    V = arrangement.verts.tolist()
    for walk in [cell.outer] + [walk for walk, _tags in cell.holes]:
        for vp, vc, vn in zip(walk[-1:] + walk[:-1], walk, walk[1:] + walk[:1]):
            (px, py), (cx, cy), (nx, ny) = V[vp], V[vc], V[vn]
            a_out = math.atan2(ny - cy, nx - cx)
            inner = (math.atan2(py - cy, px - cx) - a_out) % (2.0 * math.pi)
            if inner < ANTENNA_TURN:
                inner = 2.0 * math.pi
            if inner <= math.pi + STRAIGHT_SLACK:
                continue
            candidates = []
            for dx, dy in _AXIS_DIRS:
                rel = (math.atan2(dy, dx) - a_out) % (2.0 * math.pi)
                if RAY_ANGLE_MARGIN < rel < inner - RAY_ANGLE_MARGIN:
                    candidates.append((rel, dx, dy))
            candidates.sort()
            shots.extend((cx, cy, dx, dy) for _rel, dx, dy in _minimal_splitting(candidates, inner))

    shot_rows = np.array(shots, dtype=float).reshape(-1, 4)
    ends = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _tag in walls], dtype=float)
    wall, t = _first_wall_hits(shot_rows[:, :2], shot_rows[:, 2:], ends, SHOT_START, SHOT_WALL_SLACK)
    hit = wall >= 0
    at = shot_rows[hit, :2] + t[hit, None] * shot_rows[hit, 2:]
    rays = [
        (Point(cx, cy), Point(hx, hy), ("ray", k))
        for k, ((cx, cy), (hx, hy)) in enumerate(zip(shot_rows[hit, :2].tolist(), at.tolist()))
    ]
    # a ray ends on its wall, so it meets it within SNAP however short it is
    local = build_subdivision(
        walls + rays, arrangement.clip_box, arrangement.kind, arrangement.primitives
    )
    run = set(map(tuple, arrangement.cell_boundary_steps(cell.id).tolist()))
    return [
        ConvexSubcell(cell.id, local.cell_polygon(sub.id))
        for sub in local.cells
        if _runs_with_the_cell(local, sub, walls, run)
    ]


def _runs_with_the_cell(local: Arrangement, sub: Cell, walls, run: set) -> bool:
    """Whether the local cell's first wall step, the way its walk takes it,
    is one of the cell's `run` steps; True when only rays bound it."""
    for (ax, ay, bx, by), tag in zip(local.cell_boundary_steps(sub.id).tolist(), sub.outer_tags):
        if tag[0] == "wall":
            p0, p1, _tag = walls[tag[1]]
            if (bx - ax) * (p1.x - p0.x) + (by - ay) * (p1.y - p0.y) < 0.0:
                p0, p1 = p1, p0
            return (p0.x, p0.y, p1.x, p1.y) in run
    return True


def _minimal_splitting(candidates, inner: float):
    """Fewest sorted ray angles that split the sector into parts <= pi."""
    from itertools import combinations

    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            rels = [0.0] + [c[0] for c in subset] + [inner]
            if all(b - a <= math.pi + STRAIGHT_SLACK for a, b in zip(rels, rels[1:])):
                return list(subset)
    return list(candidates)


def _first_wall_hits(origins: np.ndarray, dirs, walls: np.ndarray, start: float, wall_slack: float):
    """Which of the walls, rows (x0, y0, x1, y1), each ray origins[i] +
    t*dirs[i] meets first, with t > start and at most wall_slack (in wall
    parameter) past a wall's ends: the wall's index, or -1, and its t, or
    inf.  Of walls met at the same t the first in the array wins.  `dirs`
    holds one step per origin, or one step for all; the rays go in chunks of
    at most KERNEL_CHUNK ray-wall entries."""
    dirs = np.broadcast_to(np.asarray(dirs, dtype=float), origins.shape)
    ex = walls[:, 2] - walls[:, 0]
    ey = walls[:, 3] - walls[:, 1]
    first = np.full(len(origins), -1)
    first_t = np.full(len(origins), np.inf)
    for s in _chunks(len(origins), len(walls)):
        dx, dy = dirs[s, :1], dirs[s, 1:]
        det = dx * ey - dy * ex
        rx = walls[:, 0] - origins[s, :1]
        ry = walls[:, 1] - origins[s, 1:]
        # a wall along a ray may divide by zero; its ok entry is false
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rx * ey - ry * ex) / det
            u = (dy * rx - dx * ry) / det
        ok = (np.abs(det) > RAY_PARALLEL) & (t > start)
        ok &= (-wall_slack <= u) & (u <= 1.0 + wall_slack)
        t = np.where(ok, t, np.inf)
        k = np.argmin(t, axis=1)
        rows = np.arange(len(k))
        first[s] = np.where(ok[rows, k], k, -1)
        first_t[s] = t[rows, k]
    return first, first_t
