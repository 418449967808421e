"""Planar arrangements of lines and line segments, clipped to a box.

The subdivision is stored half-edge style: undirected edges carry the id of
the supporting primitive, faces are traced by walking twin/rotation order at
every vertex.  One rule decides where walls meet: a wall is split at its two
ends and where `_segment_crossings` (the x-sweep the placement overlay uses
for its straight pieces too) reports a crossing or the end of a collinear
overlap, and nowhere else; an end that misses another wall by more than the
sweep's parameter slack dangles.  A face walk is a cell when its signed area
is positive relative to its size.  Nonconvex cells of segment arrangements
can be partitioned into convex subcells by shooting axis-parallel rays from
reflex vertices; each ray ends at a split of the wall it hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (
    TOL,
    GeometryError,
    Line,
    Point,
    Segment,
    _line_in_box,
)

# Edge tags: ("line", i) / ("segment", i) for input primitives, ("clip", side)
# for the clip box frame, ("ray", k) for convex-decomposition rays.
Tag = tuple[str, int | str]

# Vertices this close in both coordinates are one.
SNAP = 1e-9
# A face walk is a cell only when its signed area, taken about its first
# vertex, exceeds this share of the sum of its terms' sizes: a relative cut
# keeps thin cells of nearly concurrent lines and drops rounding residue.
FACE_AREA_REL = 1e-12
# A crossing may lie this far outside either segment's parameter range (and
# a box this far from another's) and still count: ends that touch within
# rounding meet.
CROSS_SLACK = 1e-9
# Segments whose direction cross product is at most this are parallel: they
# share no single crossing, and dividing by it would amplify rounding.
PARALLEL_DET = 1e-13
# A walk turning right by a cross product above this (relative to its
# squared coordinate scale) is not convex.
CONVEX_TURN_TOL = 1e-9
# Perturbation rounds before the lines are declared degenerate; each doubles
# the offset, so the last is 128 times the first.
GENERAL_POSITION_ROUNDS = 8


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

    def contains(self, x: float, y: float, slack: float = 0.0) -> bool:
        return (
            self.xmin - slack <= x <= self.xmax + slack
            and self.ymin - slack <= y <= self.ymax + slack
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
    # per cell: its boundary steps as (p0, p1, None) walls, built on first use
    _walls_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def interior_vertex_ids(self) -> list[int]:
        b = self.clip_box
        out = []
        for i, (x, y) in enumerate(self.verts):
            on_frame = (
                abs(x - b.xmin) <= SNAP
                or abs(x - b.xmax) <= SNAP
                or abs(y - b.ymin) <= SNAP
                or abs(y - b.ymax) <= SNAP
            )
            if not on_frame:
                out.append(i)
        return out

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

    def cell_boundary_steps(self, cell_id: int) -> list[tuple[Point, Point]]:
        """Every boundary walk step, antenna edges included twice (for parity)."""
        cell = self.cells[cell_id]
        steps: list[tuple[Point, Point]] = []
        chains = [cell.outer] + [walk for walk, _tags in cell.holes]
        for walk in chains:
            m = len(walk)
            for k in range(m):
                pu = self.verts[walk[k]]
                pv = self.verts[walk[(k + 1) % m]]
                steps.append((Point(pu[0], pu[1]), Point(pv[0], pv[1])))
        return steps

    def cell_interior_point(self, cell_id: int) -> Point:
        """A point strictly inside the cell (scanline midpoint, robust to holes)."""
        poly = self.cell_polygon(cell_id)
        ys = sorted(set(float(v[1]) for v in poly))
        steps = self._step_walls(cell_id)
        for frac in (0.5, 0.37, 0.61, 0.23, 0.79):
            for k in range(len(ys) - 1):
                y = ys[k] + frac * (ys[k + 1] - ys[k])
                xs = _scanline_hits(steps, y)
                if len(xs) >= 2:
                    x = 0.5 * (xs[0] + xs[1])
                    if self.point_in_cell(Point(x, y), cell_id):
                        return Point(x, y)
        raise GeometryError(f"no interior point found for cell {cell_id}")

    def _step_walls(self, cell_id: int) -> list[tuple[Point, Point, None]]:
        walls = self._walls_cache.get(cell_id)
        if walls is None:
            walls = [(a, b, None) for a, b in self.cell_boundary_steps(cell_id)]
            self._walls_cache[cell_id] = walls
        return walls

    def point_in_cell(self, pt: Point, cell_id: int) -> bool:
        """Even-odd test against the cell's boundary steps."""
        return sum(x > pt.x for x in _scanline_hits(self._step_walls(cell_id), pt.y)) % 2 == 1

    def cell_area(self, cell_id: int) -> float:
        cell = self.cells[cell_id]
        walks = [cell.outer] + [walk for walk, _tags in cell.holes]
        return sum(_walk_area(self.verts, walk)[0] for walk in walks)  # holes walk CW


@dataclass
class ConvexSubcell:
    parent_cell: int
    polygon: np.ndarray  # (m, 2) CCW


# ---------------------------------------------------------------------------
# subdivision construction from a soup of tagged walls
# ---------------------------------------------------------------------------

class _VertexPool:
    def __init__(self):
        self.points: list[tuple[float, float]] = []
        self.buckets: dict[tuple[int, int], list[int]] = {}

    def add(self, x: float, y: float) -> int:
        kx, ky = round(x / (SNAP * 4.0)), round(y / (SNAP * 4.0))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self.buckets.get((kx + dx, ky + dy), ()):
                    px, py = self.points[idx]
                    if abs(px - x) <= SNAP and abs(py - y) <= SNAP:
                        return idx
        idx = len(self.points)
        self.points.append((x, y))
        self.buckets.setdefault((kx, ky), []).append(idx)
        return idx


def _walk_area(P, walk: list[int]) -> tuple[float, float]:
    """Signed area of a closed walk over the points P, taken about its first
    vertex, and the sum of the sizes of its terms."""
    ox, oy = P[walk[0]]
    area = size = 0.0
    for a, b in zip(walk[1:], walk[2:]):
        term = (P[a][0] - ox) * (P[b][1] - oy) - (P[b][0] - ox) * (P[a][1] - oy)
        area += term
        size += abs(term)
    return 0.5 * area, 0.5 * size


def _scanline_hits(walls, y: float) -> list[float]:
    xs = []
    for p0, p1, _tag in walls:
        y0, y1 = p0.y, p1.y
        if (y0 > y) == (y1 > y):
            continue
        t = (y - y0) / (y1 - y0)
        xs.append(p0.x + t * (p1.x - p0.x))
    xs.sort()
    return xs


def _point_segment_dist(x: float, y: float, p0: Point, p1: Point) -> float:
    dx, dy = p1.x - p0.x, p1.y - p0.y
    L2 = dx * dx + dy * dy
    if L2 <= 0.0:
        return math.hypot(x - p0.x, y - p0.y)
    t = ((x - p0.x) * dx + (y - p0.y) * dy) / L2
    t = min(max(t, 0.0), 1.0)
    return math.hypot(x - p0.x - t * dx, y - p0.y - t * dy)


def _count_components(n: int, pairs) -> int:
    """Connected components of the graph on vertices 0..n-1 with these edges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(n)})


def _segment_crossings(P0: np.ndarray, P1: np.ndarray, family: np.ndarray):
    """Where segments P0[k]-P1[k] of different families meet, as two sorted
    lists of (i, j, x, y) with i < j: the crossings, and the ends of
    collinear overlaps.

    An x-sweep over the segments sorted by left end pairs each segment with
    the ones of other families that start before it ends and share its
    y-range; `family` holds one label per segment.  A crossing
    lies on segment i, at its parameter clamped to [0, 1].  Parallel segments
    never cross; when a pair lies on one line within the slack, each end of
    either that falls in the other's range is an overlap end of the pair.
    """
    D = P1 - P0
    xmin = np.minimum(P0[:, 0], P1[:, 0])
    xmax = np.maximum(P0[:, 0], P1[:, 0])
    ymin = np.minimum(P0[:, 1], P1[:, 1])
    ymax = np.maximum(P0[:, 1], P1[:, 1])
    order = np.argsort(xmin, kind="stable")
    # sweep position of the first segment that starts past each one's end
    stops = np.searchsorted(xmin[order], xmax[order] + CROSS_SLACK, side="right").tolist()
    out, parallel = [], []
    # a parallel pair may divide by zero; its ok entry is false
    with np.errstate(divide="ignore", invalid="ignore"):
        for pos, k in enumerate(order.tolist()):
            if stops[pos] <= pos + 1:
                continue
            js = order[pos + 1 : stops[pos]]
            js = js[
                (ymin[js] <= ymax[k] + CROSS_SLACK)
                & (ymax[js] >= ymin[k] - CROSS_SLACK)
                & (family[js] != family[k])
            ]
            if js.size == 0:
                continue
            a, b = np.minimum(js, k), np.maximum(js, k)
            det = D[a, 0] * D[b, 1] - D[a, 1] * D[b, 0]
            ex = P0[b, 0] - P0[a, 0]
            ey = P0[b, 1] - P0[a, 1]
            t = (ex * D[b, 1] - ey * D[b, 0]) / det
            u = (ex * D[a, 1] - ey * D[a, 0]) / det
            par = np.abs(det) <= PARALLEL_DET
            if par.any():
                parallel.append((a[par], b[par]))
            ok = ~par & (t >= -CROSS_SLACK) & (t <= 1.0 + CROSS_SLACK)
            ok &= (u >= -CROSS_SLACK) & (u <= 1.0 + CROSS_SLACK)
            a, t = a[ok], np.minimum(np.maximum(t[ok], 0.0), 1.0)
            x = P0[a, 0] + t * D[a, 0]
            y = P0[a, 1] + t * D[a, 1]
            out.extend(zip(a.tolist(), b[ok].tolist(), x.tolist(), y.tolist()))
        overlaps = _overlap_ends(P0, P1, *map(np.concatenate, zip(*parallel))) if parallel else []
    out.sort()
    return out, sorted(set(overlaps))


def _overlap_ends(P0: np.ndarray, P1: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(a, b, x, y) for each end of one segment of a parallel pair that lies
    on the other: off its line by at most CROSS_SLACK times the shorter
    length, at a parameter within CROSS_SLACK of [0, 1]."""
    out = []
    for s, o in ((a, b), (b, a)):
        d = P1[o] - P0[o]
        L2 = (d * d).sum(axis=1)
        # |cross(d, e)| is the end's offset times |d|
        reach2 = CROSS_SLACK**2 * L2 * np.minimum(L2, ((P1[s] - P0[s]) ** 2).sum(axis=1))
        for E in (P0[s], P1[s]):
            e = E - P0[o]
            par = (e * d).sum(axis=1) / L2
            ok = (d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0]) ** 2 <= reach2
            ok &= (par >= -CROSS_SLACK) & (par <= 1.0 + CROSS_SLACK)
            out.extend(zip(a[ok].tolist(), b[ok].tolist(), E[ok, 0].tolist(), E[ok, 1].tolist()))
    return out


def build_subdivision(
    walls: list[tuple[Point, Point, Tag]],
    clip_box: BBox,
    kind: str,
    primitives: list,
) -> Arrangement:
    """Planar subdivision of a tagged wall soup (clip frame must be included).

    A wall is split at its two ends and where `_segment_crossings` says it
    meets another, and nowhere else: the sweep's parameter test is the one
    rule for whether two walls meet.  Overlap ends are wall ends, so each
    shared stretch of two collinear walls becomes one edge.
    """
    pool = _VertexPool()
    on_wall = [[pool.add(p0.x, p0.y), pool.add(p1.x, p1.y)] for p0, p1, _ in walls]
    ends = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _ in walls], dtype=float)
    crossings, overlaps = _segment_crossings(ends[:, :2], ends[:, 2:], np.arange(len(walls)))
    for i, j, x, y in crossings + overlaps:
        vid = pool.add(x, y)
        on_wall[i].append(vid)
        on_wall[j].append(vid)

    P = pool.points
    edge_set: dict[tuple[int, int], Tag] = {}
    for (p0, p1, tag), on_ids in zip(walls, on_wall):
        dx, dy = p1.x - p0.x, p1.y - p0.y
        L2 = dx * dx + dy * dy
        params = sorted(
            (((P[vid][0] - p0.x) * dx + (P[vid][1] - p0.y) * dy) / L2, vid)
            for vid in set(on_ids)
        )
        for (_ta, va), (_tb, vb) in zip(params, params[1:]):
            edge_set.setdefault((min(va, vb), max(va, vb)), tag)

    edges = [(u, v, tag) for (u, v), tag in edge_set.items()]
    cells = _extract_faces(P, edges)
    n_components = _count_components(len(P), ((u, v) for u, v, _tag in edges))
    arr = Arrangement(
        verts=np.array(P, dtype=float),
        edges=edges,
        cells=cells,
        clip_box=clip_box,
        kind=kind,
        primitives=primitives,
        n_components=n_components,
    )
    if not arr.euler_ok():
        raise DegenerateInput(
            f"Euler check failed: V={arr.n_vertices} E={arr.n_edges} "
            f"F={arr.n_faces} C={arr.n_components}"
        )
    return arr


def _extract_faces(P: list[tuple[float, float]], edges: list[tuple[int, int, Tag]]) -> list[Cell]:
    """Trace face cycles with the interior kept on the left of every walk.

    Half-edge 2e runs along edge e from u to v, 2e + 1 back.  Counter-clockwise
    cycles are the cells, largest first; every other cycle is a hole of the
    smallest cell around it, or bounds the unbounded face.
    """
    head = [0] * (2 * len(edges))
    rings: list[list[tuple[float, int]]] = [[] for _ in P]
    for ei, (u, v, _tag) in enumerate(edges):
        (ux, uy), (vx, vy) = P[u], P[v]
        rings[u].append((math.atan2(vy - uy, vx - ux), 2 * ei))
        rings[v].append((math.atan2(uy - vy, ux - vx), 2 * ei + 1))
        head[2 * ei], head[2 * ei + 1] = v, u
    # next(h): at the head of h, the outgoing half one step clockwise from
    # the twin of h
    nxt = [0] * len(head)
    for ring in rings:
        ring.sort()
        for k, (_ang, h) in enumerate(ring):
            nxt[h ^ 1] = ring[k - 1][1]

    seen = [False] * len(head)
    ccw, other = [], []
    for h0 in range(len(head)):
        if seen[h0]:
            continue
        walk = []
        h = h0
        while not seen[h]:
            seen[h] = True
            walk.append(h)
            h = nxt[h]
        vids = [head[h ^ 1] for h in walk]  # origin of each half-edge
        tags = [edges[h >> 1][2] for h in walk]
        area, size = _walk_area(P, vids)
        (ccw if area > FACE_AREA_REL * size else other).append((vids, tags, area))

    ccw.sort(key=lambda c: (-c[2], c[0]))
    cells = [
        Cell(id=i, outer=vids, outer_tags=tags, convex=_is_convex_walk(P, vids))
        for i, (vids, tags, _a) in enumerate(ccw)
    ]
    if not (cells and other):
        return cells
    # every cell's outer-walk steps, stacked once for the even-odd test
    tails = [v for c in cells for v in c.outer]
    heads = [v for c in cells for v in c.outer[1:] + c.outer[:1]]
    owner = np.array([c.id for c in cells for _v in c.outer])
    x0, y0 = np.array([P[v] for v in tails]).T
    x1, y1 = np.array([P[v] for v in heads]).T
    for vids, tags, _a in other:
        px, py = _cycle_probe(P, vids)
        span = (y0 > py) != (y1 > py)
        t = (py - y0[span]) / (y1[span] - y0[span])
        right = x0[span] + t * (x1[span] - x0[span]) > px
        inside = np.flatnonzero(np.bincount(owner[span][right], minlength=len(cells)) % 2)
        if inside.size:
            cell = cells[inside[-1]]  # the smallest: cells run largest first
            cell.holes.append((vids, tags))
            cell.convex = False
    return cells


def _cycle_probe(P, vids: list[int]) -> tuple[float, float]:
    """Midpoint of the walk's first longest step nudged to its left, i.e. into
    the incident face."""
    pairs = zip(vids, vids[1:] + vids[:1])
    steps = [(P[b][0] - P[a][0], P[b][1] - P[a][1], a, b) for a, b in pairs]
    dx, dy, a, b = max(steps, key=lambda s: math.hypot(s[0], s[1]))
    length = math.hypot(dx, dy)
    if length <= 0.0:
        return (float(P[vids[0]][0]), float(P[vids[0]][1]))
    nudge = 1e-7 * length
    return (
        0.5 * (P[a][0] + P[b][0]) - nudge * dy / length,
        0.5 * (P[a][1] + P[b][1]) + nudge * dx / length,
    )


def _is_convex_walk(P: list, vids: list[int]) -> bool:
    m = len(vids)
    if len(set(vids)) != m:
        return False  # repeated vertex: antenna
    scale = max(1.0, max(abs(c) for v in vids for c in P[v]))
    for k in range(m):
        x0, y0 = P[vids[k]]
        x1, y1 = P[vids[(k + 1) % m]]
        x2, y2 = P[vids[(k + 2) % m]]
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        if cross < -CONVEX_TURN_TOL * scale * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# line arrangements
# ---------------------------------------------------------------------------

def _perturbed(line: Line, k: int, magnitude: float) -> Line:
    # deterministic per-index symbolic perturbation: shift the line along its
    # normal, keeping anchors consistent
    off = magnitude * (k + 1)
    return Line(
        Point(line.p.x + line.a * off, line.p.y + line.b * off),
        Point(line.q.x + line.a * off, line.q.y + line.b * off),
    )


def enforce_general_position(lines: list[Line]) -> list[Line]:
    """Perturb duplicate or concurrent lines by deterministic offsets."""
    work = list(lines)
    mag = 10.0 * TOL.eps_geom
    for _attempt in range(GENERAL_POSITION_ROUNDS):
        bad = set()
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if work[i].same_line(work[j]):
                    bad.add(j)
        pts = {}
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                det = work[i].a * work[j].b - work[j].a * work[i].b
                if abs(det) <= TOL.eps_geom:
                    continue
                x = (work[i].c * work[j].b - work[j].c * work[i].b) / det
                y = (work[i].a * work[j].c - work[j].a * work[i].c) / det
                key = (round(x / (4 * TOL.eps_geom)), round(y / (4 * TOL.eps_geom)))
                if key in pts and pts[key] != (i, j):
                    bad.add(j)
                pts[key] = (i, j)
        if not bad:
            return work
        work = [
            _perturbed(ln, i, mag) if i in bad else ln for i, ln in enumerate(work)
        ]
        mag *= 2.0
    raise DegenerateInput("general position not reached after perturbation")


def build_line_arrangement(lines: list[Line], clip_box: BBox | None = None) -> Arrangement:
    """Arrangement of infinite lines clipped to a box.

    The box auto-expands so that every pairwise intersection and every anchor
    point lies strictly inside it.
    """
    lines = enforce_general_position(list(lines))
    anchor_pts = [(ln.p.x, ln.p.y) for ln in lines] + [(ln.q.x, ln.q.y) for ln in lines]
    if not anchor_pts:
        anchor_pts = [(0.0, 0.0)]
    box = bbox_of_points(anchor_pts)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            det = lines[i].a * lines[j].b - lines[j].a * lines[i].b
            if abs(det) <= TOL.eps_geom:
                continue
            x = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det
            y = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det
            box = box.union(BBox(x, y, x, y))
    box = box.expanded(max(1.0, 0.05 * max(box.width, box.height)))
    if clip_box is not None:
        box = box.union(clip_box)

    walls = _frame_walls(box)
    for i, ln in enumerate(lines):
        seg = _line_in_box(ln, box.xmin, box.ymin, box.xmax, box.ymax)
        if seg is not None:
            walls.append((Point(*seg[0]), Point(*seg[1]), ("line", i)))
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

    Raises OnBoundary when the point sits within eps_geom of an edge, and
    GeometryError when it falls outside the clip box.
    """
    for u, v, _tag in arrangement.edges:
        p0 = Point(*arrangement.verts[u])
        p1 = Point(*arrangement.verts[v])
        if _point_segment_dist(point.x, point.y, p0, p1) <= TOL.eps_geom:
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
    Convex cells come back unchanged as a single subcell.
    """
    if cell.convex and not cell.holes:
        return [ConvexSubcell(cell.id, arrangement.cell_polygon(cell.id))]

    walls = arrangement.cell_walls(cell.id)
    rays: list[tuple[Point, Point, Tag]] = []
    stops: dict[int, list[Point]] = {}  # wall index -> the ray ends on it
    V = arrangement.verts.tolist()
    for walk in [cell.outer] + [walk for walk, _tags in cell.holes]:
        for vp, vc, vn in zip(walk[-1:] + walk[:-1], walk, walk[1:] + walk[:1]):
            (px, py), (cx, cy), (nx, ny) = V[vp], V[vc], V[vn]
            a_out = math.atan2(ny - cy, nx - cx)
            inner = (math.atan2(py - cy, px - cx) - a_out) % (2.0 * math.pi)
            if inner < 1e-12:
                inner = 2.0 * math.pi  # the dangling end of an antenna
            if inner <= math.pi + 1e-9:
                continue
            corner = Point(cx, cy)
            candidates = []
            for dx, dy in _AXIS_DIRS:
                rel = (math.atan2(dy, dx) - a_out) % (2.0 * math.pi)
                if 1e-7 < rel < inner - 1e-7:
                    candidates.append((rel, dx, dy))
            candidates.sort()
            for rel, dx, dy in _minimal_splitting(candidates, inner):
                hit = _shoot_ray(corner, dx, dy, walls)
                if hit is None:
                    continue
                rays.append((corner, hit[0], ("ray", len(rays))))
                stops.setdefault(hit[1], []).append(hit[0])

    # a wall is split at each ray end on it, so every ray meets its wall at
    # a shared end however short the ray is
    sub_walls = []
    for wi, (p0, p1, tag) in enumerate(walls):
        chain = [p0]
        for q in sorted(stops.get(wi, ()), key=lambda q: q.dist(p0)):
            if min(q.dist(chain[-1]), q.dist(p1)) > SNAP:
                chain.append(q)
        chain.append(p1)
        sub_walls.extend((a, b, tag) for a, b in zip(chain, chain[1:]))
    local = build_subdivision(
        sub_walls + rays, arrangement.clip_box, arrangement.kind, arrangement.primitives
    )
    out: list[ConvexSubcell] = []
    for sub in local.cells:
        probe = local.cell_interior_point(sub.id)
        if arrangement.point_in_cell(probe, cell.id):
            out.append(ConvexSubcell(cell.id, local.cell_polygon(sub.id)))
    return out


def _minimal_splitting(candidates, inner: float):
    """Fewest sorted ray angles that split the sector into parts <= pi."""
    from itertools import combinations

    tol = 1e-9
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            rels = [0.0] + [c[0] for c in subset] + [inner]
            if all(b - a <= math.pi + tol for a, b in zip(rels, rels[1:])):
                return list(subset)
    return list(candidates)


def _shoot_ray(origin: Point, dx: float, dy: float, walls) -> tuple[Point, int] | None:
    """First wall hit by the ray, as (point, wall index)."""
    best_t, best = math.inf, -1
    for wi, (p0, p1, _tag) in enumerate(walls):
        ex, ey = p1.x - p0.x, p1.y - p0.y
        det = dx * ey - dy * ex
        if abs(det) <= 1e-14:
            continue
        rx, ry = p0.x - origin.x, p0.y - origin.y
        t = (rx * ey - ry * ex) / det
        u = (rx * dy - ry * dx) / det
        if t > 1e-9 and -1e-12 <= u <= 1.0 + 1e-12 and t < best_t:
            best_t, best = t, wi
    if best < 0:
        return None
    return Point(origin.x + best_t * dx, origin.y + best_t * dy), best
