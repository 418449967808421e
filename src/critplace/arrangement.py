"""Planar arrangements of lines and line segments, clipped to a box.

The subdivision is stored half-edge style: undirected edges carry the id of
the supporting primitive, faces are traced by walking twin/rotation order at
every vertex.  Walls are split at the crossings `_segment_crossings` finds,
the x-sweep the placement overlay uses for its straight pieces too.
Nonconvex cells of segment arrangements can be partitioned into convex
subcells by shooting axis-parallel rays from reflex vertices.
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
    # per (cell, eps): the cell's trimmed circle ring pieces, built on first use
    _ring_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def point_in_cell(self, pt: Point, cell_id: int, slack: float = 0.0) -> bool:
        return _point_in_walls(self._step_walls(cell_id), pt.x, pt.y, slack=slack)

    def cell_area(self, cell_id: int) -> float:
        cell = self.cells[cell_id]
        area = _cycle_area(self.verts, cell.outer)
        for walk, _tags in cell.holes:
            area += _cycle_area(self.verts, walk)  # holes walk CW, negative
        return area


@dataclass
class ConvexSubcell:
    parent_cell: int
    polygon: np.ndarray  # (m, 2) CCW


# ---------------------------------------------------------------------------
# subdivision construction from a soup of tagged walls
# ---------------------------------------------------------------------------

def _snap_key(x: float, y: float, grid: float) -> tuple[int, int]:
    return (int(round(x / grid)), int(round(y / grid)))


class _VertexPool:
    def __init__(self):
        self.points: list[tuple[float, float]] = []
        self.buckets: dict[tuple[int, int], list[int]] = {}

    def add(self, x: float, y: float) -> int:
        kx, ky = _snap_key(x, y, SNAP * 4.0)
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


def _cycle_area(verts: np.ndarray, walk: list[int]) -> float:
    area = 0.0
    m = len(walk)
    for k in range(m):
        x0, y0 = verts[walk[k]]
        x1, y1 = verts[walk[(k + 1) % m]]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


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


def _point_in_walls(walls, x: float, y: float, slack: float = 0.0) -> bool:
    """Even-odd test; points within slack of a wall count as inside."""
    if slack > 0.0:
        for p0, p1, _tag in walls:
            if _point_segment_dist(x, y, p0, p1) <= slack:
                return True
    crossings = 0
    for p0, p1, _tag in walls:
        y0, y1 = p0.y, p1.y
        if (y0 > y) == (y1 > y):
            continue
        t = (y - y0) / (y1 - y0)
        if p0.x + t * (p1.x - p0.x) > x:
            crossings += 1
    return crossings % 2 == 1


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


def _segment_crossings(P0: np.ndarray, P1: np.ndarray) -> list[tuple[int, int, float, float]]:
    """Every pair of segments P0[k]-P1[k] that cross or touch, as (i, j, x, y)
    with i < j, sorted by (i, j).

    An x-sweep over the segments sorted by left end pairs each segment with
    the ones that start before it ends and share its y-range.  The point lies
    on segment i, at its parameter clamped to [0, 1].  Parallel segments,
    collinear overlaps included, never cross.
    """
    D = P1 - P0
    xmin = np.minimum(P0[:, 0], P1[:, 0])
    xmax = np.maximum(P0[:, 0], P1[:, 0])
    ymin = np.minimum(P0[:, 1], P1[:, 1])
    ymax = np.maximum(P0[:, 1], P1[:, 1])
    order = np.argsort(xmin, kind="stable")
    # sweep position of the first segment that starts past each one's end
    stops = np.searchsorted(xmin[order], xmax[order] + CROSS_SLACK, side="right").tolist()
    out = []
    # a parallel pair may divide by zero; its ok entry is false
    with np.errstate(divide="ignore", invalid="ignore"):
        for pos, k in enumerate(order.tolist()):
            if stops[pos] <= pos + 1:
                continue
            js = order[pos + 1 : stops[pos]]
            js = js[(ymin[js] <= ymax[k] + CROSS_SLACK) & (ymax[js] >= ymin[k] - CROSS_SLACK)]
            if js.size == 0:
                continue
            a, b = np.minimum(js, k), np.maximum(js, k)
            det = D[a, 0] * D[b, 1] - D[a, 1] * D[b, 0]
            ex = P0[b, 0] - P0[a, 0]
            ey = P0[b, 1] - P0[a, 1]
            t = (ex * D[b, 1] - ey * D[b, 0]) / det
            u = (ex * D[a, 1] - ey * D[a, 0]) / det
            ok = np.abs(det) > PARALLEL_DET
            ok &= (t >= -CROSS_SLACK) & (t <= 1.0 + CROSS_SLACK)
            ok &= (u >= -CROSS_SLACK) & (u <= 1.0 + CROSS_SLACK)
            a, t = a[ok], np.minimum(np.maximum(t[ok], 0.0), 1.0)
            x = P0[a, 0] + t * D[a, 0]
            y = P0[a, 1] + t * D[a, 1]
            out.extend(zip(a.tolist(), b[ok].tolist(), x.tolist(), y.tolist()))
    out.sort()
    return out


def build_subdivision(
    walls: list[tuple[Point, Point, Tag]],
    clip_box: BBox,
    kind: str,
    primitives: list,
) -> Arrangement:
    """Planar subdivision of a tagged wall soup (clip frame must be included)."""
    pool = _VertexPool()
    wall_pts = [(pool.add(p0.x, p0.y), pool.add(p1.x, p1.y)) for p0, p1, _ in walls]

    ends = np.array([(p0.x, p0.y, p1.x, p1.y) for p0, p1, _ in walls], dtype=float)
    extra: dict[int, list[int]] = {i: [] for i in range(len(walls))}
    for i, j, x, y in _segment_crossings(ends[:, :2], ends[:, 2:]):
        vid = pool.add(x, y)
        extra[i].append(vid)
        extra[j].append(vid)

    pts = np.array(pool.points, dtype=float)

    # split walls at every pool vertex lying on them
    edge_set: dict[tuple[int, int], Tag] = {}
    for i, (p0, p1, tag) in enumerate(walls):
        u, v = wall_pts[i]
        dx, dy = p1.x - p0.x, p1.y - p0.y
        L2 = dx * dx + dy * dy
        on_ids = {u, v} | set(extra[i])
        # T-junctions: vertices created by other walls that land on this one
        for vid in range(len(pts)):
            if vid in on_ids:
                continue
            x, y = pts[vid]
            if _point_segment_dist(x, y, p0, p1) <= 2.0 * SNAP:
                on_ids.add(vid)
        params = sorted(
            (((pts[vid][0] - p0.x) * dx + (pts[vid][1] - p0.y) * dy) / L2, vid)
            for vid in on_ids
        )
        for (ta, va), (tb, vb) in zip(params, params[1:]):
            if va == vb:
                continue
            key = (min(va, vb), max(va, vb))
            edge_set.setdefault(key, tag)

    edges = [(u, v, tag) for (u, v), tag in edge_set.items()]
    cells = _extract_faces(pts, edges)
    n_components = _count_components(len(pts), ((u, v) for u, v, _tag in edges))
    arr = Arrangement(
        verts=pts,
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


def _extract_faces(pts: np.ndarray, edges: list[tuple[int, int, Tag]]):
    """Trace face cycles with the interior kept on the left of every walk."""
    # half-edge h = (edge index, direction); outgoing lists per vertex
    out_at: dict[int, list[tuple[float, int]]] = {}
    half_target = {}
    half_tag = {}
    for ei, (u, v, tag) in enumerate(edges):
        for h, (a, b) in ((2 * ei, (u, v)), (2 * ei + 1, (v, u))):
            ang = math.atan2(pts[b][1] - pts[a][1], pts[b][0] - pts[a][0])
            out_at.setdefault(a, []).append((ang, h))
            half_target[h] = b
            half_tag[h] = tag
    for a in out_at:
        out_at[a].sort()

    # next(h): at the head of h, take the outgoing half one step clockwise
    # from the twin of h
    nxt = {}
    for h, b in half_target.items():
        twin = h ^ 1
        ring = out_at[b]
        pos = next(k for k, (_, hh) in enumerate(ring) if hh == twin)
        nxt[h] = ring[(pos - 1) % len(ring)][1]

    seen = set()
    cycles = []
    for h0 in half_target:
        if h0 in seen:
            continue
        walk = []
        h = h0
        while h not in seen:
            seen.add(h)
            walk.append(h)
            h = nxt[h]
        cycles.append(walk)

    cyc_info = []
    for walk in cycles:
        vids = [half_target[h ^ 1] for h in walk]  # origin of each half-edge
        tags = [half_tag[h] for h in walk]
        area = _cycle_area(pts, vids)
        cyc_info.append((vids, tags, area))

    pos_cycles = [c for c in cyc_info if c[2] > 1e-15]
    neg_cycles = [c for c in cyc_info if c[2] <= 1e-15]

    cells = [
        Cell(id=i, outer=vids, outer_tags=tags, convex=_is_convex_walk(pts, vids))
        for i, (vids, tags, _a) in enumerate(
            sorted(pos_cycles, key=lambda c: (-c[2], c[0]))
        )
    ]

    # attach every negative / flat cycle to the smallest positive cycle
    # containing it; unassigned cycles bound the unbounded outer face
    order = sorted(range(len(cells)), key=lambda i: _cycle_area(pts, cells[i].outer))
    for vids, tags, _a in neg_cycles:
        px, py = _cycle_probe(pts, vids)
        target = None
        for ci in order:
            walls = [
                (
                    Point(*pts[cells[ci].outer[k]]),
                    Point(*pts[cells[ci].outer[(k + 1) % len(cells[ci].outer)]]),
                    None,
                )
                for k in range(len(cells[ci].outer))
            ]
            if _point_in_walls(walls, px, py):
                target = ci
                break
        if target is not None:
            cells[target].holes.append((vids, tags))
            cells[target].convex = False
    return cells


def _cycle_probe(pts: np.ndarray, vids: list[int]) -> tuple[float, float]:
    """Edge midpoint nudged to the walk's left, i.e. into the incident face."""
    best = None
    for k in range(len(vids)):
        a, b = vids[k], vids[(k + 1) % len(vids)]
        dx = pts[b][0] - pts[a][0]
        dy = pts[b][1] - pts[a][1]
        length = math.hypot(dx, dy)
        if best is None or length > best[0]:
            best = (length, a, b, dx, dy)
    length, a, b, dx, dy = best
    if length <= 0.0:
        return (float(pts[vids[0]][0]), float(pts[vids[0]][1]))
    nudge = 1e-7 * length
    return (
        0.5 * (pts[a][0] + pts[b][0]) - nudge * dy / length,
        0.5 * (pts[a][1] + pts[b][1]) + nudge * dx / length,
    )


def _is_convex_walk(pts: np.ndarray, vids: list[int]) -> bool:
    m = len(vids)
    if len(set(vids)) != m:
        return False  # repeated vertex: antenna
    scale = max(1.0, float(np.abs(pts[vids]).max()))
    for k in range(m):
        x0, y0 = pts[vids[k]]
        x1, y1 = pts[vids[(k + 1) % m]]
        x2, y2 = pts[vids[(k + 2) % m]]
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
    first boundary hit.  Convex cells come back unchanged as a single
    subcell.
    """
    if cell.convex and not cell.holes:
        return [ConvexSubcell(cell.id, arrangement.cell_polygon(cell.id))]

    walls = arrangement.cell_walls(cell.id)
    rays: list[tuple[Point, Point, Tag]] = []
    k = 0
    for corner, d_out, d_in_rev in _boundary_corners(arrangement, cell):
        inner = _interior_angle(d_out, d_in_rev)
        if inner <= math.pi + 1e-9:
            continue
        a_out = math.atan2(d_out[1], d_out[0])
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
            rays.append((corner, hit, ("ray", k)))
            k += 1

    sub_walls = walls + rays
    local = build_subdivision(
        sub_walls, arrangement.clip_box, arrangement.kind, arrangement.primitives
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


def _boundary_corners(arrangement: Arrangement, cell: Cell):
    """Yield (corner point, outgoing dir, reversed incoming dir) on all walks."""
    chains = [cell.outer] + [walk for walk, _tags in cell.holes]
    for walk in chains:
        m = len(walk)
        for i in range(m):
            vp = arrangement.verts[walk[(i - 1) % m]]
            vc = arrangement.verts[walk[i]]
            vn = arrangement.verts[walk[(i + 1) % m]]
            d_out = (float(vn[0] - vc[0]), float(vn[1] - vc[1]))
            d_in_rev = (float(vp[0] - vc[0]), float(vp[1] - vc[1]))
            yield Point(float(vc[0]), float(vc[1])), d_out, d_in_rev


def _interior_angle(d_out: tuple[float, float], d_in_rev: tuple[float, float]) -> float:
    a_out = math.atan2(d_out[1], d_out[0])
    a_in = math.atan2(d_in_rev[1], d_in_rev[0])
    ang = (a_in - a_out) % (2.0 * math.pi)
    return 2.0 * math.pi if ang < 1e-12 else ang


def _shoot_ray(origin: Point, dx: float, dy: float, walls) -> Point | None:
    best_t = math.inf
    for p0, p1, _tag in walls:
        ex, ey = p1.x - p0.x, p1.y - p0.y
        det = dx * ey - dy * ex
        if abs(det) <= 1e-14:
            continue
        rx, ry = p0.x - origin.x, p0.y - origin.y
        t = (rx * ey - ry * ex) / det
        u = (rx * dy - ry * dx) / det
        if t > 1e-9 and -1e-12 <= u <= 1.0 + 1e-12:
            best_t = min(best_t, t)
    if not math.isfinite(best_t):
        return None
    return Point(origin.x + best_t * dx, origin.y + best_t * dy)
