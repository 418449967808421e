"""Output checks computed apart from the program.

Nothing here imports `critplace`: shape-boundary crossings, perimeter
coordinates and piece lengths are worked out again from the primitives the
benchmark generated.  Result documents are read as plain JSON.

A primitive is a tuple `(kind, x1, y1, x2, y2)` with kind `"L"` for an
infinite line through two points or `"S"` for a segment.  Every check returns
a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math
import re

SOUND_TOL = 1e-6  # allowed error on the length of the eps-long boundary piece
_DEDUPE = 1e-12  # crossings closer than this along the perimeter are one
_CORNERS = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))  # CCW from bottom-left


# ---------------------------------------------------------------------------
# shape boundary: perimeter coordinate u, counter-clockwise
# ---------------------------------------------------------------------------

def _square_u(lx: float, ly: float) -> float:
    """Perimeter coordinate of a point on the unit square, relative to its
    center: side k runs from corner k to corner k+1, one unit per side."""
    d = [abs(ly + 0.5), abs(lx - 0.5), abs(ly - 0.5), abs(lx + 0.5)]
    side = d.index(min(d))
    along = (lx + 0.5, ly + 0.5, 0.5 - lx, 0.5 - ly)[side]
    return (side + min(max(along, 0.0), 1.0)) % 4.0


def _cross_params(px, py, dx, dy, ax, ay, bx, by):
    """(t along p + t*d, s along a->b) of the crossing, or None if parallel."""
    ex, ey = bx - ax, by - ay
    det = dx * ey - dy * ex
    if abs(det) <= 1e-15:
        return None
    wx, wy = ax - px, ay - py
    t = (wx * ey - wy * ex) / det
    s = (wx * dy - wy * dx) / det
    return t, s


def _square_crossings(cx: float, cy: float, prims) -> list[float]:
    out = []
    for kind, x1, y1, x2, y2 in prims:
        dx, dy = x2 - x1, y2 - y1
        for k in range(4):
            ax, ay = _CORNERS[k]
            bx, by = _CORNERS[(k + 1) % 4]
            hit = _cross_params(x1, y1, dx, dy, cx + ax, cy + ay, cx + bx, cy + by)
            if hit is None:
                continue
            t, s = hit
            if not (0.0 <= s <= 1.0):
                continue
            if kind == "S" and not (0.0 < t < 1.0):
                continue
            out.append((k + s) % 4.0)
    return out


def _circle_crossings(cx: float, cy: float, prims) -> list[float]:
    out = []
    for kind, x1, y1, x2, y2 in prims:
        dx, dy = x2 - x1, y2 - y1
        fx, fy = x1 - cx, y1 - cy
        a = dx * dx + dy * dy
        b = 2.0 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - 1.0
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            continue
        root = math.sqrt(disc)
        for t in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
            if kind == "S" and not (0.0 < t < 1.0):
                continue
            out.append(math.atan2(fy + t * dy, fx + t * dx) % (2.0 * math.pi))
    return out


def piece_length_at(shape: str, cx: float, cy: float, fx: float, fy: float, prims) -> float:
    """Length of the boundary piece between crossings that holds the boundary
    point at offset (fx, fy) from the center (cx, cy)."""
    if shape == "square":
        perimeter = 4.0
        us = _square_crossings(cx, cy, prims)
        u = _square_u(fx, fy)
    else:
        perimeter = 2.0 * math.pi
        us = _circle_crossings(cx, cy, prims)
        u = math.atan2(fy, fx) % perimeter
    us.sort()
    uniq = [v for i, v in enumerate(us) if i == 0 or v - us[i - 1] > _DEDUPE]
    if len(uniq) > 1 and uniq[0] + perimeter - uniq[-1] <= _DEDUPE:
        uniq.pop()
    if len(uniq) < 2:
        return perimeter
    # the piece starts at the last crossing at or before u, cyclically
    before = [v for v in uniq if v <= u]
    start = before[-1] if before else uniq[-1]
    i = uniq.index(start)
    end = uniq[(i + 1) % len(uniq)]
    return (end - start) % perimeter


# ---------------------------------------------------------------------------
# soundness of gap curves
# ---------------------------------------------------------------------------

def piece_point(piece: dict, t: float) -> tuple[float, float]:
    if piece["kind"] == "seg":
        (x0, y0), (x1, y1) = piece["p0"], piece["p1"]
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0)
    psi = piece["psi"][0] + t * (piece["psi"][1] - piece["psi"][0])
    (ox, oy), (ax, ay), (bx, by) = piece["center"], piece["vec_a"], piece["vec_b"]
    sa, ca = math.sin(psi), math.cos(psi)
    return ox + sa * ax + ca * bx, oy + sa * ay + ca * by


def soundness(doc: dict, prims, rng, samples: int) -> tuple[int, list[str]]:
    """Sample interior points of gap curves; at each, the boundary piece that
    holds the curve's fixed point must be eps long.  Returns (points checked,
    problems)."""
    curves = [c for c in doc["curves"] if c.get("vector") and c["pieces"]]
    if not curves:
        return 0, ["result has no gap curves"]
    shape, eps = doc["shape"], doc["eps"]
    problems = []
    for _ in range(samples):
        curve = curves[int(rng.integers(len(curves)))]
        piece = curve["pieces"][int(rng.integers(len(curve["pieces"])))]
        x, y = piece_point(piece, float(rng.uniform(0.1, 0.9)))
        vec = curve["vector"]
        length = piece_length_at(shape, x, y, vec["dx"], vec["dy"], prims)
        if abs(length - eps) > SOUND_TOL:
            problems.append(
                f"soundness: ({x:.9g}, {y:.9g}) on a {vec['label']} curve of cell "
                f"{curve['cell']}: piece length {length:.9g}, eps {eps}"
            )
    return samples, problems


# ---------------------------------------------------------------------------
# oracle verdicts, junctions
# ---------------------------------------------------------------------------

_VERDICT = re.compile(r"scan points: (\d+), missed: (\d+), unsupported samples: (\d+)")


def oracle_verdict(code: int, text: str) -> list[str]:
    """`oracle-check` must exit 0 after a non-empty scan with nothing missed
    and nothing unsupported."""
    m = _VERDICT.search(text)
    if m is None:
        return [f"oracle: no verdict line (exit {code})"]
    scanned, missed, unsupported = (int(g) for g in m.groups())
    problems = []
    if code != 0:
        problems.append(f"oracle: exit code {code}")
    if scanned == 0:
        problems.append("oracle: the dense scan found no critical placements")
    if missed or unsupported:
        problems.append(f"oracle: {missed} missed scan points, {unsupported} unsupported samples")
    return problems


def junction_lattice(grid, top, planted, spacing: float) -> list[str]:
    """`planted` lists (x, y, arms) bundle centers.

    The top-k list must be complete, with exactly one representative within
    one spacing of each center along both axes: among equally significant
    cells `top_k` picks the lowest row, then column, which can be a diagonal
    neighbour of the center.  The grid cell at each center must be
    junction-like with one cluster per arm, of kind `crossing` for an even
    arm count and `realJunction` for an odd one; the grid box must put every
    center on a grid point.
    """
    problems = []
    if not top.complete:
        problems.append(f"junctions: top-k incomplete ({len(top.items)} of {top.requested})")
    box = grid.bbox
    for x, y, arms in planted:
        near = [p for p, _a in top.items if max(abs(p.x - x), abs(p.y - y)) <= spacing + 1e-9]
        if len(near) != 1:
            problems.append(f"junctions: {len(near)} representatives near ({x}, {y})")
        col_f = (x - box.xmin) / spacing
        row_f = (y - box.ymin) / spacing
        col, row = round(col_f), round(row_f)
        if abs(col_f - col) > 1e-9 or abs(row_f - row) > 1e-9 or not (
            0 <= col < grid.nx and 0 <= row < grid.ny
        ):
            problems.append(f"junctions: center ({x}, {y}) is not a grid point")
            continue
        cell = grid.at(row, col)
        want = "crossing" if arms % 2 == 0 else "realJunction"
        if not cell.junction_like or len(cell.clusters) != arms or cell.kind != want:
            problems.append(
                f"junctions: center ({x}, {y}) with {arms} arms reads "
                f"{len(cell.clusters)} clusters, kind {cell.kind}"
            )
    return problems
