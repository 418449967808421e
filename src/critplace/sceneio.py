"""Scene and result files.

Scenes are plain text: `L x1 y1 x2 y2` for an infinite line through two
points, `S x1 y1 x2 y2` for a segment, and `T <id>` followed by indented
`x y` rows for a trajectory polyline; `#` starts a comment.  Results are
JSON-shaped documents with a schema version; floats are emitted with 12
significant digits so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .arrangement import BBox
from .geom import Line, Point, Polyline, Segment
from .placement import CriticalCurve, CurvePiece, PlacementArrangement, TranslationVector

SCHEMA_VERSION = 1


class SceneError(ValueError):
    pass


@dataclass
class Scene:
    lines: list[Line] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    trajectories: list[Polyline] = field(default_factory=list)

    def primitives(self) -> list:
        return list(self.lines) + list(self.segments)


def _f(x: float) -> float:
    return float(f"{float(x):.12g}")


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def parse_scene(text: str) -> Scene:
    scene = Scene()
    pending_traj: tuple[str, list[Point]] | None = None

    def flush():
        nonlocal pending_traj
        if pending_traj is not None:
            tid, pts = pending_traj
            if len(pts) < 2:
                raise SceneError(f"trajectory {tid!r} needs at least two vertices")
            scene.trajectories.append(Polyline(tid, tuple(pts)))
            pending_traj = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped[0] in " \t"
        parts = stripped.split()
        if indented:
            if pending_traj is None:
                raise SceneError(f"line {lineno}: vertex row outside a trajectory")
            if len(parts) != 2:
                raise SceneError(f"line {lineno}: expected `x y`")
            pending_traj[1].append(Point(float(parts[0]), float(parts[1])))
            continue
        flush()
        kind = parts[0]
        if kind == "L" or kind == "S":
            if len(parts) != 5:
                raise SceneError(f"line {lineno}: expected `{kind} x1 y1 x2 y2`")
            x1, y1, x2, y2 = map(float, parts[1:])
            if kind == "L":
                scene.lines.append(Line(Point(x1, y1), Point(x2, y2)))
            else:
                scene.segments.append(Segment(Point(x1, y1), Point(x2, y2)))
        elif kind == "T":
            if len(parts) != 2:
                raise SceneError(f"line {lineno}: expected `T <id>`")
            pending_traj = (parts[1], [])
        else:
            raise SceneError(f"line {lineno}: unknown record {kind!r}")
    flush()
    return scene


def emit_scene(scene: Scene) -> str:
    out = []
    for ln in scene.lines:
        out.append(f"L {fmt(ln.p.x)} {fmt(ln.p.y)} {fmt(ln.q.x)} {fmt(ln.q.y)}")
    for s in scene.segments:
        out.append(f"S {fmt(s.p.x)} {fmt(s.p.y)} {fmt(s.q.x)} {fmt(s.q.y)}")
    for t in scene.trajectories:
        out.append(f"T {t.id}")
        for v in t.vertices:
            out.append(f"  {fmt(v.x)} {fmt(v.y)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------

def _piece_doc(piece: CurvePiece) -> dict:
    if piece.kind == "seg":
        return {
            "kind": "seg",
            "p0": [_f(piece.p0[0]), _f(piece.p0[1])],
            "p1": [_f(piece.p1[0]), _f(piece.p1[1])],
        }
    import math

    return {
        "kind": "arc",
        "center": [_f(piece.center[0]), _f(piece.center[1])],
        "vec_a": [_f(piece.vec_a[0]), _f(piece.vec_a[1])],
        "vec_b": [_f(piece.vec_b[0]), _f(piece.vec_b[1])],
        "psi": [_f(piece.psi0), _f(piece.psi1)],
        "semi_axes": [_f(math.hypot(*piece.vec_a)), _f(math.hypot(*piece.vec_b))],
        "axis_angle": _f(math.atan2(piece.vec_a[1], piece.vec_a[0])),
    }


_NUMBER = (int, float)
# the number pairs each piece kind holds, and the fields of a vector
_PIECE_PAIRS = {"seg": ("p0", "p1"), "arc": ("center", "vec_a", "vec_b", "psi")}
_VECTOR_FIELDS = (("dx", _NUMBER), ("dy", _NUMBER), ("kind", str), ("label", str), ("s", _NUMBER))


def _field(doc, key: str, kind):
    """doc[key] when doc is an object whose key holds a value of this type
    (a bool is no number); SceneError otherwise."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SceneError(f"result field {key!r} is missing or mistyped")
    return value


def _numbers(doc, key: str, n: int) -> tuple:
    value = _field(doc, key, list)
    if len(value) != n or any(isinstance(v, bool) or not isinstance(v, _NUMBER) for v in value):
        raise SceneError(f"result field {key!r} must hold {n} numbers")
    return tuple(value)


def _piece_from_doc(doc: dict) -> CurvePiece:
    kind = _field(doc, "kind", str)
    if kind not in _PIECE_PAIRS:
        raise SceneError(f"unknown piece kind {kind!r}")
    pairs = {key: _numbers(doc, key, 2) for key in _PIECE_PAIRS[kind]}
    psi0, psi1 = pairs.pop("psi", (0.0, 0.0))
    return CurvePiece(kind, psi0=psi0, psi1=psi1, **pairs)


def _curve_doc(curve: CriticalCurve) -> dict:
    vec = None
    if curve.vector is not None:
        v = curve.vector
        vec = {
            "kind": v.kind,
            "label": v.label,
            "dx": _f(v.dx),
            "dy": _f(v.dy),
            "s": _f(v.s),
        }
    return {
        "cell": curve.cell_id,
        "vector": vec,
        "curve_kind": curve.kind,
        "convex": bool(curve.convex_flag),
        "pieces": [_piece_doc(p) for p in curve.pieces],
    }


def _curve_from_doc(doc: dict) -> CriticalCurve:
    cell = _field(doc, "cell", int)
    vec = None
    if doc.get("vector"):
        v = _field(doc, "vector", dict)
        vec = TranslationVector(*(_field(v, key, kind) for key, kind in _VECTOR_FIELDS))
    return CriticalCurve(
        cell,
        vec,
        [_piece_from_doc(p) for p in _field(doc, "pieces", list)],
        bool(doc.get("convex", True)),
        doc.get("curve_kind", "gap"),
    )


def result_from_placement(pa: PlacementArrangement) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "critical",
        "shape": pa.shape,
        "eps": _f(pa.eps),
        "domain": [_f(pa.domain.xmin), _f(pa.domain.ymin), _f(pa.domain.xmax), _f(pa.domain.ymax)],
        "counts": {
            "vertices": pa.counts["vertices"],
            "edges": pa.counts["edges"],
            "faces": pa.counts["faces"],
        },
        "complexity": pa.complexity,
        "curves": [_curve_doc(c) for c in pa.curves],
        "line_translates": [_curve_doc(c) for c in pa.line_translates],
        "warnings": [
            f"degenerate cross-section in cell {w.cell_id} ({w.orientation})"
            for w in pa.warnings
        ],
    }


def curves_from_result(doc: dict) -> tuple[list[CriticalCurve], list[CriticalCurve]]:
    gap = [_curve_from_doc(c) for c in _field(doc, "curves", list)]
    contact = [_curve_from_doc(c) for c in _field(doc, "line_translates", list)]
    return gap, contact


def domain_from_result(doc: dict) -> BBox:
    return BBox(*_numbers(doc, "domain", 4))


def result_from_junctions(grid, top, eps: float) -> dict:
    sig_rows = []
    kind_rows = []
    for row in range(grid.ny):
        sig_rows.append([_f(grid.at(row, col).significance) for col in range(grid.nx)])
        kind_rows.append([grid.at(row, col).kind for col in range(grid.nx)])
    return {
        "schema": SCHEMA_VERSION,
        "type": "junctions",
        "eps": _f(eps),
        "spacing": _f(grid.spacing),
        "bbox": [_f(grid.bbox.xmin), _f(grid.bbox.ymin), _f(grid.bbox.xmax), _f(grid.bbox.ymax)],
        "nx": grid.nx,
        "ny": grid.ny,
        "significance": sig_rows,
        "kinds": kind_rows,
        "requested_k": top.requested,
        "complete": bool(top.complete),
        "top": [
            {
                "x": _f(pt.x),
                "y": _f(pt.y),
                "significance": _f(a.significance),
                "kind": a.kind,
                "clusters": len(a.clusters),
            }
            for pt, a in top.items
        ],
    }


def emit_result(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# the keys each result type's readers look up
_RESULT_KEYS = {
    "critical": ("shape", "domain", "counts", "curves", "line_translates"),
    "junctions": ("spacing", "bbox", "nx", "ny", "significance", "top"),
}


def parse_result(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SceneError("a result must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SceneError(f"unsupported result schema {doc.get('schema')!r}")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _RESULT_KEYS:
        raise SceneError(f"unknown result type {kind!r}")
    missing = [key for key in _RESULT_KEYS[kind] if key not in doc]
    if missing:
        raise SceneError(f"{kind} result lacks {', '.join(missing)}")
    return doc
