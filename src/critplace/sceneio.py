"""Scene and result files.

Scenes are plain text: `L x1 y1 x2 y2` for an infinite line through two
points, `S x1 y1 x2 y2` for a segment, and `T <id>` followed by indented
`x y` rows for a trajectory polyline; `#` starts a comment.  Results are
JSON-shaped documents with a schema version; floats are emitted with 12
significant digits so identical runs produce byte-identical files.

`emit_result` writes a document as `json.dumps(doc, sort_keys=True,
indent=1)` does, byte for byte, without going through json: any indent
sends json to its pure-Python encoder.  Its own writer sorts the keys,
indents one space a level, writes floats by `float.__repr__` (NaN and
Infinity as json does) and strings by json's ASCII escaper, and joins a
list of floats in one step; any other type, or a key that is not a
string, is a TypeError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

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


def _rounded_grid(values: np.ndarray) -> list:
    """`values` as nested lists of `_f` floats, each distinct value rounded
    once; values are told apart by their bits, so -0.0 stays -0.0."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    rounded = np.array([_f(v) for v in bits.view(float).tolist()], dtype=object)
    return rounded[at].reshape(values.shape).tolist()


def result_from_junctions(grid, top, eps: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "junctions",
        "eps": _f(eps),
        "spacing": _f(grid.spacing),
        "bbox": [_f(grid.bbox.xmin), _f(grid.bbox.ymin), _f(grid.bbox.xmax), _f(grid.bbox.ymax)],
        "nx": grid.nx,
        "ny": grid.ny,
        "significance": _rounded_grid(grid.significance),
        "kinds": grid.kind.tolist(),
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


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write(value, pad: str, out: list) -> None:
    """Append the JSON text of `value`, nested at indent `pad`, to `out`."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = pad + " "
        for i, key in enumerate(sorted(value)):
            out.append(("{\n" if i == 0 else ",\n") + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
        out.append("\n" + pad + "}")
    else:
        inner = pad + " "
        try:  # a list of floats, in one join
            text = (",\n" + inner).join(map(float.__repr__, value))
        except TypeError:  # it holds something else
            text = None
        if text is not None and "n" not in text:  # nan and inf go one by one
            out.append("[\n" + inner + text + "\n" + pad + "]")
            return
        for i, item in enumerate(value):
            out.append(("[\n" if i == 0 else ",\n") + inner)
            _write(item, inner, out)
        out.append("\n" + pad + "]")


def emit_result(doc: dict) -> str:
    out: list[str] = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


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
