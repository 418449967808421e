"""Static SVG output: input primitives, critical curves colored per vector,
and junction heat grids with darkness proportional to significance."""

from __future__ import annotations

from .geom import _lines_in_box
from .sceneio import Scene, curves_from_result, domain_from_result, fmt

_MARGIN = 0.05  # fraction of the view added around the data
# The margin is taken of at least this extent, so that a view of one point has a scale.
_MIN_EXTENT = 1e-9
_WIDTH = 800.0  # pixels across the view


def _palette(i: int) -> str:
    hue = (i * 47) % 360
    return f"hsl({hue},70%,45%)"


class _View:
    """World -> SVG pixel mapping with the y axis flipped."""

    def __init__(self, xmin, ymin, xmax, ymax):
        pad = _MARGIN * max(xmax - xmin, ymax - ymin, _MIN_EXTENT)
        self.xmin, self.ymin = xmin - pad, ymin - pad
        self.xmax, self.ymax = xmax + pad, ymax + pad
        self.scale = _WIDTH / (self.xmax - self.xmin)
        self.h = (self.ymax - self.ymin) * self.scale

    def px(self, x: float) -> str:
        return fmt((x - self.xmin) * self.scale)

    def py(self, y: float) -> str:
        return fmt((self.ymax - y) * self.scale)

    def pt(self, x: float, y: float) -> str:
        return f"{self.px(x)},{self.py(y)}"


def _polyline_el(view, pts, color, width, opacity=1.0) -> str:
    joined = " ".join(view.pt(x, y) for x, y in pts)
    return (
        f'<polyline points="{joined}" fill="none" stroke="{color}" '
        f'stroke-width="{fmt(width)}" stroke-opacity="{fmt(opacity)}"/>'
    )


def render_svg(result: dict, scene: Scene | None = None) -> str:
    """Layered SVG for a result document, optionally over its input scene."""
    if result.get("type") == "junctions":
        xmin, ymin, xmax, ymax = result["bbox"]
    else:
        b = domain_from_result(result)
        xmin, ymin, xmax, ymax = b.xmin, b.ymin, b.xmax, b.ymax
    view = _View(xmin, ymin, xmax, ymax)

    body: list[str] = []
    body.append('<g id="frame">')
    body.append(
        f'<rect x="0" y="0" width="{fmt(_WIDTH)}" height="{fmt(view.h)}" '
        'fill="white" stroke="#444" stroke-width="1"/>'
    )
    if xmin < 0 < xmax:
        body.append(_polyline_el(view, [(0, ymin), (0, ymax)], "#bbb", 0.8))
    if ymin < 0 < ymax:
        body.append(_polyline_el(view, [(xmin, 0), (xmax, 0)], "#bbb", 0.8))
    body.append("</g>")

    if result.get("type") == "junctions":
        body.append(_junction_layer(view, result))

    if scene is not None:
        body.append('<g id="primitives">')
        hit, ends = _lines_in_box(scene.lines, view)
        for x0, y0, x1, y1 in ends[hit].tolist():
            body.append(_polyline_el(view, [(x0, y0), (x1, y1)], "#222", 1.2))
        for s in scene.segments:
            body.append(_polyline_el(view, [(s.p.x, s.p.y), (s.q.x, s.q.y)], "#222", 1.2))
        for t in scene.trajectories:
            body.append(
                _polyline_el(view, [(v.x, v.y) for v in t.vertices], "#3566a8", 1.2)
            )
        body.append("</g>")

    if result.get("type") == "critical":
        body.append(_curves_layer(view, result))

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(_WIDTH)}" height="{fmt(view.h)}" '
        f'viewBox="0 0 {fmt(_WIDTH)} {fmt(view.h)}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _curves_layer(view, result: dict) -> str:
    gap, contact = curves_from_result(result)
    out = ['<g id="curves">']
    vec_index: dict[str, int] = {}
    for curve in gap:
        key = f"{curve.vector.kind}:{curve.vector.s}" if curve.vector else "none"
        if key not in vec_index:
            vec_index[key] = len(vec_index)
        color = _palette(vec_index[key])
        for piece in curve.pieces:
            pts = piece.sample(2 if piece.kind == "seg" else 32)
            out.append(_polyline_el(view, [(x, y) for x, y in pts], color, 1.4))
    for curve in contact:
        for piece in curve.pieces:
            pts = piece.sample(2)
            out.append(
                _polyline_el(view, [(x, y) for x, y in pts], "#999", 0.8, opacity=0.7)
            )
    out.append("</g>")
    return "\n".join(out)


def _junction_layer(view, result: dict) -> str:
    sig = result["significance"]
    spacing = result["spacing"]
    xmin, ymin = result["bbox"][0], result["bbox"][1]
    peak = max((v for row in sig for v in row), default=0.0)
    out = ['<g id="junctions">']
    for row in range(result["ny"]):
        for col in range(result["nx"]):
            v = sig[row][col]
            if v <= 0.0 or peak <= 0.0:
                continue
            x = xmin + col * spacing
            y = ymin + row * spacing
            out.append(
                f'<rect x="{view.px(x - spacing / 2)}" y="{view.py(y + spacing / 2)}" '
                f'width="{fmt(spacing * view.scale)}" height="{fmt(spacing * view.scale)}" '
                f'fill="#8b1a1a" fill-opacity="{fmt(v / peak)}"/>'
            )
    for item in result.get("top", []):
        out.append(
            f'<circle cx="{view.px(item["x"])}" cy="{view.py(item["y"])}" r="5" '
            'fill="none" stroke="#000" stroke-width="1.5"/>'
        )
    out.append("</g>")
    return "\n".join(out)

