"""Static SVG output: input primitives, critical curves colored per vector,
and junction heat grids with darkness proportional to significance."""

from __future__ import annotations

from .arrangement import bbox_of_points
from .geom import _line_in_box
from .sceneio import Scene, curves_from_result, domain_from_result, fmt

_MARGIN = 0.05  # fraction of the view added around the data


def _palette(i: int) -> str:
    hue = (i * 47) % 360
    return f"hsl({hue},70%,45%)"


class _View:
    """World -> SVG pixel mapping with the y axis flipped."""

    def __init__(self, xmin, ymin, xmax, ymax, width=800.0):
        pad = _MARGIN * max(xmax - xmin, ymax - ymin, 1e-9)
        self.xmin, self.ymin = xmin - pad, ymin - pad
        self.xmax, self.ymax = xmax + pad, ymax + pad
        self.scale = width / (self.xmax - self.xmin)
        self.w = width
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


def render_svg(result: dict | None, scene: Scene | None = None) -> str:
    """Layered SVG for a result document, optionally over its input scene."""
    if result is not None and result.get("type") == "junctions":
        xmin, ymin, xmax, ymax = result["bbox"]
    elif result is not None:
        b = domain_from_result(result)
        xmin, ymin, xmax, ymax = b.xmin, b.ymin, b.xmax, b.ymax
    elif scene is not None:
        pts = [
            (p.x, p.y)
            for t in scene.trajectories
            for p in t.vertices
        ] + [
            (q.x, q.y)
            for s in (scene.lines + scene.segments)
            for q in (s.p, s.q)
        ]
        if not pts:
            pts = [(0.0, 0.0), (1.0, 1.0)]
        b = bbox_of_points(pts)
        xmin, ymin, xmax, ymax = b.xmin, b.ymin, b.xmax, b.ymax
    else:
        xmin, ymin, xmax, ymax = 0.0, 0.0, 1.0, 1.0
    view = _View(xmin, ymin, xmax, ymax)

    body: list[str] = []
    body.append('<g id="frame">')
    body.append(
        f'<rect x="0" y="0" width="{fmt(view.w)}" height="{fmt(view.h)}" '
        'fill="white" stroke="#444" stroke-width="1"/>'
    )
    if xmin < 0 < xmax:
        body.append(_polyline_el(view, [(0, ymin), (0, ymax)], "#bbb", 0.8))
    if ymin < 0 < ymax:
        body.append(_polyline_el(view, [(xmin, 0), (xmax, 0)], "#bbb", 0.8))
    body.append("</g>")

    if result is not None and result.get("type") == "junctions":
        body.append(_junction_layer(view, result))

    if scene is not None:
        body.append('<g id="primitives">')
        for ln in scene.lines:
            seg = _line_in_box(ln, view.xmin, view.ymin, view.xmax, view.ymax)
            if seg:
                body.append(_polyline_el(view, seg, "#222", 1.2))
        for s in scene.segments:
            body.append(_polyline_el(view, [(s.p.x, s.p.y), (s.q.x, s.q.y)], "#222", 1.2))
        for t in scene.trajectories:
            body.append(
                _polyline_el(view, [(v.x, v.y) for v in t.vertices], "#3566a8", 1.2)
            )
        body.append("</g>")

    if result is not None and result.get("type") == "critical":
        body.append(_curves_layer(view, result))

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(view.w)}" height="{fmt(view.h)}" '
        f'viewBox="0 0 {fmt(view.w)} {fmt(view.h)}">\n'
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

