"""The unit circle between two lines traces elliptic arcs.
==========================================================

With two lines y = +-a*x, the center placements keeping an eps-long arc
inside one wedge ride an ellipse with semi-axes |sin(eps/2) - a*cos(eps/2)|/a
and a*sin(eps/2) + cos(eps/2).  The demo recovers both numbers from the
emitted arcs and checks the chord law |uv|^2 = 2 - 2 cos(eps) at samples.
"""

import math
from pathlib import Path

from critplace.geom import CIRCLE, Line, Point
from critplace.oracle import boundary_gaps
from critplace.placement import build_placement_arrangement
from critplace.render import render_svg
from critplace.sceneio import Scene, result_from_placement

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

EPS = 0.5
a = 1.0
lines = [Line(Point(-2, -2 * a), Point(2, 2 * a)), Line(Point(-2, 2 * a), Point(2, -2 * a))]
print(f"lines y = +-{a}x, eps = {EPS}")
print(f"expected semi-axes: {abs(math.sin(EPS/2) - a*math.cos(EPS/2))/a:.6f} "
      f"and {a*math.sin(EPS/2) + math.cos(EPS/2):.6f}")

pa = build_placement_arrangement(lines, EPS, CIRCLE)

axes = set()
worst_chord = 0.0
for curve in pa.curves:
    for piece in curve.pieces:
        if piece.kind != "arc":
            continue
        axes.add((round(math.hypot(*piece.vec_a), 6), round(math.hypot(*piece.vec_b), 6)))
        for x, y in piece.sample(15, inset=0.02):
            prof = boundary_gaps(Point(x, y), lines, CIRCLE)
            for w in prof.components:
                if abs(w.length - EPS) < 1e-6:
                    s0, s1 = w.start, w.start + w.length
                    u = (x + math.cos(s0), y + math.sin(s0))
                    v = (x + math.cos(s1), y + math.sin(s1))
                    chord2 = (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
                    worst_chord = max(worst_chord, abs(chord2 - (2 - 2 * math.cos(EPS))))
print(f"emitted arc semi-axis pairs: {sorted(axes)}")
print(f"worst chord-law error over samples: {worst_chord:.2e}")

svg = render_svg(result_from_placement(pa), Scene(lines=lines))
(OUT / "circle_elliptic_arcs.svg").write_text(svg)
print(f"wrote {OUT / 'circle_elliptic_arcs.svg'}")
