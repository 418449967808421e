"""Square placements over line segments.
========================================

Segment arrangements have nonconvex cells (dangling endpoints make the
boundary reflex); axis-parallel rays from those corners split each cell into
convex subcells, after which the same level-set machinery applies.  The demo
decomposes a small scene, computes the curves, and cross-checks the result
against the dense scan.
"""

from pathlib import Path

import numpy as np

from critplace.arrangement import convex_decompose
from critplace.geom import Point, Segment
from critplace.oracle import dense_scan, verify
from critplace.placement import build_placement_arrangement
from critplace.render import render_svg
from critplace.sceneio import Scene, result_from_placement

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

EPS = 0.5
rng = np.random.default_rng(3)
segments = []
while len(segments) < 5:
    p = Point(*rng.uniform(-1.2, 1.2, 2))
    q = Point(*rng.uniform(-1.2, 1.2, 2))
    if p.dist(q) > 0.8:
        segments.append(Segment(p, q))
print(f"{len(segments)} segments, eps = {EPS}")

pa = build_placement_arrangement(segments, EPS, "square", include_line_translates=True)
arr = pa.arrangement
n_sub = 0
for cell in arr.cells:
    subs = convex_decompose(cell, arr)
    n_sub += len(subs)
    tag = "convex" if cell.convex else f"split into {len(subs)} convex subcells"
    print(f"  cell {cell.id}: area {arr.cell_area(cell.id):8.3f}, {tag}")
print(f"{len(arr.cells)} cells -> {n_sub} convex subcells")
print(f"curves: {len(pa.curves)}, contact curves: {len(pa.line_translates)}")

scan = dense_scan(segments, "square", EPS, pa.domain, EPS / 20)
report = verify(pa, scan, delta=EPS / 10)
print(f"dense scan: {scan.shape[0]} detections, "
      f"missed={len(report.missed_scan_points)} "
      f"unsupported={len(report.unsupported_curve_samples)}")
assert report.empty()

svg = render_svg(result_from_placement(pa), Scene(segments=segments))
(OUT / "segment_curves.svg").write_text(svg)
print(f"wrote {OUT / 'segment_curves.svg'}")
