"""Critical placements of a unit square over a few random lines.
===============================================================

Builds the line arrangement, computes every placement of the unit square
where some boundary piece between crossings has length exactly eps, checks
the curves against the definition-level dense scan, and draws the picture.
"""

from pathlib import Path

from critplace.generators import random_lines
from critplace.oracle import dense_scan, verify
from critplace.placement import build_placement_arrangement
from critplace.render import render_svg
from critplace.sceneio import Scene, result_from_placement

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

EPS = 0.4
lines = random_lines(4, seed=7)
print(f"{len(lines)} random lines, granularity eps = {EPS}")

pa = build_placement_arrangement(lines, EPS, "square", include_line_translates=True)
arr = pa.arrangement
print(f"arrangement: {len(arr.cells)} cells, {arr.n_vertices} vertices")
print(
    f"curves: {len(pa.curves)} chains "
    f"(complexity k = {pa.complexity}: V={pa.counts['vertices']} "
    f"E={pa.counts['edges']} F={pa.counts['faces']})"
)

# every point of every curve must be a placement with an eps-long boundary
# piece; conversely every sign change the brute-force scan finds must lie on
# some curve
scan = dense_scan(lines, "square", EPS, pa.domain, EPS / 20)
report = verify(pa, scan, delta=EPS / 10)
print(f"dense scan: {scan.shape[0]} detections, "
      f"missed={len(report.missed_scan_points)} "
      f"unsupported={len(report.unsupported_curve_samples)}")
assert report.empty()

svg = render_svg(result_from_placement(pa), Scene(lines=lines))
(OUT / "square_critical_curves.svg").write_text(svg)
print(f"wrote {OUT / 'square_critical_curves.svg'}")
