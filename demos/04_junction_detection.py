"""Junction detection on synthetic trajectory bundles.
======================================================

Scatters a few crossing/junction scenes of different sizes over the plane,
scans a placement grid, and reports the most significant junction per blob.
Crossings (all traffic straight through) are told apart from real junctions
(splits and merges).
"""

from pathlib import Path

from critplace.arrangement import BBox
from critplace.generators import cross_trajectories
from critplace.geom import Point, Polyline
from critplace.junctions import grid_scan, top_k
from critplace.render import render_svg
from critplace.sceneio import Scene, result_from_junctions

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

EPS = 0.3
SPACING = 0.2

scenes = [
    (Point(0.0, 0.0), 4, 3),   # busy crossing
    (Point(5.0, 0.0), 3, 3),   # Y junction
    (Point(0.0, 5.0), 5, 2),
    (Point(5.0, 5.0), 4, 1),   # quiet crossing
]
trajectories: list[Polyline] = []
for center, arms, per_arm in scenes:
    for t in cross_trajectories(arms, per_arm, jitter=0.08, seed=arms * 10 + per_arm, center=center):
        trajectories.append(t)
print(f"{len(trajectories)} trajectories in {len(scenes)} scenes")

bbox = BBox(-1.5, -1.5, 6.5, 6.5)
grid = grid_scan(trajectories, EPS, bbox, SPACING)
# the grid holds one (ny, nx) array per field: significance, kind,
# n_clusters and junction_like
n_like = int(grid.junction_like.sum())
n_real = int((grid.kind == "realJunction").sum())
print(f"grid {grid.nx}x{grid.ny}: {n_like} junction-like cells, {n_real} of them real junctions")

top = top_k(grid, len(scenes))
for pt, a in top.items:
    print(
        f"  junction at ({pt.x:+.2f}, {pt.y:+.2f}): {len(a.clusters)} arms, "
        f"{a.kind}, significance {a.significance:.0f}"
    )

svg = render_svg(
    result_from_junctions(grid, top, EPS), Scene(trajectories=trajectories)
)
(OUT / "junction_heatmap.svg").write_text(svg)
print(f"wrote {OUT / 'junction_heatmap.svg'}")
