"""Worst-case complexity scaling of the placement space.
========================================================

The tilted near-grid forces quadratically many curve crossings: doubling the
line count at fixed granularity roughly quadruples the overlay size k.

Shrinking eps adds side vectors, about 1/eps on each side of the square.
Every term of k but one grows only like n^2/eps: the corner pieces (the same
at every eps), the side pieces and their crossings with corner curves. The
n^2/eps^2 term is carried by the crossings of top/bottom side curves with
left/right side curves (column "side x"). At coarse eps the other terms
dominate k, so over these sizes k grows more slowly than 1/eps^2 while the
side-window crossings show the quadratic growth.
"""

import time

import numpy as np

from critplace.generators import lower_bound_lines
from critplace.placement import build_placement_arrangement, pair_intersections


def complexity(n: int, eps: float) -> tuple[int, int, float]:
    t0 = time.perf_counter()
    lines = lower_bound_lines(n, eps)
    pa = build_placement_arrangement(lines, eps, "square")
    dt = time.perf_counter() - t0
    edge = [c for c in pa.curves if c.vector.kind == "edge"]
    horizontal = [c for c in edge if c.vector.label in ("top", "bottom")]
    vertical = [c for c in edge if c.vector.label in ("left", "right")]
    crossings = pair_intersections(horizontal, vertical)
    return pa.complexity, len(crossings), dt


def slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


print("=" * 64)
print("growing n at eps = 0.25")
print(f"{'n':>4} {'k':>10} {'ratio':>8} {'side x':>8} {'time':>8}")
prev = None
ks_n = []
for n in (8, 16, 32):
    k, w, dt = complexity(n, 0.25)
    ks_n.append(k)
    ratio = f"{k / prev:.2f}" if prev else "-"
    print(f"{n:>4} {k:>10} {ratio:>8} {w:>8} {dt:>7.1f}s")
    prev = k
print(f"log-log exponent of k in n: {slope([8, 16, 32], ks_n):.2f}")

print("=" * 64)
print("shrinking eps at n = 16")
print(f"{'eps':>6} {'k':>10} {'ratio':>8} {'side x':>8} {'ratio':>8} {'time':>8}")
prev = None
ks_e = []
ws_e = []
for eps in (0.5, 0.25, 0.125):
    k, w, dt = complexity(16, eps)
    ratio = f"{k / prev[0]:.2f}" if prev else "-"
    w_ratio = f"{w / prev[1]:.2f}" if prev else "-"
    print(f"{eps:>6} {k:>10} {ratio:>8} {w:>8} {w_ratio:>8} {dt:>7.1f}s")
    ks_e.append(k)
    ws_e.append(w)
    prev = (k, w)
print(f"log-log exponent in 1/eps: k {slope([2, 4, 8], ks_e):.2f}, "
      f"side x {slope([2, 4, 8], ws_e):.2f}")
print("(at eps = 0.5 k is mostly corner and side pieces, which grow like")
print(" n^2/eps; the side-window crossings carry the n^2/eps^2 term)")
