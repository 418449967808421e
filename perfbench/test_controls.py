"""Negative controls: each of the benchmark's output checks passes on the
program's real output and fails once that output is broken on purpose.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_controls.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402

EPS = 0.25


def _grid(n: int) -> list[tuple]:
    from critplace.generators import lower_bound_lines

    return [("L", ln.p.x, ln.p.y, ln.q.x, ln.q.y) for ln in lower_bound_lines(n, EPS)]


def _critical(tmp_path: Path, prims, tag="scene"):
    argv, result = W._critical(tmp_path, prims, "square", EPS, tag)
    code, out = W.cli(argv)
    assert code == 0, out
    return out, json.loads(result.read_text())


def _shifted(curve: dict, eps: float) -> dict:
    """The curve moved by eps/4 across its first piece."""
    first = curve["pieces"][0]
    if first["kind"] == "seg":
        (x0, y0), (x1, y1) = first["p0"], first["p1"]
    else:
        (x0, y0), (x1, y1) = (checks.piece_point(first, t) for t in (0.0, 1.0))
    norm = math.hypot(x1 - x0, y1 - y0)
    ox, oy = -(y1 - y0) / norm * eps / 4.0, (x1 - x0) / norm * eps / 4.0
    pieces = []
    for p in curve["pieces"]:
        p = dict(p)
        for key in ("p0", "p1", "center"):
            if key in p:
                p[key] = [p[key][0] + ox, p[key][1] + oy]
        pieces.append(p)
    return dict(curve, pieces=pieces)


def test_soundness_fails_on_a_shifted_curve(tmp_path):
    prims = _grid(8)
    _out, doc = _critical(tmp_path, prims)
    checked, problems = checks.soundness(doc, prims, np.random.default_rng(0), 200)
    assert checked == 200 and problems == []
    for label in ("tr", "top", "left"):
        curve = next(c for c in doc["curves"] if c["vector"]["label"] == label)
        broken = dict(doc, curves=[_shifted(curve, EPS)])
        _n, problems = checks.soundness(broken, prims, np.random.default_rng(0), 50)
        assert len(problems) == 50, label


def test_oracle_reports_missed_points_without_one_vectors_curves(tmp_path):
    prims = _grid(4)
    _out, doc = _critical(tmp_path, prims)
    oracle = ["oracle-check", "--eps", str(EPS), "--resolution", str(EPS / 10.0),
              "--in", str(tmp_path / "scene.txt"), "--curves", str(tmp_path / "scene.result.json")]
    assert checks.oracle_verdict(*W.cli(oracle)) == []

    doc["curves"] = [c for c in doc["curves"] if c["vector"]["label"] != "tr"]
    (tmp_path / "scene.result.json").write_text(json.dumps(doc))
    code, out = W.cli(oracle)
    missed = int(checks._VERDICT.search(out).group(2))
    assert missed > 0 and checks.oracle_verdict(code, out)


def test_junction_check_fails_on_a_moved_center():
    from critplace.geom import Point, Polyline
    from critplace.junctions import grid_scan, top_k

    planted, trajectories = W.lattice(0)
    trajs = [Polyline(t, tuple(Point(x, y) for x, y in pts)) for t, pts in trajectories]
    box = W.lattice_box(planted, W.JUNCTION_SPACING)
    grid = grid_scan(trajs, W.JUNCTION_EPS, box, W.JUNCTION_SPACING)
    top = top_k(grid, len(planted))
    assert checks.junction_lattice(grid, top, planted, W.JUNCTION_SPACING) == []
    for i in range(len(planted)):
        x, y, arms = planted[i]
        moved = planted[:i] + [(x + 2 * W.JUNCTION_SPACING, y, arms)] + planted[i + 1:]
        assert checks.junction_lattice(grid, top, moved, W.JUNCTION_SPACING), i
