"""Spans and counts around the public functions of each `critplace` module.

`Tracer.install` replaces each target function at its module bindings (the
module that defines it and every module that imported it by name) with a
wrapper that records a span: name, start, end and the span that was open
when it was called.  Some targets also add counts taken from their
arguments or result.  Spans stay in memory; `layer_metrics` derives self
times per round from them and `dump` writes them out.  Untraced runs never
create a tracer, so they run the program's own functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict


def _arrangement(result, _args):
    return {"arrangement.cells": len(result.cells)}


def _placement(pa, _args):
    curves = pa.all_curves()
    return {
        "placement.curves": len(curves),
        "placement.pieces": sum(len(c.pieces) for c in curves),
        "placement.vertices": pa.counts["vertices"],
        "placement.edges": pa.counts["edges"],
        "placement.faces": pa.counts["faces"],
    }


def _scan(result, args):
    # grid size as dense_scan lays it out: floor(extent / resolution) + 1 a side
    _prims, _shape, _eps, box, res = args[:5]
    nx = max(2, int(math.floor(box.width / res)) + 1)
    ny = max(2, int(math.floor(box.height / res)) + 1)
    return {"oracle.scan_placements": nx * ny, "oracle.scan_hits": len(result)}


# (defining module, attribute, span name, counter, bindings to patch or None
# for every module that holds the same function)
TARGETS = [
    ("arrangement", "build_line_arrangement", "arrangement.build", _arrangement, None),
    ("arrangement", "build_segment_arrangement", "arrangement.build", _arrangement, None),
    ("arrangement", "convex_decompose", "arrangement.decompose",
     lambda r, _a: {"arrangement.subcells": len(r)}, None),
    ("placement", "build_placement_arrangement", "placement.build", _placement, None),
    ("placement", "collect_S", "placement.collect", None, None),
    ("placement", "cell_regions", "placement.regions", None, None),
    ("placement", "corner_curve", "placement.corner", None, None),
    ("placement", "edge_curve", "placement.edge", None, None),
    ("placement", "clip_curve_to_box", "placement.clip", None, None),
    ("placement", "contact_curves", "placement.contact", None, None),
    ("circles", "circle_cell_curves", "circles.angular", None, None),
    # only the curve trimming's calls; the oracle's own calls stay unwrapped
    ("oracle", "boundary_gaps", "circles.gap", None, ("circles",)),
    ("oracle", "dense_scan", "oracle.dense_scan", _scan, None),
    ("oracle", "verify", "oracle.verify", None, None),
    ("junctions", "grid_scan", "junctions.grid", None, None),
    ("junctions", "assess", "junctions.assess", None, None),
    ("junctions", "salient_subtrajectories", "junctions.salient", None, None),
    ("junctions", "epsilon_cluster", "junctions.cluster", None, None),
    ("junctions", "top_k", "junctions.topk", None, None),
    ("sceneio", "parse_scene", "sceneio.parse", None, None),
    ("sceneio", "parse_result", "sceneio.parse", None, None),
    ("sceneio", "curves_from_result", "sceneio.parse", None, None),
    ("sceneio", "result_from_placement", "sceneio.emit", None, None),
    ("sceneio", "result_from_junctions", "sceneio.emit", None, None),
    ("sceneio", "emit_result", "sceneio.emit",
     lambda r, _a: {"sceneio.result_bytes": len(r.encode())}, None),
    ("cli", "main", "cli.main", None, None),
]
# the definition-level check of one curve sample is a method
METHODS = [("placement", "PlacementArrangement", "supports_placement", "oracle.definition")]

MODULES = ("arrangement", "circles", "cli", "generators", "geom", "junctions",
           "oracle", "placement", "render", "sceneio")

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "arrangement.build_s": ("arrangement.build",),
    "arrangement.decompose_s": ("arrangement.decompose",),
    "placement.overlay_s": ("placement.build",),
    "placement.corner_s": ("placement.corner",),
    "placement.edge_s": ("placement.edge",),
    "placement.regions_s": ("placement.regions",),
    "placement.clip_s": ("placement.clip",),
    "placement.contact_s": ("placement.contact",),
    "placement.collect_s": ("placement.collect",),
    "circles.angular_s": ("circles.angular",),
    "circles.gap_s": ("circles.gap",),
    "oracle.dense_scan_s": ("oracle.dense_scan",),
    "oracle.definition_s": ("oracle.definition",),
    "oracle.verify_s": ("oracle.verify",),
    "junctions.grid_s": ("junctions.grid", "junctions.assess"),
    "junctions.salient_s": ("junctions.salient",),
    "junctions.cluster_s": ("junctions.cluster",),
    "junctions.topk_s": ("junctions.topk",),
    "sceneio.parse_s": ("sceneio.parse",),
    "sceneio.emit_s": ("sceneio.emit",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> span names whose calls it counts
CALLS = {
    "arrangement.builds": ("arrangement.build",),
    "placement.cells_visited": ("placement.corner", "placement.edge"),
    "circles.gap_calls": ("circles.gap",),
    "oracle.definition_checks": ("oracle.definition",),
    "junctions.assess_calls": ("junctions.assess",),
}
# per-layer metric -> benchmark operation whose whole span it reports
OP_TIMES = {
    "op.critical_s": "op.critical",
    "op.oracle_check_s": "op.oracle-check",
    "op.junctions_s": "op.junctions",
}
COUNTED = ("arrangement.cells", "arrangement.subcells", "placement.curves",
           "placement.pieces", "placement.vertices", "placement.edges",
           "placement.faces", "oracle.scan_placements", "oracle.scan_hits",
           "sceneio.result_bytes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.rounds: list[tuple[int, int, dict]] = []  # (first span, end span, counts)
        self.counts: dict = defaultdict(int)
        self._restore: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                for key, n in counter(result, args).items():
                    self.counts[key] += n
            return result

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"critplace.{m}") for m in MODULES}
        for home, attr, name, counter, bindings in TARGETS:
            original = getattr(mods[home], attr)
            wrapped = self._wrap(original, name, counter)
            names = bindings or MODULES
            for m in names:
                if getattr(mods[m], attr, None) is original:
                    self._restore.append((mods[m], attr, original))
                    setattr(mods[m], attr, wrapped)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(mods[home], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def round(self, fn):
        """Run one round of operations, keeping its spans and counts apart."""
        first = len(self.spans)
        self.counts = defaultdict(int)
        try:
            return fn()
        finally:
            self.rounds.append((first, len(self.spans), dict(self.counts)))

    def _round_metrics(self, first: int, end: int, counts: dict) -> dict:
        child = [0.0] * (end - first)
        for name, start, stop, parent in self.spans[first:end]:
            if parent >= first:
                child[parent - first] += stop - start
        selfs: dict = defaultdict(float)
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for k, (name, start, stop, _parent) in enumerate(self.spans[first:end]):
            selfs[name] += stop - start - child[k]
            totals[name] += stop - start
            calls[name] += 1
        out = {m: sum(selfs[n] for n in names) for m, names in SELF_TIMES.items()}
        out.update({m: sum(calls[n] for n in names) for m, names in CALLS.items()})
        out.update({m: totals[n] for m, n in OP_TIMES.items()})
        out.update({m: counts.get(m, 0) for m in COUNTED})
        return out

    def layer_metrics(self) -> dict:
        """Median over the traced rounds of each per-layer metric."""
        per_round = [self._round_metrics(*r) for r in self.rounds]
        return {m: statistics.median(r[m] for r in per_round) for m in per_round[0]}

    def dump(self, path) -> None:
        path.write_text(json.dumps({
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "rounds": [{"first_span": f, "end_span": e, "counts": c} for f, e, c in self.rounds],
        }))
