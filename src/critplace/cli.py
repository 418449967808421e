"""Command line entry points.

Subcommands: `critical` computes the placement curves of a scene, `genlb`
writes a worst-case line grid, `oracle-check` replays a result against the
dense scan, `junctions` runs the trajectory pipeline, and `render` draws a
result as SVG.  Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .arrangement import bbox_of_points
from .generators import lower_bound_lines
from .geom import CIRCLE, SQUARE, GeometryError
from .junctions import grid_scan, top_k
from .oracle import dense_scan, verify
from .placement import (
    PlacementArrangement,
    build_placement_arrangement,
    placement_primitives,
    translation_vectors,
)
from .render import render_svg
from .sceneio import (
    Scene,
    SceneError,
    curves_from_result,
    domain_from_result,
    emit_result,
    emit_scene,
    parse_result,
    parse_scene,
    result_from_junctions,
    result_from_placement,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first call and kept: parsing
    leaves no state in it, as every call fills a new namespace."""
    parser = _Parser(prog="critplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical", help="compute critical placement curves")
    p.add_argument("--shape", choices=[SQUARE, CIRCLE], required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--in", dest="scene", required=True)
    p.add_argument("--out", dest="out", required=True)
    p.add_argument("--include-line-translates", action="store_true")

    p = sub.add_parser("oracle-check", help="replay a result against the dense scan")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--in", dest="scene", required=True)
    p.add_argument("--curves", dest="curves", required=True)
    p.add_argument("--delta", type=float, default=None, help="coverage radius (default 2*resolution)")

    p = sub.add_parser("genlb", help="write a worst-case line grid scene")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tilt", type=float, default=0.005)
    p.add_argument("--out", dest="out", required=True)

    p = sub.add_parser("junctions", help="junction detection on trajectories")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--spacing", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="scene", required=True)
    p.add_argument("--out", dest="out", required=True)

    p = sub.add_parser("render", help="draw a result file as SVG")
    p.add_argument("--in", dest="result", required=True)
    p.add_argument("--out", dest="out", required=True)
    p.add_argument("--overlay", dest="overlay", default=None)
    return parser


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_critical(args) -> int:
    scene = parse_scene(_read(args.scene))
    pa = build_placement_arrangement(
        scene.primitives(),
        args.eps,
        args.shape,
        include_line_translates=args.include_line_translates,
    )
    doc = result_from_placement(pa)
    summary = (
        f"{len(pa.curves)} curves, complexity {pa.complexity} "
        f"(V={pa.counts['vertices']} E={pa.counts['edges']} F={pa.counts['faces']})"
    )
    # encoding the result is the command's peak of memory: it runs with the
    # arrangement and the curves released
    del pa
    Path(args.out).write_text(emit_result(doc))
    print(summary)
    return 0


def _cmd_oracle_check(args) -> int:
    scene = parse_scene(_read(args.scene))
    doc = parse_result(_read(args.curves))
    if doc["type"] != "critical":
        raise SceneError(f"{args.curves} holds a {doc['type']} result, not critical curves")
    prims = scene.primitives()
    gap, contact = curves_from_result(doc)
    domain = domain_from_result(doc)
    shape = doc["shape"]
    delta = args.delta if args.delta is not None else 2.0 * args.resolution

    # the curve checks see the primitives `critical` built its arrangement from
    pa = PlacementArrangement(
        shape=shape,
        eps=args.eps,
        curves=gap,
        line_translates=contact,
        domain=domain,
        counts=doc["counts"],
        warnings=[],
        primitives=placement_primitives(prims),
        vectors=translation_vectors(shape, args.eps),
    )
    scan = dense_scan(prims, shape, args.eps, domain, args.resolution)
    report = verify(pa, scan, delta)
    print(
        f"scan points: {scan.shape[0]}, missed: {len(report.missed_scan_points)}, "
        f"unsupported samples: {len(report.unsupported_curve_samples)}"
    )
    if not report.empty():
        for x, y in report.missed_scan_points[:10]:
            print(f"  missed {x:.6f} {y:.6f}")
        for x, y in report.unsupported_curve_samples[:10]:
            print(f"  unsupported {x:.6f} {y:.6f}")
        return 2
    return 0


def _cmd_genlb(args) -> int:
    lines = lower_bound_lines(args.n, args.eps, args.tilt)
    Path(args.out).write_text(emit_scene(Scene(lines=lines)))
    print(f"{len(lines)} lines")
    return 0


def _cmd_junctions(args) -> int:
    scene = parse_scene(_read(args.scene))
    if not scene.trajectories:
        print("error: scene has no trajectories", file=sys.stderr)
        return 1
    bbox = bbox_of_points([(v.x, v.y) for t in scene.trajectories for v in t.vertices])
    grid = grid_scan(scene.trajectories, args.eps, bbox, args.spacing)
    top = top_k(grid, args.k)
    Path(args.out).write_text(emit_result(result_from_junctions(grid, top, args.eps)))
    flag = "" if top.complete else f" (only {len(top)} of {args.k} requested)"
    print(f"{len(top)} junction representatives{flag}")
    return 0


def _cmd_render(args) -> int:
    doc = parse_result(_read(args.result))
    scene = parse_scene(_read(args.overlay)) if args.overlay else None
    Path(args.out).write_text(render_svg(doc, scene))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "critical": _cmd_critical,
    "oracle-check": _cmd_oracle_check,
    "genlb": _cmd_genlb,
    "junctions": _cmd_junctions,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (SceneError, OSError, ValueError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
