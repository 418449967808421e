"""The benchmark's workloads: inputs made from a seed, rounds of operations
and the checks run on their outputs.

Every placement workload moves its scene by seeded translations in
[-0.5, 0.5]^2.  The scene's shape stays fixed, so the work per operation
swings less with the seed than it would on fresh scenes: random segment
scenes of the same size differ by about 20% in run time, close to the
largest bound a benchmark metric may have.  `circle-lines` runs
`CIRCLE_SHIFTS` translations a round, because its counts still change with
the translation.  `junction-lattice` draws its bundles from the seed
instead, and runs `JUNCTION_LATTICES` lattices a round.

Operations go through `critplace.cli.main` in-process.  The junction
operation makes the library calls `junctions` makes, on a grid box chosen
so that every planted center is a grid point.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import critplace.cli
import critplace.junctions
import critplace.sceneio
import numpy as np
from critplace.arrangement import BBox
from critplace.generators import cross_trajectories, random_lines
from critplace.geom import Point

import checks

SOUND_SAMPLES = 400


def cli(argv: list[str]) -> tuple[int, str]:
    """Run `critplace.cli.main` in-process; returns (exit code, output).

    The module attribute is looked up on every call, so a traced run sees
    the wrapped function.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = critplace.cli.main(argv)
    return code, buf.getvalue()


def cli_with_result(argv: list[str], result: Path) -> tuple[int, str]:
    """`cli`, with the digest of the result file the command wrote added to
    its output, so that the round-to-round comparison covers the result."""
    code, out = cli(argv)
    digest = hashlib.sha256(result.read_bytes()).hexdigest() if code == 0 else "none"
    return code, f"{out}result sha256 {digest}\n"


def write_scene(path: Path, prims=(), trajectories=()) -> None:
    """Scene file in the program's text format, floats written in full."""
    rows = [f"{k} {x1!r} {y1!r} {x2!r} {y2!r}" for k, x1, y1, x2, y2 in prims]
    for tid, pts in trajectories:
        rows.append(f"T {tid}")
        rows.extend(f"  {x!r} {y!r}" for x, y in pts)
    path.write_text("\n".join(rows) + "\n")


def translated(prims, dx: float, dy: float) -> list[tuple]:
    return [(k, x1 + dx, y1 + dy, x2 + dx, y2 + dy) for k, x1, y1, x2, y2 in prims]


def seed_shifts(seed: int, n: int) -> list[tuple[float, float]]:
    return [(float(dx), float(dy)) for dx, dy in np.random.default_rng(seed).uniform(-0.5, 0.5, (n, 2))]


@dataclass
class Op:
    """One operation of a round; `run` returns (exit code, output).  `name`
    is the command, `tag` tells apart operations of the same command."""

    name: str
    run: Callable[[], tuple[int, str]]
    tag: str = ""

    def __post_init__(self):
        self.tag = self.tag or self.name


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable  # (workload, rng) -> (points checked, problems)
    outputs: dict = field(default_factory=dict)  # op tag -> first round's (code, output)
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

def _critical(work: Path, prims, shape: str, eps: float, tag: str = "scene"):
    """Writes the scene; returns the `critical` arguments and the result path."""
    scene, result = work / f"{tag}.txt", work / f"{tag}.result.json"
    write_scene(scene, prims)
    argv = [
        "critical", "--shape", shape, "--eps", str(eps), "--in", str(scene),
        "--out", str(result), "--include-line-translates",
    ]
    return argv, result


def random_segments(n: int, seed: int) -> list[tuple]:
    """n segments with both ends in [-SEG_HALF, SEG_HALF]^2, lengths 0.3-1.5."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x0, y0 = rng.uniform(-SEG_HALF, SEG_HALF, 2)
        length, ang = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        x1, y1 = x0 + length * math.cos(ang), y0 + length * math.sin(ang)
        if abs(x1) <= SEG_HALF and abs(y1) <= SEG_HALF:
            out.append(("S", float(x0), float(y0), float(x1), float(y1)))
    return out


def _soundness_check(wl: Workload, rng) -> tuple[int, list[str]]:
    checked, problems = 0, []
    for prims, result in wl.data["scenes"]:
        n, found = checks.soundness(json.loads(result.read_text()), prims, rng, SOUND_SAMPLES)
        checked, problems = checked + n, problems + found
    return checked, problems


def _oracle_check(wl: Workload, rng) -> tuple[int, list[str]]:
    checked, problems = _soundness_check(wl, rng)
    return checked, problems + checks.oracle_verdict(*wl.outputs["oracle-check"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

SEG_N, SEG_HALF, SEG_SCENE_SEED, SEG_EPS = 24, 2.0, 0, 0.3
CIRCLE_LINES, CIRCLE_SCENE_SEED, CIRCLE_EPS = 2, 3, 0.7
# The circle counts swing by a quarter with the translation (see CHANGES.md),
# so a round runs several translations and the work per round varies less.
CIRCLE_SHIFTS = 4
LATTICE_COLS, LATTICE_ROWS, LATTICE_PITCH = 4, 2, 6.0
JUNCTION_EPS, JUNCTION_SPACING = 0.3, 0.25
# The junction work swings with the seeded bundles, so a round runs several
# lattices and the work per round varies less.
JUNCTION_LATTICES = 3


def segments_square(seed: int, work: Path) -> Workload:
    prims = translated(random_segments(SEG_N, SEG_SCENE_SEED), *seed_shifts(seed, 1)[0])
    argv, result = _critical(work, prims, "square", SEG_EPS)
    wl = Workload("segments-square", [Op("critical", lambda: cli_with_result(argv, result))], _soundness_check)
    wl.data["scenes"] = [(prims, result)]
    return wl


def circle_lines(seed: int, work: Path) -> Workload:
    base = [("L", ln.p.x, ln.p.y, ln.q.x, ln.q.y) for ln in random_lines(CIRCLE_LINES, CIRCLE_SCENE_SEED)]
    ops, scenes = [], []
    for i, shift in enumerate(seed_shifts(seed, CIRCLE_SHIFTS)):
        prims = translated(base, *shift)
        argv, result = _critical(work, prims, "circle", CIRCLE_EPS, f"scene{i}")
        ops.append(Op("critical", lambda argv=argv, result=result: cli_with_result(argv, result), f"critical-{i}"))
        scenes.append((prims, result))
    oracle = [
        "oracle-check", "--eps", str(CIRCLE_EPS), "--resolution", str(CIRCLE_EPS / 20.0),
        "--delta", str(CIRCLE_EPS / 10.0), "--in", str(work / "scene0.txt"), "--curves", str(scenes[0][1]),
    ]
    wl = Workload("circle-lines", ops + [Op("oracle-check", lambda: cli(oracle))], _oracle_check)
    wl.data["scenes"] = scenes
    return wl


def lattice(seed):
    """Planted bundle centers (x, y, arms) and their trajectories; `seed` is
    anything `numpy.random.default_rng` takes."""
    rng = np.random.default_rng(seed)
    planted, trajectories = [], []
    for i in range(LATTICE_COLS * LATTICE_ROWS):
        row, col = divmod(i, LATTICE_COLS)
        x, y, arms = LATTICE_PITCH * col, LATTICE_PITCH * row, 3 + i % 4
        planted.append((x, y, arms))
        bundle = cross_trajectories(
            arms, 1 + i % 3, jitter=0.05, seed=int(rng.integers(2**31)), center=Point(x, y)
        )
        trajectories += [(f"b{i}_{t.id}", [(v.x, v.y) for v in t.vertices]) for t in bundle]
    return planted, trajectories


def lattice_box(planted, spacing: float):
    """Box whose corner is a center minus whole spacings, so every center is
    a grid point."""
    margin = 12 * spacing
    xs = [x for x, _y, _a in planted]
    ys = [y for _x, y, _a in planted]
    return BBox(min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)


def _junctions_op(work: Path, i: int, planted, trajectories) -> tuple[Op, dict]:
    """The junction operation on one lattice; the returned dict holds the
    grid and top-k of its last call."""
    scene_path, out_path = work / f"scene{i}.txt", work / f"junctions{i}.result.json"
    write_scene(scene_path, trajectories=trajectories)
    box = lattice_box(planted, JUNCTION_SPACING)
    last = {}

    def run():
        # module attributes, looked up per call, as in `cli`
        sceneio, junctions = critplace.sceneio, critplace.junctions
        scene = sceneio.parse_scene(scene_path.read_text())
        grid = junctions.grid_scan(scene.trajectories, JUNCTION_EPS, box, JUNCTION_SPACING)
        top = junctions.top_k(grid, len(planted))
        text = sceneio.emit_result(sceneio.result_from_junctions(grid, top, JUNCTION_EPS))
        out_path.write_text(text)
        last.update(grid=grid, top=top)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return 0, f"{len(top)} junction representatives, result sha256 {digest}"

    return Op("junctions", run, f"junctions-{i}"), last


def junction_lattice(seed: int, work: Path) -> Workload:
    ops, lattices = [], []
    for i in range(JUNCTION_LATTICES):
        planted, trajectories = lattice((seed, i))
        op, last = _junctions_op(work, i, planted, trajectories)
        ops.append(op)
        lattices.append((planted, last))

    def check(wl: Workload, rng):
        problems = []
        for planted, last in lattices:
            problems += checks.junction_lattice(last["grid"], last["top"], planted, JUNCTION_SPACING)
        return sum(len(planted) for planted, _ in lattices), problems

    return Workload("junction-lattice", ops, check)


WORKLOADS = {
    "segments-square": segments_square,
    "circle-lines": circle_lines,
    "junction-lattice": junction_lattice,
}
