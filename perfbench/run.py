"""Benchmark of critplace's `critical`, `oracle-check` and `junctions` runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload segments-square --seed 601 --seconds 32 --trace 0

One process runs one workload single-threaded: it sets up the inputs, runs
whole rounds of the workload's operations until `--seconds` have passed,
checks the outputs and prints one JSON object as the last line of stdout.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
process runs untraced rounds for half the time, then wraps the library's
functions and reports per-layer metrics from the traced half.

Every operation and every set-up runs between two passes of a fixed
calibration loop, and its time is reported in seconds at the reference
speed, the speed at which that loop takes `REFERENCE_S`: wall time times
`REFERENCE_S` over the mean of the two loop times.  On a machine whose
speed drifts from second to second this cancels the part of the drift
that the program and the loop share.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 11
CALIBRATION_CHUNKS = 32  # of 2000 points each: about 0.1 s
REFERENCE_S = 0.1


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import critplace from this checkout's sources, never from elsewhere."""
    if not (SRC / "critplace" / "__init__.py").is_file():
        _fail(f"no critplace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import critplace

    if Path(critplace.__file__).resolve().parent != (SRC / "critplace").resolve():
        _fail(f"critplace was imported from {critplace.__file__}, not from {SRC}")


def _import_fresh() -> None:
    """Import `critplace.cli` and the modules it loads anew, as a user's run
    does, then put the modules this process already uses back."""
    def own(name):
        return name == "critplace" or name.startswith("critplace.")

    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if own(k)}
    try:
        importlib.import_module("critplace.cli")
    finally:
        for k in [k for k in sys.modules if own(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "bytes" if name.endswith("_bytes") else "count"


def calibrate() -> float:
    """Wall time of a fixed loop of float math, tuple, dict, sort and small
    numpy work, done in chunks so that its memory stays small and does not
    move the RSS figures."""
    t0 = time.perf_counter()
    table = {}
    for chunk in range(CALIBRATION_CHUNKS):
        pts = []
        for i in range(chunk * 2000, (chunk + 1) * 2000):
            x = (i * 0.618033988749895) % 1.0
            y = math.sqrt(x * x + 0.25) - math.atan2(x, 0.5)
            pts.append((x, y))
            table[int(x * 512)] = y
        pts.sort(key=lambda p: p[1])
        np.asarray(pts).sum()
    return time.perf_counter() - t0


def at_reference(wall: float, before: float, after: float) -> float:
    """`wall` seconds at the reference speed, given the calibration loop
    times measured just before and just after."""
    return wall * REFERENCE_S * 2.0 / (before + after)


def rss_mb() -> float:
    """Resident memory of this process now."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


def run_rounds(wl, seconds: float, tracer=None) -> tuple[list[float], list[float], int, int]:
    """Whole rounds until `seconds` have passed, with a calibration loop
    after every operation; returns (round wall times, round times at the
    reference speed, operations attempted, operations failed)."""
    walls, scaled, attempted, failed = [], [], 0, 0
    before = calibrate()

    def one_round():
        nonlocal attempted, failed, before
        wall = at_ref = 0.0
        for op in wl.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = tracer.span(f"op.{op.name}", op.run) if tracer else op.run()
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                result = (-1, f"{type(exc).__name__}: {exc}")
            t = time.perf_counter() - t0
            after = calibrate()
            wall += t
            at_ref += at_reference(t, before, after)
            before = after
            wl.outputs.setdefault(op.tag, result)
            if result != wl.outputs[op.tag]:
                wl.data.setdefault("drift", []).append(f"{op.tag} output changed between rounds")
            failed += int(result[0] != 0)
        walls.append(wall)
        scaled.append(at_ref)

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer:
            tracer.round(one_round)
        else:
            one_round()
    return walls, scaled, attempted, failed


def main(argv=None) -> int:
    import workloads  # after the path set-up, it imports numpy

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, before = [], calibrate()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            _import_fresh()
            wl = workloads.WORKLOADS[args.workload](args.seed, work)
            t = time.perf_counter() - t0
            after = calibrate()
            setups.append(at_reference(t, before, after))
            before = after
        base_rss = rss_mb()
        if args.trace:
            from tracing import Tracer

            _walls, plain, attempted, failed = run_rounds(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                _walls, traced, a2, f2 = run_rounds(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            attempted, failed = attempted + a2, failed + f2
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            walls, rounds, attempted, failed = run_rounds(wl, args.seconds)
            metrics = {
                "round_s": statistics.median(rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - base_rss,
                "setup_s": statistics.median(setups),
            }
            print(f"perfbench: median round {statistics.median(walls):.4f} s wall, "
                  f"{metrics['round_s']:.4f} s at the reference speed", file=sys.stderr)
        try:
            checked, problems = wl.check(wl, np.random.default_rng(args.seed))
        except Exception as exc:  # e.g. no result file after a failed operation
            checked, problems = 0, [f"check raised {type(exc).__name__}: {exc}"]
        problems += wl.data.get("drift", [])[:1]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(p, file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed, {checked} checked, {len(problems)} problems", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.path.insert(0, str(HERE))
    sys.exit(main())
