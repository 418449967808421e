import hashlib
import json
import math
from pathlib import Path

import pytest

from critplace.cli import main
from critplace.generators import cross_trajectories
from critplace.geom import Line, Point
from critplace.sceneio import (
    Scene,
    SceneError,
    curves_from_result,
    emit_result,
    emit_scene,
    parse_result,
    parse_scene,
    result_from_placement,
)

SCENES = Path(__file__).parent.parent / "demos" / "scenes"

SCENE_TEXT = """\
# two lines and one trajectory
L 0 -1 0 1
S 2 2 3 3
T walk
  -2 0.1
  0 0.2
  2 0.1
"""


def test_scene_parse_basics():
    scene = parse_scene(SCENE_TEXT)
    assert len(scene.lines) == 1
    assert len(scene.segments) == 1
    assert len(scene.trajectories) == 1
    assert scene.trajectories[0].id == "walk"
    assert len(scene.trajectories[0].vertices) == 3


def test_scene_roundtrip():
    scene = parse_scene(SCENE_TEXT)
    text = emit_scene(scene)
    again = parse_scene(text)
    assert emit_scene(again) == text


def test_scene_parse_errors():
    with pytest.raises(SceneError):
        parse_scene("L 1 2 3\n")
    with pytest.raises(SceneError):
        parse_scene("Q 1 2 3 4\n")
    with pytest.raises(SceneError):
        parse_scene("  0.5 0.5\n")


def test_result_roundtrip_curves():
    from critplace.placement import build_placement_arrangement

    lines = [Line(Point(0, -1), Point(0, 1)), Line(Point(-1, 0), Point(1, 0))]
    pa = build_placement_arrangement(lines, 0.5, "square", include_line_translates=True)
    doc = parse_result(emit_result(result_from_placement(pa)))
    gap, contact = curves_from_result(doc)
    assert len(gap) == len(pa.curves)
    assert len(contact) == len(pa.line_translates)
    for orig, back in zip(pa.curves, gap):
        assert orig.cell_id == back.cell_id
        for p, q in zip(orig.pieces, back.pieces):
            a0, a1 = p.endpoints()
            b0, b1 = q.endpoints()
            assert math.hypot(a0[0] - b0[0], a0[1] - b0[1]) < 1e-9
            assert math.hypot(a1[0] - b1[0], a1[1] - b1[1]) < 1e-9


def test_cli_end_to_end_square(tmp_path):
    scene = tmp_path / "scene.txt"
    result = tmp_path / "result.json"
    svg = tmp_path / "plot.svg"
    assert main(["genlb", "--n", "4", "--eps", "0.25", "--out", str(scene)]) == 0
    assert (
        main(
            [
                "critical", "--shape", "square", "--eps", "0.25",
                "--in", str(scene), "--out", str(result),
                "--include-line-translates",
            ]
        )
        == 0
    )
    doc = json.loads(result.read_text())
    assert doc["type"] == "critical"
    assert len(doc["curves"]) > 0
    assert (
        main(
            [
                "oracle-check", "--eps", "0.25", "--resolution", "0.0125",
                "--in", str(scene), "--curves", str(result),
            ]
        )
        == 0
    )
    assert main(["render", "--in", str(result), "--out", str(svg), "--overlay", str(scene)]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and 'id="curves"' in text


def test_cli_oracle_check_detects_tampering(tmp_path):
    scene = tmp_path / "scene.txt"
    result = tmp_path / "result.json"
    main(["genlb", "--n", "4", "--eps", "0.25", "--out", str(scene)])
    main(
        [
            "critical", "--shape", "square", "--eps", "0.25",
            "--in", str(scene), "--out", str(result),
            "--include-line-translates",
        ]
    )
    doc = json.loads(result.read_text())
    assert doc["curves"]
    doc["curves"] = doc["curves"][: len(doc["curves"]) // 2]
    result.write_text(json.dumps(doc))
    code = main(
        [
            "oracle-check", "--eps", "0.25", "--resolution", "0.0125",
            "--in", str(scene), "--curves", str(result),
        ]
    )
    assert code == 2


def test_cli_junctions(tmp_path):
    scene = tmp_path / "scene.txt"
    result = tmp_path / "result.json"
    svg = tmp_path / "heat.svg"
    trajs = cross_trajectories(4, 2, 0.05, 1)
    scene.write_text(emit_scene(Scene(trajectories=trajs)))
    code = main(
        [
            "junctions", "--eps", "0.3", "--spacing", "0.25", "--k", "1",
            "--in", str(scene), "--out", str(result),
        ]
    )
    assert code == 0
    doc = json.loads(result.read_text())
    assert doc["type"] == "junctions"
    assert len(doc["top"]) == 1
    rep = doc["top"][0]
    assert math.hypot(rep["x"], rep["y"]) <= 0.25 + 1e-9
    assert main(["render", "--in", str(result), "--out", str(svg)]) == 0
    assert 'id="junctions"' in svg.read_text()


def test_cli_junctions_result_bytes_are_pinned(tmp_path):
    # the digest of the result the scalar per-point grid wrote
    result = tmp_path / "result.json"
    code = main([
        "junctions", "--eps", "0.3", "--spacing", "0.25", "--k", "4",
        "--in", str(SCENES / "crossing_walks.txt"), "--out", str(result),
    ])
    assert code == 0
    assert hashlib.sha256(result.read_bytes()).hexdigest() == (
        "2c97e4be3d6e22449c97b03c277233b6bedc325d844fa8989b6e13bdb1f6162f"
    )


@pytest.mark.parametrize("flag, value", [
    ("--eps", "-1"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
    ("--spacing", "nan"), ("--spacing", "inf"),
    ("--spacing", "1e-5"),  # 2.5e11 grid points, above the cap
])
def test_cli_junctions_rejects_bad_eps_and_spacing(tmp_path, capsys, flag, value):
    args = {"--eps": "0.3", "--spacing": "0.25", flag: value}
    out = tmp_path / "result.json"
    code = main(["junctions", "--eps", args["--eps"], "--spacing", args["--spacing"],
                 "--k", "4", "--in", str(SCENES / "crossing_walks.txt"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag[2:] in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--resolution", "0"), ("--resolution", "-0.01"), ("--resolution", "nan"),
    ("--delta", "0"), ("--delta", "-0.1"), ("--delta", "inf"),
])
def test_cli_oracle_check_rejects_bad_resolution_and_delta(tmp_path, capsys, flag, value):
    scene, out = SCENES / "three_lines.txt", tmp_path / "r.json"
    assert main(["critical", "--shape", "square", "--eps", "0.3", "--in", str(scene), "--out", str(out)]) == 0
    capsys.readouterr()
    args = {"--resolution": "0.03", flag: value}
    argv = ["oracle-check", "--eps", "0.3", "--resolution", args["--resolution"],
            "--in", str(scene), "--curves", str(out)]
    if flag == "--delta":
        argv += ["--delta", value]
    assert main(argv) == 1
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag[2:] in err[0]
    assert cap.out == ""


def test_cli_bad_usage(tmp_path):
    assert main(["critical", "--shape", "hexagon", "--eps", "1"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["critical", "--shape", "square", "--eps", "0.25",
                 "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o")]) == 1


def _one_error_line(capsys) -> str:
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and cap.out == ""
    return err[0]


def test_cli_input_that_is_a_directory(tmp_path, capsys):
    code = main(["critical", "--shape", "square", "--eps", "0.25",
                 "--in", str(tmp_path), "--out", str(tmp_path / "o.json")])
    assert code == 1
    _one_error_line(capsys)


# a critical result whose keys are all there but whose values are not
_EMPTY_CURVE = ('{"schema": 1, "type": "critical", "shape": "square", "domain": DOMAIN, '
                '"counts": {}, "curves": [{}], "line_translates": []}')


@pytest.mark.parametrize("command, text, message", [
    ("oracle-check", '{"schema": 1}', "unknown result type None"),
    ("render", '{"schema": 1}', "unknown result type None"),
    ("render", "[1, 2]", "JSON object"),
    ("render", '{"schema": 1, "type": ["critical"]}', "unknown result type ['critical']"),
    ("render", '{"schema": 1, "type": "critical", "shape": "square"}',
     "critical result lacks domain, counts, curves, line_translates"),
    ("render", '{"schema": 1, "type": "junctions", "bbox": [0, 0, 1, 1]}',
     "junctions result lacks spacing, nx, ny, significance, top"),
    ("oracle-check", None, "holds a junctions result, not critical curves"),
    ("render", _EMPTY_CURVE.replace("DOMAIN", "[0, 0, 1, 1]"), "'cell' is missing or mistyped"),
    ("oracle-check", _EMPTY_CURVE.replace("DOMAIN", "[0, 0, 1, 1]"), "'cell' is missing or mistyped"),
    ("render", _EMPTY_CURVE.replace("DOMAIN", "5"), "'domain' is missing or mistyped"),
], ids=["oracle-check-no-type", "render-no-type", "render-list", "render-list-type", "critical-keys",
        "junctions-keys", "oracle-check-junctions", "render-empty-curve", "oracle-check-empty-curve",
        "render-number-domain"])
def test_cli_refuses_a_malformed_result(tmp_path, capsys, command, text, message):
    doc = tmp_path / "result.json"
    if text is None:
        assert main(["junctions", "--eps", "0.3", "--spacing", "0.25", "--k", "1",
                     "--in", str(SCENES / "crossing_walks.txt"), "--out", str(doc)]) == 0
        capsys.readouterr()
    else:
        doc.write_text(text)
    if command == "render":
        argv = ["render", "--in", str(doc), "--out", str(tmp_path / "p.svg")]
    else:
        argv = ["oracle-check", "--eps", "0.3", "--resolution", "0.03",
                "--in", str(SCENES / "three_lines.txt"), "--curves", str(doc)]
    assert main(argv) == 1
    assert message in _one_error_line(capsys)


def test_cli_junctions_without_trajectories(tmp_path, capsys):
    code = main(["junctions", "--eps", "0.3", "--spacing", "0.25", "--k", "1",
                 "--in", str(SCENES / "three_lines.txt"), "--out", str(tmp_path / "j.json")])
    assert code == 1
    assert _one_error_line(capsys) == "error: scene has no trajectories"


def test_cli_geometry_error_is_an_input_error(tmp_path, capsys):
    # eps 1.2 passes the quarter-perimeter check of the circle but its
    # curves are only computed for eps < 1
    code = main(["critical", "--shape", "circle", "--eps", "1.2",
                 "--in", str(SCENES / "three_lines.txt"), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("scene_text, counts", [
    ("L -1 -1 1 1\nL -1 1 1 -1\nL 0 -1 0 1\n", "(V=100 E=112 F=14)"),
    ("L -1 -1 1 1\nL -1 1 1 -1\nL 0 -1 0 1\nL -1 0.3 1 0.1\n", "(V=197 E=234 F=40)"),
], ids=["three", "three-and-one"])
def test_cli_critical_over_concurrent_lines(tmp_path, capsys, scene_text, counts):
    scene, out = tmp_path / "scene.txt", tmp_path / "r.json"
    scene.write_text(scene_text)
    code = main(["critical", "--shape", "square", "--eps", "0.3", "--in", str(scene), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith(counts)


@pytest.mark.parametrize("command, shape, scene_text, message", [
    ("critical", "square", "L 0 0 1 1\nS 0 1 1 0\n", "mixes infinite lines and segments"),
    ("critical", "circle", "S 0 0 1 0.3\nS 0.2 -0.5 0.6 0.8\n", "only computed over lines"),
    ("oracle-check", "circle", "S 0 0 1 0.3\nS 0.2 -0.5 0.6 0.8\n", "only computed over lines"),
], ids=["mixed-scene", "circle-over-segments", "oracle-check-circle-over-segments"])
def test_cli_critical_refuses_unsupported_input(tmp_path, capsys, command, shape, scene_text, message):
    scene, out = tmp_path / "scene.txt", tmp_path / "r.json"
    scene.write_text(scene_text)
    if command == "critical":
        argv = ["critical", "--shape", shape, "--eps", "0.3", "--in", str(scene), "--out", str(out)]
    else:
        # a circle result over lines, replayed against the segment scene
        lines = str(SCENES / "three_lines.txt")
        assert main(["critical", "--shape", shape, "--eps", "0.3", "--in", lines, "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["oracle-check", "--eps", "0.3", "--resolution", "0.03", "--in", str(scene), "--curves", str(out)]
    code = main(argv)
    assert code == 1
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert cap.out == "" and (command == "oracle-check" or not out.exists())


@pytest.mark.parametrize("kind, shape", [
    ("lines", "square"), ("lines", "circle"), ("segments", "square"),
])
def test_cli_critical_builds_the_arrangement_once(tmp_path, monkeypatch, kind, shape):
    # both scenes need a larger clip box than the arrangement's default one
    import critplace.arrangement
    import critplace.cli
    import critplace.placement

    scene_text = {
        "lines": (SCENES / "three_lines.txt").read_text(),
        "segments": "S 0 0 1 0.3\nS 0.2 -0.5 0.6 0.8\nS -0.4 0.4 0.3 -0.2\n",
    }[kind]
    builds = []
    for name in ("build_line_arrangement", "build_segment_arrangement"):
        original = getattr(critplace.arrangement, name)

        def counted(*args, _original=original, **kwargs):
            builds.append(_original.__name__)
            return _original(*args, **kwargs)

        for module in (critplace.arrangement, critplace.cli, critplace.placement):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    scene = tmp_path / "scene.txt"
    scene.write_text(scene_text)
    code = main(["critical", "--shape", shape, "--eps", "0.3", "--in", str(scene),
                 "--out", str(tmp_path / "r.json"), "--include-line-translates"])
    assert code == 0
    assert len(builds) == 1, builds


def test_cli_determinism(tmp_path):
    scene = tmp_path / "scene.txt"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["genlb", "--n", "6", "--eps", "0.25", "--out", str(scene)])
    main(["critical", "--shape", "square", "--eps", "0.25", "--in", str(scene), "--out", str(r1)])
    main(["critical", "--shape", "square", "--eps", "0.25", "--in", str(scene), "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_shipped_scenes_roundtrip():
    import pathlib

    scenes_dir = pathlib.Path(__file__).parent.parent / "demos" / "scenes"
    files = sorted(scenes_dir.glob("*.txt"))
    assert files
    for path in files:
        scene = parse_scene(path.read_text())
        text = emit_scene(scene)
        assert emit_scene(parse_scene(text)) == text


def test_lower_bound_ring_structure(tmp_path):
    # every interior grid cell carries an offset-ring of curves; chain ends
    # either continue into the neighboring piece (at integer perimeter/eps
    # the windows abut) or stop on a corner-coincidence translate of a line,
    # where the tracked boundary piece jumps
    import math

    from critplace.generators import lower_bound_lines
    from critplace.placement import build_placement_arrangement

    lines = lower_bound_lines(8, 0.25)
    pa = build_placement_arrangement(lines, 0.25, "square")
    arr = pa.arrangement
    interior = []
    for cell in arr.cells:
        walls = arr.cell_walls(cell.id)
        if any(t[0] == "clip" for _p, _q, t in walls):
            continue
        poly = arr.cell_polygon(cell.id)
        if abs(poly).max() <= 1.0:
            interior.append(cell.id)
    assert len(interior) == 9

    corners = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))

    def on_translate(x: float, y: float) -> bool:
        for ln in lines:
            for vx, vy in corners:
                if abs(ln.a * x + ln.b * y - (ln.c - ln.a * vx - ln.b * vy)) < 1e-5:
                    return True
        return False

    for cid in interior:
        endpoints = []
        for curve in pa.curves:
            if curve.cell_id != cid:
                continue
            for piece in curve.pieces:
                endpoints.extend(piece.endpoints())
        assert len(endpoints) >= 16  # at least eight ring pieces
        for i, (x, y) in enumerate(endpoints):
            mate = min(
                (
                    math.hypot(x - q[0], y - q[1])
                    for j, q in enumerate(endpoints)
                    if j != i
                ),
                default=math.inf,
            )
            assert mate < 1e-4 or on_translate(x, y)


def test_render_heat_opacity_normalized(tmp_path):
    scene = tmp_path / "scene.txt"
    result = tmp_path / "result.json"
    trajs = cross_trajectories(3, 2, 0.05, 2)
    scene.write_text(emit_scene(Scene(trajectories=trajs)))
    main(["junctions", "--eps", "0.3", "--spacing", "0.25", "--k", "1",
          "--in", str(scene), "--out", str(result)])
    from critplace.render import render_svg

    svg = render_svg(json.loads(result.read_text()))
    import re

    ops = [float(m) for m in re.findall(r'fill-opacity="([0-9.e+-]+)"', svg)]
    assert ops and max(ops) == pytest.approx(1.0)
    assert all(0.0 < v <= 1.0 + 1e-12 for v in ops)
