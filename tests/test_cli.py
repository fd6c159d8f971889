import json
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from msn import io
from msn.cli import main, make_parser
from msn.errors import NotAnEmbedding
from msn.linalg import Matrix
from msn.maps import LinearMap, identity_map
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, line_space

F = Fraction
S = PolyhedralSeminorm.from_functionals


@pytest.fixture()
def files(tmp_path):
    coords = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)])))
    io.write_json(tmp_path / "x.json", io.space_to_doc(coords))
    q = line_space(1)
    io.write_json(tmp_path / "q.json", io.space_to_doc(q))
    io.write_json(tmp_path / "id.json", io.map_to_doc(identity_map(q)))
    io.write_json(tmp_path / "two.json",
                  io.map_to_doc(LinearMap(q, q, Matrix.from_rows([[2]]))))
    return tmp_path


def run(args, **kw):
    return main([str(a) for a in args])


def test_space_invariant_output(files, capsys):
    rc = run(["space", "invariant", files / "x.json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"alpha": {"": 2, "0": 1, "1": 1, "0,1": 0}}


def test_space_quotient_rejects_levels_outside_the_space(files, capsys):
    assert run(["space", "quotient", files / "q.json", "--level", "0"]) == 0
    capsys.readouterr()
    for level in ("3", "-1"):
        assert run(["space", "quotient", files / "q.json", "--level", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "BadLevel", "detail": f"level {level} outside 0..0"}


# Recorded with the Fraction-view writer that ``space quotient`` used
# before it wrote the stored rows through ``io.seminorm_to_doc``.
QUOTIENT_DOC = """{
  "lift": [
    [
      "1",
      "0"
    ],
    [
      "0",
      "1"
    ],
    [
      "0",
      "0"
    ]
  ],
  "norm": {
    "functionals": [
      [
        "1/2",
        "-1/3"
      ],
      [
        "3/4",
        "0"
      ],
      [
        "5/4",
        "-1/3"
      ]
    ]
  },
  "projection": [
    [
      "1",
      "0",
      "-2/3"
    ],
    [
      "0",
      "1",
      "-1"
    ]
  ]
}
"""


def test_space_quotient_writes_the_recorded_bytes(tmp_path, capsys):
    """Level 1 has non-integer functionals, a redundant multiple and a one-dimensional kernel."""
    rows = [["1/2", "-1/3", "0"], ["3/4", "0", "-1/2"], ["5/4", "-1/3", "-1/2"], ["1/4", "-1/6", "0"]]
    doc = {"format": "msn/1", "dim": 3, "graded": False,
           "seminorms": [{"functionals": [["1", "0", "0"]]}, {"functionals": rows}]}
    io.write_json(tmp_path / "s.json", doc)
    assert run(["space", "quotient", tmp_path / "s.json", "--level", "1"]) == 0
    assert capsys.readouterr().out == QUOTIENT_DOC


def test_map_check_exit_codes(files, capsys):
    assert run(["map", "check", files / "id.json", "--delta", "0"]) == 0
    rc = run(["map", "check", files / "two.json", "--delta", "1/2"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotAnEmbedding" and err["witness"]["kind"] == "upper"
    assert run(["map", "check", files / "two.json", "--delta", "1"]) == 0


def test_command_line_rationals_use_the_file_grammar(files, capsys):
    for delta in ("1e9", "0.5", "+1", " 1", "1/0"):
        assert run(["map", "check", files / "two.json", "--delta", delta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "FormatError"
    assert run(["map", "check", files / "two.json", "--delta", "2/2"]) == 0


def test_map_check_witness_travels_as_exact_strings(tmp_path, capsys):
    X = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1), (1, -1)])))
    f = LinearMap(X, X, Matrix.from_rows([[F(3, 2), 0], [0, F(3, 2)]]))
    io.write_json(tmp_path / "f.json", io.map_to_doc(f))
    delta = F(1, 4)
    assert run(["map", "check", tmp_path / "f.json", "--delta", "1/4"]) == 2
    wit = json.loads(capsys.readouterr().err)["witness"]
    assert wit["kind"] == "upper" and isinstance(wit["level"], int)
    assert all(isinstance(x, str) for x in wit["vector"])
    v = tuple(io.rat_from_str(x) for x in wit["vector"])
    m = wit["level"]
    assert f.codomain.eval(m, f(v)) > (1 + delta) * f.domain.eval(m, v)


def test_witness_payloads_convert_recursively():
    wit = {"kind": "upper", "level": 1, "vector": (F(1, 2), F(-3))}
    want = {"kind": "upper", "level": 1, "vector": ["1/2", "-3"]}
    assert io.witness_to_doc(NotAnEmbedding("no", wit).payload())["witness"] == want
    failures = [{"kind": "link", "stage": 0, "witness": wit},
                {"kind": "lambda-monotone", "lambdas": [2, 1]}]
    assert io.witness_to_doc(failures) == [{"kind": "link", "stage": 0, "witness": want},
                                          {"kind": "lambda-monotone", "lambdas": [2, 1]}]


def test_amalgam_push_artifacts(files, tmp_path):
    out = tmp_path / "amal"
    rc = run(["--out", out, "amalgam", "push",
              "--x", files / "q.json", "--y", files / "q.json", "--z", files / "q.json",
              "--f", files / "id.json", "--g", files / "id.json",
              "--delta", "0", "--eps", "1/2"])
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["perLevel"] == ["1/2"]
    w = io.load_space(out / "w.json")
    assert w.dim == 2
    legy = io.load_map(out / "leg_y.json")
    assert legy.codomain == w


def test_round_trip_byte_identical(files, tmp_path):
    doc = io.read_json(files / "x.json")
    x = io.space_from_doc(doc)
    saved = io.dumps(io.space_to_doc(x))
    assert saved == (files / "x.json").read_text()
    m = io.load_map(files / "two.json")
    assert io.dumps(io.map_to_doc(m)) == (files / "two.json").read_text()


def test_io_failure_exit_code(files, capsys):
    assert run(["space", "invariant", files / "missing.json"]) == 1
    bad = files / "bad.json"
    bad.write_text("{}")
    assert run(["space", "invariant", bad]) == 1
    # an --out path that is a regular file, or lies under one
    capsys.readouterr()
    for out in (bad, bad / "sub"):
        for cmd in (["space", "inspect", files / "q.json"],
                    ["tower", "build", "--catalog", files / "q.json", "--stages", "1", "--deltas", "0"]):
            assert run(["--out", out, *cmd]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == "OSError"


def test_tower_build_verify_backforth(tmp_path, files):
    td = tmp_path / "towerA"
    rc = run(["--out", td, "tower", "build", "--catalog", files / "q.json",
              "--stages", "3", "--deltas", "0", "--dim-cap", "4"])
    assert rc == 0
    assert (td / "manifest.json").exists()
    rc = run(["tower", "verify", td])
    assert rc == 0
    td2 = tmp_path / "towerB"
    rc = run(["--seed", "5", "--out", td2, "tower", "build", "--catalog", files / "q.json",
              "--stages", "3", "--deltas", "0", "--dim-cap", "4"])
    assert rc == 0
    rc = run(["--out", tmp_path, "tower", "backforth", td, td2, "--steps", "1", "--start", "3"])
    assert rc == 0
    doc = json.loads((tmp_path / "backforth.json").read_text())
    assert doc["boundsOk"] is True


def test_rejected_arguments_exit_2_with_json(tmp_path, files, capsys):
    q, one = files / "q.json", files / "id.json"
    tower, other = tmp_path / "tower", tmp_path / "other"
    for seed, out in (("0", tower), ("5", other)):
        assert run(["--seed", seed, "--out", out, "tower", "build", "--catalog", q,
                    "--stages", "2", "--deltas", "0", "--dim-cap", "4"]) == 0
    line = io.space_to_doc(line_space(1))
    io.write_json(tmp_path / "net.json", {"format": io.FORMAT, "domain": line, "codomain": line,
                                          "points": [[["1"]], [["-1"]]], "resolution": "2"})
    io.write_json(tmp_path / "c.json", {"format": io.FORMAT, "kind": "discrete", "colours": 1,
                                        "table": [{"matrix": [["1"]], "value": 0},
                                                  {"matrix": [["-1"]], "value": 0}]})
    io.write_json(tmp_path / "clamp.json", {"format": io.FORMAT, "kind": "continuous", "level": 1,
                                            "builtin": ["coordinate-clamp", "0"]})
    plane = MultiSpace((PolyhedralSeminorm.linf(2),))
    io.write_json(tmp_path / "plane.json", io.space_to_doc(plane))
    io.write_json(tmp_path / "into.json", io.map_to_doc(LinearMap(line_space(1), plane, Matrix.from_rows([[1], [0]]))))
    assert run(["--out", tmp_path / "plane-net", "ramsey", "net", "--x", q, "--y", tmp_path / "plane.json",
                "--eps", "1"]) == 0
    spaces = ["--x", q, "--y", q, "--z", q, "--f", one, "--g", one, "--eps", "1/2", "--delta=-1/4"]
    build = ["--out", tmp_path / "unbuilt", "tower", "build", "--catalog", q]
    commands = [
        ["map", "check", one, "--delta=-1/4"],
        ["amalgam", "push", *spaces],
        ["amalgam", "product", *spaces],
        ["ramsey", "oscillate", "--net", tmp_path / "net.json", "--colouring", tmp_path / "c.json"],
        ["ramsey", "search", "--net-xz", tmp_path / "plane-net" / "net.json", "--net-xy", tmp_path / "net.json",
         "--colouring", tmp_path / "clamp.json", "--candidates", tmp_path / "into.json", "--eps", "1/2"],
        ["ramsey", "net", "--x", q, "--y", q, "--eps", "0"],
        ["ramsey", "net", "--x", q, "--y", q, "--eps=-1/2"],
        [*build, "--stages", "0"],
        [*build, "--stages", "2", "--deltas", "1/4"],
        [*build, "--stages", "3", "--pairs-per-stage", "-2"],
        [*build, "--stages", "3", "--dim-cap", "-4"],
        ["ramsey", "product", "--x", q, "--blocks", q, "--rho", one, "--colouring", tmp_path / "clamp.json",
         "--samples", "-3"],
        ["tower", "backforth", tower, tower, "--steps", "0"],
        ["tower", "backforth", tower, other, "--start=-1"],
        ["tower", "backforth", tower, tower, "--start=-1"],
        ["tower", "backforth", tower, other, "--start=-5"],
    ]
    capsys.readouterr()
    for argv in commands:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "BadArgument", argv
    assert not (tmp_path / "unbuilt").exists()


def test_tower_build_rejects_a_negative_delta_before_building(tmp_path, capsys):
    for i in (1, 2):
        io.write_json(tmp_path / f"l{i}.json", io.space_to_doc(line_space(i)))
    for seed in range(1, 6):
        out = tmp_path / f"tower{seed}"
        rc = run(["--seed", seed, "--out", out, "tower", "build", "--catalog", tmp_path / "l1.json",
                  tmp_path / "l2.json", "--stages", "5", "--deltas", "0,-1/4", "--dim-cap", "8"])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err) == (2, {"error": "BadArgument", "detail": "delta must be nonnegative"}), seed
        assert not out.exists()


def test_kernel_invariants_of_many_levels_are_refused_at_once(tmp_path, capsys):
    many = tmp_path / "many.json"
    io.write_json(many, io.space_to_doc(line_space(*[1] * 20)))
    for argv in (["iso", "bm", many, many], ["iso", "build", many, many], ["space", "invariant", many]):
        start = time.perf_counter()
        rc = run(argv)
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), argv
        assert json.loads(captured.err)["error"] == "BadLength", argv


def test_ramsey_net_and_search(tmp_path, files):
    rc = run(["--out", tmp_path, "ramsey", "net", "--x", files / "q.json",
              "--y", files / "q.json", "--eps", "2"])
    assert rc == 0
    net = io.net_from_doc(io.read_json(tmp_path / "net.json"))
    assert len(net.points) == 2
    colour_doc = {
        "format": "msn/1", "kind": "discrete", "colours": 1,
        "table": [{"matrix": io.matrix_to_doc(p.matrix), "value": 0} for p in net.points],
    }
    io.write_json(tmp_path / "c.json", colour_doc)
    rc = run(["--out", tmp_path, "ramsey", "search",
              "--net-xz", tmp_path / "net.json", "--net-xy", tmp_path / "net.json",
              "--colouring", tmp_path / "c.json",
              "--candidates", files / "id.json", "--eps", "1/2"])
    assert rc == 0
    wit = json.loads((tmp_path / "witness.json").read_text())
    assert wit["colour"] == 0


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["msn"]]
    assert len(commands) == 7
    parser = make_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_console_entry_point(files):
    out = subprocess.run([sys.executable, "-m", "msn.cli", "space", "inspect",
                          str(files / "q.json")], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 1
