import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from msn import io
from msn.cli import main
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


def test_map_check_exit_codes(files, capsys):
    assert run(["map", "check", files / "id.json", "--delta", "0"]) == 0
    rc = run(["map", "check", files / "two.json", "--delta", "1/2"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotAnEmbedding" and err["witness"]["kind"] == "upper"
    assert run(["map", "check", files / "two.json", "--delta", "1"]) == 0


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
    assert NotAnEmbedding("no", wit).payload()["witness"] == want
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


def test_console_entry_point(files):
    out = subprocess.run([sys.executable, "-m", "msn.cli", "space", "inspect",
                          str(files / "q.json")], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["dim"] == 1
