"""Malformed space, map and tower files end in exit code 1 with a FormatError JSON.

Valid files are mutated the ways hand-edited inputs go wrong: a dropped
key, a value of the wrong JSON type, a rational written as a number, a
zero denominator, a negative dimension, truncated JSON, or a space
reference naming no catalog or stage file of the tower.  Every
mutant is run through ``cli.main``, which must return 1 and write a
``FormatError`` diagnostic, never raise.  Tower directories get one
mutated file each and are run through ``msn tower verify``.
"""

import contextlib
import copy
import io as stdio
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msn import io
from msn.cli import main
from msn.linalg import Matrix
from msn.maps import LinearMap, identity_map
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, line_space, trivial_space
from msn.tower import build_tower

S = PolyhedralSeminorm.from_functionals
F = Fraction

_X2 = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 0), (0, 1), (1, F(-1, 2))])), graded=True)
_X3 = MultiSpace.make((S(3, [(1, 0, 0), (0, 1, 0), (0, 0, F(2, 3))]),))
VALID = [
    ("space", io.space_to_doc(_X2)),
    ("space", io.space_to_doc(_X3)),
    ("space", io.space_to_doc(line_space(F(3, 2), 2))),
    ("map", io.map_to_doc(identity_map(_X2))),
    ("map", io.map_to_doc(LinearMap(_X3, _X3, Matrix.from_rows([[1, 0, 0], [0, 1, F(1, 4)], [0, 0, 1]])))),
]
# One value of each JSON type; a retyped node gets one of a different type.
OTHER_TYPES = [0, -1, 1.5, True, None, "x", [], ["1"], {}, {"format": io.FORMAT}]
# Dangling space references: other tower files, and a stage file that does not exist.
DANGLING = ["link0.json", "members.json", "stage9.json"]


def _nodes(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _rational(path):
    return any(k in path for k in ("functionals", "matrix", "deltas", "delta", "eps", "bounds"))


def _set(doc, path, value):
    if not path:
        return value
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


def _mutate(draw, doc):
    """The text of ``doc`` after one drawn mutation."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    rationals = [(p, v) for p, v in nodes if isinstance(v, str) and _rational(p)]
    dims = [p for p, _ in nodes if p and p[-1] == "dim"]
    refs = [p for p, v in nodes if p and p[-1] in ("domain", "codomain") and isinstance(v, str)]
    hows = (["drop", "retype"] + (["number", "div0"] if rationals else [])
            + (["negdim"] if dims else []) + (["dangle"] if refs else []) + ["truncate"])
    how = draw(st.sampled_from(hows))
    if how == "drop":
        keys = [(p, k) for p, v in nodes if isinstance(v, dict) for k in v if k != "graded"]
        path, key = draw(st.sampled_from(keys))
        node = doc
        for k in path:
            node = node[k]
        del node[key]
    elif how == "retype":
        path, old = draw(st.sampled_from(nodes))
        new = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
        doc = _set(doc, path, copy.deepcopy(new))
    elif how in ("number", "div0"):
        path, old = draw(st.sampled_from(rationals))
        x = Fraction(old)
        new = "1/0" if how == "div0" else x.numerator if x.denominator == 1 else float(x)
        doc = _set(doc, path, new)
    elif how == "negdim":
        path = draw(st.sampled_from(dims))
        doc = _set(doc, path, -draw(st.integers(1, 4)))
    elif how == "dangle":
        doc = _set(doc, draw(st.sampled_from(refs)), draw(st.sampled_from(DANGLING)))
    text = io.dumps(doc)
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text.rstrip()) - 1))]
    return text


@st.composite
def mutants(draw):
    kind, doc = draw(st.sampled_from(VALID))
    return kind, _mutate(draw, doc)


def _run(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(text)
        argv = (["space", "inspect", str(path)] if kind == "space"
                else ["map", "check", str(path), "--delta", "1"])
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            rc = main(argv)
    return rc, err.getvalue()


def test_valid_files_load():
    for kind, doc in VALID:
        assert _run(kind, io.dumps(doc)) == (0, "")


@settings(max_examples=400)
@given(mutants())
def test_mutated_files_fail_with_format_error(case):
    rc, err = _run(*case)
    assert rc == 1
    assert json.loads(err)["error"] == "FormatError"


BAD_LITERALS = ["1e100000000", "1e2", "0.5", "1.", " 1", "1 ", "1\n", "1_000", "+1", "+1/2",
                "١", "1/٢", "1/0", "-1/-2", "1/+2", "--1", "1//2", "/2", "1/", "-", ""]


def test_rationals_are_integers_or_fractions_of_ascii_digits():
    for s, want in (("0", 0), ("-0", 0), ("7", 7), ("-3/4", F(-3, 4)), ("6/8", F(3, 4)), ("0/5", 0)):
        assert io.rat_from_str(s) == want
    for s in BAD_LITERALS:
        with pytest.raises(io.FormatError):
            io.rat_from_str(s)


def test_space_file_with_a_bad_literal_fails_fast_with_format_error():
    doc = io.space_to_doc(_X3)
    for s in BAD_LITERALS:
        doc["seminorms"][0]["functionals"][0][0] = s
        start = time.perf_counter()
        rc, err = _run("space", io.dumps(doc))
        # an exponent must not expand into a many-megabit integer
        assert time.perf_counter() - start < 1
        assert (rc, json.loads(err)["error"]) == (1, "FormatError"), s


def test_empty_matrix_loads_only_into_the_zero_space():
    q = io.space_to_doc(line_space(1))
    doc = {"format": io.FORMAT, "domain": q, "codomain": q, "matrix": []}
    rc, err = _run("map", io.dumps(doc))
    assert (rc, json.loads(err)["error"]) == (1, "FormatError")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        io.write_json(path, doc)
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()) as out:
            assert main(["map", "opnorm", str(path)]) == 1
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "FormatError"
    f = io.map_from_doc({**doc, "codomain": io.space_to_doc(trivial_space(1))})
    assert f.matrix == Matrix.zero(0, 1)


def _tower_files():
    tower = build_tower((line_space(1), line_space(2)), [F(0), F(1, 4)], 3, seed=3, dim_cap=4)
    with tempfile.TemporaryDirectory() as tmp:
        io.save_tower(tower, tmp)
        return {p.name: json.loads(p.read_text()) for p in sorted(Path(tmp).iterdir())}


TOWER = _tower_files()


@st.composite
def tower_mutants(draw):
    name = draw(st.sampled_from(sorted(TOWER)))
    return name, _mutate(draw, TOWER[name])


def _verify(name=None, text=None):
    with tempfile.TemporaryDirectory() as tmp:
        for file, doc in TOWER.items():
            (Path(tmp) / file).write_text(text if file == name else io.dumps(doc))
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            rc = main(["tower", "verify", tmp])
    return rc, err.getvalue()


def test_valid_tower_verifies():
    assert _verify() == (0, "")


@settings(max_examples=200)
@given(tower_mutants())
def test_mutated_tower_fails_with_format_error(case):
    rc, err = _verify(*case)
    assert rc == 1
    assert json.loads(err)["error"] == "FormatError"


def _no_members(doc):
    doc["embeddings"] = []


def _identity_member(doc):
    doc["embeddings"][1][0] = {"format": io.FORMAT, "domain": "catalog0.json",
                               "codomain": "catalog0.json", "matrix": [["1"]]}


def _link_between_catalog_members(doc):
    doc.update(domain="catalog0.json", codomain="catalog1.json", matrix=[["1"]])


def _eta_from_another_member(doc):
    doc["records"][0]["eta"]["domain"] = "catalog1.json"


@pytest.mark.parametrize("name, edit", [("members.json", _no_members), ("members.json", _identity_member),
                                        ("link0.json", _link_between_catalog_members),
                                        ("discharges.json", _eta_from_another_member)])
def test_tower_maps_must_join_the_spaces_their_place_fixes(name, edit):
    """Well-formed maps in the wrong places: no member table (verify counted 13
    checks, not 19), a member mapping catalog 0 to itself (verified ok), a
    link between two catalog members and a discharge whose gamma and eta
    leave different members (each a ShapeMismatch in verify)."""
    doc = copy.deepcopy(TOWER[name])
    edit(doc)
    rc, err = _verify(name, io.dumps(doc))
    assert rc == 1
    diag = json.loads(err)
    assert diag["error"] == "FormatError" and diag["detail"].startswith(name), diag


def test_net_and_colouring_documents_are_checked():
    q = io.space_to_doc(line_space(1))
    net = {"format": io.FORMAT, "domain": q, "codomain": q, "points": [[["1"]], [["-1"]]],
           "resolution": "2"}
    assert len(io.net_from_doc(net).points) == 2
    for key, bad in (("points", [[["1", "0"]]]), ("points", None), ("domain", "q.json"), ("resolution", 2)):
        with pytest.raises(io.FormatError):
            io.net_from_doc({**net, key: bad})
    colouring = {"format": io.FORMAT, "kind": "discrete", "colours": 2,
                 "table": [{"matrix": [["1"]], "value": 0}, {"matrix": [["-1"]], "value": 1}]}
    assert io.colouring_from_doc(colouring).table[1] == (Matrix.from_rows([[-1]]), 1)
    clamp = {"format": io.FORMAT, "kind": "continuous", "level": 1, "builtin": ["coordinate-clamp", "0"]}
    assert io.colouring_from_doc(clamp).builtin == ("coordinate-clamp", 0)
    for doc in ({**colouring, "kind": "x"}, {**colouring, "colours": "2"},
                {**colouring, "table": [{"matrix": [["1"]], "value": "0"}]},
                {**colouring, "table": [{"matrix": [["1"]]}]},
                {k: v for k, v in colouring.items() if k != "table"},
                {**clamp, "builtin": []}, {**clamp, "builtin": ["coordinate-clamp", 0]},
                {**clamp, "level": True}):
        with pytest.raises(io.FormatError):
            io.colouring_from_doc(doc)


def _oscillate(colouring):
    """``(exit code, stderr)`` of ``msn ramsey oscillate`` on a two-point net of the line."""
    q = io.space_to_doc(line_space(1))
    net = {"format": io.FORMAT, "domain": q, "codomain": q, "points": [[["1"]], [["-1"]]], "resolution": "2"}
    with tempfile.TemporaryDirectory() as tmp:
        io.write_json(Path(tmp) / "net.json", net)
        (Path(tmp) / "c.json").write_text(io.dumps(colouring))
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            rc = main(["ramsey", "oscillate", "--net", str(Path(tmp) / "net.json"),
                       "--colouring", str(Path(tmp) / "c.json"), "--eps", "1"])
    return rc, err.getvalue()


def test_malformed_colouring_files_fail_with_format_error():
    clamp = {"format": io.FORMAT, "kind": "continuous", "level": 1, "builtin": ["coordinate-clamp", "0"]}
    table = [{"matrix": [["1"]], "value": 0}, {"matrix": [["-1"]], "value": 1}]
    assert _oscillate(clamp) == (0, "")
    assert _oscillate({"format": io.FORMAT, "kind": "discrete", "colours": 2, "table": table}) == (0, "")
    bad = [{**clamp, "builtin": b} for b in (
        ["distance-to", "x"], ["distance-to"], ["rainbow"], ["coordinate-clamp"], ["coordinate-clamp", "x"],
        ["coordinate-clamp", "--5"], ["coordinate-clamp", "-1"], ["coordinate-clamp", "1.0"],
        ["coordinate-clamp", "²"], ["coordinate-clamp", "0", "1"])]
    bad.append({"format": io.FORMAT, "kind": "discrete", "table": table})
    # coordinate-clamp takes values in [0, 1]: a continuous colouring, never a discrete one
    bad.append({"format": io.FORMAT, "kind": "discrete", "colours": 2, "builtin": ["coordinate-clamp", "0"]})
    # a colour count below one, and table values outside 0..colours-1
    bad += [{"format": io.FORMAT, "kind": "discrete", "colours": k, "table": table} for k in (-2, 0)]
    bad += [{"format": io.FORMAT, "kind": "discrete", "colours": 2,
             "table": [table[0], {"matrix": [["-1"]], "value": v}]} for v in (2, -1)]
    for doc in bad:
        rc, err = _oscillate(doc)
        assert (rc, json.loads(err)["error"]) == (1, "FormatError"), doc
    # a well-formed coordinate the net's points do not have
    rc, err = _oscillate({**clamp, "builtin": ["coordinate-clamp", "7"]})
    assert (rc, json.loads(err)["error"]) == (2, "UndefinedPoint")


def test_clamp_on_a_net_out_of_the_zero_space_is_an_undefined_point(tmp_path):
    """A map out of the zero space has no column for ``coordinate-clamp`` to
    read: exit 2 with ``UndefinedPoint``, as a table missing a point does."""
    zero = {"format": io.FORMAT, "dim": 0, "graded": False, "seminorms": [{"functionals": []}]}
    io.write_json(tmp_path / "net.json", {"format": io.FORMAT, "domain": zero,
                                          "codomain": io.space_to_doc(line_space(1)), "points": [[[]], [[]]]})
    io.write_json(tmp_path / "c.json", {"format": io.FORMAT, "kind": "continuous",
                                        "builtin": ["coordinate-clamp", "0"]})
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        rc = main(["ramsey", "oscillate", "--net", str(tmp_path / "net.json"),
                   "--colouring", str(tmp_path / "c.json")])
    assert (rc, json.loads(err.getvalue())["error"]) == (2, "UndefinedPoint")


def test_net_points_that_are_not_exact_embeddings_fail_with_format_error(tmp_path):
    """A net point must be an exact embedding and the resolution positive:
    otherwise ``msn ramsey oscillate`` ends in a ``FormatError``, not a traceback."""
    zero = {"format": io.FORMAT, "dim": 1, "graded": False, "seminorms": [{"functionals": []}]}
    line = io.space_to_doc(line_space(1))
    net = {"format": io.FORMAT, "domain": zero, "codomain": line, "points": [[["1"]], [["2"]]]}
    colouring = {"format": io.FORMAT, "kind": "discrete", "colours": 2,
                 "table": [{"matrix": [["1"]], "value": 0}, {"matrix": [["2"]], "value": 1}]}
    good = {"format": io.FORMAT, "domain": line, "codomain": line, "points": [[["1"]], [["-1"]]]}
    cases = [
        (net, "point 0 is not an exact embedding"),
        ({**good, "points": [[["1"]], [["2"]]]}, "point 1 is not an exact embedding"),
        ({**good, "domain": io.space_to_doc(line_space(1, 2))}, "more seminorms"),
        ({**good, "resolution": "0"}, "resolution must be positive"),
        ({**good, "resolution": "-1/2"}, "resolution must be positive"),
    ]
    io.write_json(tmp_path / "c.json", colouring)
    for doc, detail in cases:
        io.write_json(tmp_path / "net.json", doc)
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            rc = main(["ramsey", "oscillate", "--net", str(tmp_path / "net.json"),
                       "--colouring", str(tmp_path / "c.json"), "--eps", "1/2"])
        diag = json.loads(err.getvalue())
        assert (rc, diag["error"]) == (1, "FormatError"), doc
        assert detail in diag["detail"], diag
