"""Byte-for-byte golden records of ``msn map check``.

``map_check_golden.json`` holds, for each map below, the map document,
the delta it is checked at, the exit code and the exact stdout and
stderr of ``msn map check``.  Most maps fail, so the records pin the
failure witnesses: upper (a unit-ball point attaining the operator
seminorm), kernel escape (an infinite upper sup), lower (a sphere point
read off the lower constant's gauge LP, or a kernel vector of the
pullbacks scaled to the sphere) and injectivity.  The records were
written with the Fraction-based seminorm evaluation and the
two-pullback embedding check that preceded the integer ones; the one
lower witness that changed when witnesses came to be read off the gauge
LP instead of per-facet LPs, ``random-5``'s, was re-recorded then.
Regenerate only when a change is meant to alter the witnesses:

    PYTHONPATH=src:tests python -c "import test_map_check_golden as t; t.write_golden()"
"""

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

from msn import io
from msn.cli import main
from msn.linalg import Matrix
from msn.maps import LinearMap
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, line_space

from genhelpers import image_space, random_invertible, random_space

F = Fraction
S = PolyhedralSeminorm.from_functionals
GOLDEN = Path(__file__).with_name("map_check_golden.json")


def _raw(rng, dim, count):
    funcs = []
    while len(funcs) < count:
        f = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        if any(f):
            funcs.append(f)
    return funcs


def golden_maps():
    """``(name, map, delta)`` triples: hand-made failures, then seeded ones."""
    q = line_space(1)
    linf2 = MultiSpace.make((S(2, [(1, 0), (0, 1)]),))
    with_kernel = MultiSpace.make((S(2, [(1, 0)]),))
    degenerate = MultiSpace.make((S(2, [(0, 1)]),))
    coords = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)])))
    out = [
        ("upper", LinearMap(q, q, Matrix.from_rows([[2]])), "1/2"),
        ("lower", LinearMap(q, q, Matrix.from_rows([[F(1, 3)]])), "1"),
        ("lower-zero", LinearMap(q, degenerate, Matrix.from_rows([[1], [0]])), "0"),
        ("kernel-escape", LinearMap(with_kernel, linf2, Matrix.identity(2)), "0"),
        ("injectivity", LinearMap(with_kernel, q, Matrix.from_rows([[0, 1]])), "0"),
        ("second-level", LinearMap(coords, coords, Matrix.from_rows([[1, 0], [0, F(5, 4)]])), "1/8"),
        ("pass", LinearMap(q, linf2, Matrix.from_rows([[1], [1]])), "0"),
    ]
    rng = random.Random(0x3A9)
    for trial in range(10):
        # certify-style: an isometry scaled by 1 + delta (an upper failure at
        # delta / 2) or by 1 / (1 + delta) (a lower one)
        dim, lam = rng.randint(2, 3), rng.randint(1, 2)
        X = MultiSpace(tuple(S(dim, _raw(rng, dim, rng.randint(3, 5))) for _ in range(lam)))
        T = random_invertible(rng, dim)
        delta = F(1 + trial % 3, 4)
        scale = 1 + delta if trial % 2 else 1 / (1 + delta)
        out.append((f"certify-{trial}", LinearMap(X, image_space(X, T), T.scale(scale)), str(delta / 2)))
    for trial in range(10):
        # injective maps with mixed denominators between unrelated spaces,
        # some levels with kernels: infinite sups and zero lower constants
        dim = rng.randint(2, 3)
        W, Y = random_space(rng, dim, 2), random_space(rng, dim, 2, max_funcs=4)
        D = Matrix.from_rows([[F(rng.randint(1, 3), rng.randint(1, 3)) if i == j else 0 for j in range(dim)]
                              for i in range(dim)])
        out.append((f"random-{trial}", LinearMap(W, Y, random_invertible(rng, dim).mul(D)), "1/4"))
    return out


def _check(doc, delta, tmp):
    """``(exit code, stdout, stderr)`` of ``msn map check`` on ``doc``."""
    path = Path(tmp) / "f.json"
    io.write_json(path, doc)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["map", "check", str(path), "--delta", delta])
    return rc, out.getvalue(), err.getvalue()


def write_golden():
    recs = []
    with TemporaryDirectory() as tmp:
        for name, f, delta in golden_maps():
            doc = io.map_to_doc(f)
            rc, out, err = _check(doc, delta, tmp)
            recs.append({"name": name, "delta": delta, "map": doc, "rc": rc, "out": out, "err": err})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs) + "\n]\n")


def test_map_check_output_matches_golden(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    assert [r["name"] for r in recorded] == [name for name, _, _ in golden_maps()]
    kinds = set()
    for rec in recorded:
        got = _check(rec["map"], rec["delta"], tmp_path)
        assert got == (rec["rc"], rec["out"], rec["err"]), rec["name"]
        if rec["err"]:
            kinds.add(json.loads(rec["err"])["witness"]["kind"])
    assert kinds == {"upper", "lower", "injectivity"}, kinds
