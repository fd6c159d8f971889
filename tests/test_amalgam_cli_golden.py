"""Byte-for-byte golden records of the amalgam commands and ``tower backforth``.

``amalgam_cli_golden.json`` holds, for each case below, the input files
(space, map and tower documents), the command line, the exit code and
the exact stdout and stderr.  The amalgam cases run ``amalgam push``
(plain, ``--graded`` and ``--separated``), ``amalgam product`` and
``amalgam multi`` on seeded ``genhelpers.block_embedding_triple`` inputs;
the back-and-forth cases run ``sparse_pushout`` through the tower
layer.  The records were written with the amalgam module as it stood
before its constructions shared one direct-sum skeleton.  Regenerate
only when a change is meant to alter the outputs:

    PYTHONPATH=src:tests python -c "import test_amalgam_cli_golden as t; t.write_golden()"

``write_golden`` re-runs each recorded case on its recorded files and
command line, so inputs written by older code (the back-and-forth towers
predate one file per distinct stage) stay as they are, and it adds the
cases of ``golden_cases()`` whose names are not recorded yet.
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
from msn.maps import LinearMap
from msn.spaces import is_separated, line_space
from msn.tower import build_tower

from genhelpers import block_embedding_triple

F = Fraction
GOLDEN = Path(__file__).with_name("amalgam_cli_golden.json")
TRIPLE_FILES = ("x.json", "y.json", "z.json", "f.json", "g.json")


def _triple(rng, keep=lambda X, Y, Z: True, graded=False, size=2):
    """Seeded block-embedding triple, redrawn until ``keep(X, Y, Z)`` holds;
    ``size`` caps the dimension of X and of each extra block."""
    while True:
        dim_x, lam_x = rng.randint(1, size), rng.randint(1, 2)
        X, Y, Z, f, g = block_embedding_triple(
            rng, dim_x, rng.randint(0, size), rng.randint(0, size), lam_x,
            rng.randint(lam_x, 3), rng.randint(lam_x, 3), delta=F(rng.randint(0, 2), 8), graded=graded)
        if keep(X, Y, Z):
            return X, Y, Z, f, g


def _no_kernel(*spaces):
    return all(is_separated(S) and not any(s.is_zero() for s in S.seminorms) for S in spaces)


def _triple_docs(X, Y, Z, f, g):
    return dict(zip(TRIPLE_FILES, (io.space_to_doc(X), io.space_to_doc(Y), io.space_to_doc(Z),
                                   io.map_to_doc(f), io.map_to_doc(g))))


def _tower_files(seed):
    tower = build_tower((line_space(1), line_space(2)), [F(0)], 4, seed=seed, dim_cap=4)
    with TemporaryDirectory() as tmp:
        io.save_tower(tower, tmp)
        return {p.name: json.loads(p.read_text()) for p in sorted(Path(tmp).iterdir())}


def golden_cases():
    """``(name, files, argv)``: ``files`` maps a path, relative to the
    directory written ``{d}`` in ``argv``, to its document."""
    rng = random.Random(0x5E7)
    out = []
    push = ["amalgam", "push", "--x", "{d}/x.json", "--y", "{d}/y.json", "--z", "{d}/z.json",
            "--f", "{d}/f.json", "--g", "{d}/g.json"]
    for trial in range(4):
        X, Y, Z, f, g = _triple(rng)
        delta, eps = str(f.matrix.entries[0][0] - 1), str(F(1, 2 + trial))
        out.append((f"push-{trial}", _triple_docs(X, Y, Z, f, g), push + ["--delta", delta, "--eps", eps]))
    for trial in range(4):
        # Y not separated, so the sum needs the appended norm level
        X, Y, Z, f, g = _triple(rng, keep=lambda X, Y, Z: not is_separated(Y))
        delta, eps = str(f.matrix.entries[0][0] - 1), str(F(1, 2 + trial))
        out.append((f"push-separated-{trial}", _triple_docs(X, Y, Z, f, g),
                    push + ["--delta", delta, "--eps", eps, "--separated"]))
    for trial in range(4):
        X, Y, Z, f, g = _triple(rng, graded=True)
        delta, eps = str(f.matrix.entries[0][0] - 1), str(F(1, 3 + trial))
        out.append((f"push-graded-{trial}", _triple_docs(X, Y, Z, f, g),
                    push + ["--delta", delta, "--eps", eps, "--graded"]))
    for trial in range(4):
        X, Y, Z, f, g = _triple(rng, keep=_no_kernel)
        delta, eps = str(f.matrix.entries[0][0] - 1), str(F(1, 2 + trial))
        out.append((f"product-{trial}", _triple_docs(X, Y, Z, f, g),
                    ["amalgam", "product"] + push[2:] + ["--delta", delta, "--eps", eps]))
    for trial in range(4):
        # two pairs into Y, (f, f) and (f, -f), folded one after the other
        X, Y, Z, f, g = _triple(rng, size=1)
        delta, eps = str(f.matrix.entries[0][0] - 1), str(F(1, 2 + trial))
        files = {**_triple_docs(X, Y, Z, f, g), "h.json": io.map_to_doc(LinearMap(X, Y, f.matrix.scale(-1)))}
        out.append((f"multi-{trial}", files,
                    ["amalgam", "multi", "--y", "{d}/y.json", "--eps", eps,
                     "--pair", "{d}/x.json:{d}/f.json:{d}/f.json:" + delta,
                     "--pair", "{d}/x.json:{d}/f.json:{d}/h.json:" + delta]))
    for a, b, start in ((11, 12, 3), (3, 5, 2)):
        files = {f"a/{k}": v for k, v in _tower_files(a).items()}
        files.update({f"b/{k}": v for k, v in _tower_files(b).items()})
        out.append((f"backforth-{a}-{b}", files,
                    ["tower", "backforth", "{d}/a", "{d}/b", "--steps", "2", "--start", str(start)]))
    return out


def _run(files, argv, tmp):
    """``(exit code, stdout, stderr)`` of ``msn argv`` with ``files`` written under ``tmp``."""
    root = Path(tmp)
    for rel, doc in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(io.dumps(doc))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([a.replace("{d}", str(root)) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def write_golden(path=GOLDEN):
    """Record every case of ``GOLDEN``, then each new one of ``golden_cases()``, into ``path``."""
    cases = [(rec["name"], rec["files"], rec["argv"]) for rec in json.loads(GOLDEN.read_text())]
    recorded = {name for name, _, _ in cases}
    cases += [case for case in golden_cases() if case[0] not in recorded]
    recs = []
    for name, files, argv in cases:
        with TemporaryDirectory() as tmp:
            rc, out, err = _run(files, argv, tmp)
        recs.append({"name": name, "files": files, "argv": argv, "rc": rc, "out": out, "err": err})
    path.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs) + "\n]\n")


def test_write_golden_reproduces_the_committed_records(tmp_path):
    write_golden(tmp_path / "golden.json")
    assert (tmp_path / "golden.json").read_bytes() == GOLDEN.read_bytes()


def test_amalgam_cli_output_matches_golden(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    kinds = {rec["name"].rstrip("0123456789-") for rec in recorded}
    assert kinds == {"push", "push-separated", "push-graded", "product", "multi", "backforth"}, kinds
    for i, rec in enumerate(recorded):
        got = _run(rec["files"], rec["argv"], tmp_path / str(i))
        assert got == (rec["rc"], rec["out"], rec["err"]), rec["name"]
    assert all(rec["rc"] == 0 and rec["err"] == "" for rec in recorded)
