"""One sha256 over the in-process results of the benchmark's inputs.

A refactor that should change no output is checked by running this script
on the parent checkout and on the changed one and comparing the two lines
it prints::

    python tests/digest.py                  # in the changed checkout
    python /path/to/parent/tests/digest.py  # in the parent checkout

Each run imports ``msn`` from the ``src`` directory of its own checkout and
the workload generators from its ``perfbench/workloads.py`` (read only;
nothing there is changed).  The hash covers the ``repr`` of the objects below, with each
``PolyhedralSeminorm`` written as ``(dim, functionals)`` and each ``Matrix``
as ``(entries, cols)``, their Fraction views, so that the line does not
depend on how a seminorm stores its functionals or a matrix its entries:

* ``Amalgam`` seed 31337, batches 0-5: the pushout space, both leg matrices
  and the bound certificate;
* ``Certify`` seed 31337, batches 0-2: both loaded spaces and the accept
  and reject results;
* towers for seeds 3, 99, 12345, 7, 11 and 13 over the catalog
  ``line_space(1)``, ``line_space(2)`` with 5 stages, deltas ``0, 1/4`` and
  dimension cap 8: build, ``save_tower``, ``load_tower``, ``verify_tower``;
  the loaded stages, the link matrices and the report.

It also covers paths the benchmark inputs barely reach (seeded inputs from
``genhelpers.py``):

* ``build_iso_from_invariant`` and ``bm_upper_bound`` on pairs of a random
  space with its image under a random invertible matrix, and with a second
  random space;
* ``quotient_norm`` of every level and ``pullback_space`` along the first
  columns of a random invertible matrix, on random spaces;
* ``product_amalgam`` on separated block-embedding triples;
* ``graded_closure`` and ``rescale_expansive`` of random spaces, the padded
  space and quotient of ``quotient_lift``, ``pushout_n_preserving`` at
  every cutoff on equal-length block-embedding triples, and
  ``pushout(..., graded=True)`` on graded triples whose upper bands are
  joined with the level below;
* ``back_and_forth`` of two ``line_space(1)``, ``line_space(2)`` towers
  (seeds 11 and 12, dimension cap 4), and four steps from level 3 of the
  loaded seed-3 and seed-12345 towers above, where the chain dimensions
  grow to 55 and the largest ``Matrix.mul`` product is 89 x 55 x 21;
* ``build_net`` of ``line_space(1)`` into random two- and three-dimensional
  spaces;
* ``search_monochromatic`` over every two-colouring of acceptance
  criterion 8's net;
* ``polytope_facets`` of the 832-point symmetric hull of the seed-3
  tower's dimension-8 stage (its 416 functionals and their negatives),
  where a few rays meet hundreds of rows.

``extend_with_norm`` alone is left out: a change may reorder its sup-norm
level on purpose, and that is checked by the tests.  The parent side of a
comparison is run by copying this script into the parent checkout's
``tests`` directory, so both sides hash the same inputs.

The script is not collected by pytest; it takes about ten seconds.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import msn.io  # noqa: E402
from genhelpers import block_embedding_triple, image_space, random_invertible, random_space  # noqa: E402
from msn.amalgam import product_amalgam, pushout, pushout_n_preserving, rescale_expansive  # noqa: E402
from msn.errors import EmptyEmbeddingSet  # noqa: E402
from msn.linalg import Matrix  # noqa: E402
from msn.maps import LinearMap, bm_upper_bound, build_iso_from_invariant  # noqa: E402
from msn.polytope import polytope_facets  # noqa: E402
from msn.ramsey import build_net, discrete_table, quotient_lift, search_monochromatic  # noqa: E402
from msn.seminorms import PolyhedralSeminorm, quotient_norm  # noqa: E402
from msn.spaces import MultiSpace, graded_closure, is_separated, line_space, pullback_space  # noqa: E402
from msn.tower import back_and_forth, build_tower, verify_tower  # noqa: E402
from test_acceptance import _hexagon, _sphere_witness_candidates  # noqa: E402
from workloads import Amalgam, Certify  # noqa: E402

SEED = 31337
TOWER_SEEDS = (3, 99, 12345, 7, 11, 13)

# A seminorm hashes as (dim, functionals) and a matrix as (entries, cols),
# their Fraction views, whatever form they store: the repr of a dataclass
# with those two fields.
PolyhedralSeminorm.__repr__ = lambda s: f"PolyhedralSeminorm(dim={s.dim!r}, functionals={s.functionals!r})"
Matrix.__repr__ = lambda m: f"Matrix(entries={m.entries!r}, cols={m.cols!r})"


def _amalgam(h) -> None:
    w = Amalgam(SEED, None)
    for k in range(6):
        for inp in w.batch(k):
            res = w.run(inp)
            h.update(repr((res.space, res.leg_y.matrix, res.leg_z.matrix,
                           res.bound_certificate)).encode())


def _certify(h, tmp: Path) -> None:
    w = Certify(SEED, tmp / "certify")
    for k in range(3):
        for inp in w.batch(k):
            f, accept, reject = w.run(inp)
            h.update(repr((f.domain, f.codomain, accept, reject)).encode())


def _towers(h, tmp: Path) -> dict:
    """Hash every tower; return the loaded ones by seed."""
    towers = {}
    catalog = [line_space(1), line_space(2)]
    deltas = [Fraction(0), Fraction(1, 4)]
    for seed in TOWER_SEEDS:
        out = tmp / f"tower{seed}"
        msn.io.save_tower(build_tower(catalog, deltas, 5, seed=seed, dim_cap=8), out)
        tower = msn.io.load_tower(out)
        rep = verify_tower(tower)
        h.update(repr((tower.stages, [link.matrix for link in tower.links], rep)).encode())
        towers[seed] = tower
    return towers


def _isos(h) -> None:
    rng = random.Random(SEED)
    for _ in range(12):
        dim = rng.randint(1, 3)
        X = random_space(rng, dim, rng.randint(1, 3))
        for Y in (image_space(X, random_invertible(rng, dim)), random_space(rng, dim, X.length)):
            iso = build_iso_from_invariant(X, Y)
            h.update(repr((X, Y, iso and iso.matrix, bm_upper_bound(X, Y))).encode())


def _quotients_and_pullbacks(h) -> None:
    rng = random.Random(SEED + 1)
    for _ in range(16):
        dim = rng.randint(1, 4)
        X = random_space(rng, dim, rng.randint(1, 3))
        T = random_invertible(rng, dim)
        k = rng.randint(1, dim)
        lift = Matrix.from_rows([r[:k] for r in T.entries], k)
        h.update(repr(([quotient_norm(s) for s in X.seminorms], pullback_space(X, lift))).encode())


def _product_amalgams(h) -> None:
    rng = random.Random(SEED + 2)
    done = 0
    while done < 8:
        lam_x = rng.randint(1, 2)
        X, Y, Z, f, g = block_embedding_triple(
            rng, rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2), lam_x,
            rng.randint(lam_x, 3), rng.randint(lam_x, 3), rng.choice((Fraction(0), Fraction(1, 4))))
        if all(is_separated(T) for T in (X, Y, Z)):
            res = product_amalgam(X, Y, Z, f, g, f.matrix.entries[0][0] - 1, Fraction(1, 2))
            h.update(repr((res.space, res.leg_y.matrix, res.leg_z.matrix, res.bound_certificate)).encode())
            done += 1


def _constructions(h) -> None:
    rng = random.Random(SEED + 4)
    for _ in range(12):
        dim = rng.randint(0, 3)
        X = random_space(rng, dim, rng.randint(1, 3))
        Z = random_space(rng, rng.randint(0, 3), 1)
        Xq, pi, padded, embed_pad, _ = quotient_lift(None, MultiSpace(X.seminorms[:1]), Z)
        h.update(repr((graded_closure(X), [rescale_expansive(X, Fraction(k, 3)) for k in range(3)],
                       Xq, pi.matrix, padded, embed_pad.matrix)).encode())
    for graded in (False, True):
        for _ in range(8):
            lam = rng.randint(1, 3)
            lam_z = rng.randint(lam + 1, 4) if graded else lam
            X, Y, Z, f, g = block_embedding_triple(
                rng, rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1), lam,
                rng.randint(lam, lam_z) if graded else lam, lam_z, graded=graded)
            if graded:
                res = [pushout(X, Y, Z, f, g, 0, Fraction(1, 8), graded=True)]
            else:
                res = [pushout_n_preserving(X, Y, Z, f, g, n, Fraction(1, 8)) for n in range(lam + 1)]
            h.update(repr([(r.space, r.bound_certificate) for r in res]).encode())


def _back_and_forth(h, towers: dict) -> None:
    a, b = (build_tower((line_space(1), line_space(2)), [Fraction(0)], 4, seed=s, dim_cap=4) for s in (11, 12))
    h.update(repr(back_and_forth(a, b, steps=2, start_level=3)).encode())
    h.update(repr(back_and_forth(towers[3], towers[12345], 4, 3)).encode())


def _nets(h) -> None:
    rng = random.Random(SEED + 3)
    for k in range(8):
        Y = random_space(rng, 2 + k % 2, 1)
        try:
            net = build_net(line_space(1), Y, Fraction(2))
            h.update(repr((Y, [p.matrix for p in net.points])).encode())
        except EmptyEmbeddingSet as e:
            h.update(repr((Y, str(e))).encode())


def _criterion_8_search(h) -> None:
    q, res = _hexagon()
    net_xz, net_xy = build_net(q, res.space, Fraction(3, 4)), build_net(q, q, 2)
    firsts = [tuple(r[0] for r in p.matrix.entries) for p in net_xz.points]
    cands = _sphere_witness_candidates(res.space, firsts, Fraction(1, 2))
    candidates = [res.leg_y, res.leg_z] + [LinearMap(q, res.space, Matrix.from_rows([[x] for x in v]))
                                           for v in cands]
    n = len(net_xz.points)
    for mask in range(2 ** n):
        c = discrete_table(net_xz, [(mask >> i) & 1 for i in range(n)], 2)
        gamma, colour = search_monochromatic(c, net_xz, net_xy, candidates, Fraction(1, 2))
        h.update(repr((gamma.matrix, colour)).encode())


def _symmetric_hull(h) -> None:
    stage = build_tower([line_space(1), line_space(2)], [Fraction(0), Fraction(1, 4)], 3, seed=3, dim_cap=8).stages[2]
    funcs = stage.seminorms[0].functionals
    h.update(repr(polytope_facets(list(funcs) + [tuple(-x for x in f) for f in funcs], stage.dim)).encode())


def main() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        _amalgam(h)
        _certify(h, Path(tmp))
        towers = _towers(h, Path(tmp))
    _isos(h)
    _quotients_and_pullbacks(h)
    _product_amalgams(h)
    _constructions(h)
    _back_and_forth(h, towers)
    _nets(h)
    _criterion_8_search(h)
    _symmetric_hull(h)
    return h.hexdigest()


if __name__ == "__main__":
    print(main())
