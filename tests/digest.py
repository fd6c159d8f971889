"""One sha256 over the in-process results of the benchmark's inputs.

A refactor that should change no output is checked by running this script
on the parent checkout and on the changed one and comparing the two lines
it prints::

    python tests/digest.py                  # in the changed checkout
    python /path/to/parent/tests/digest.py  # in the parent checkout

Each run imports ``msn`` from the ``src`` directory of its own checkout and
the workload generators from its ``perfbench/workloads.py`` (read only;
nothing there is changed).  The hash covers the ``repr`` of:

* ``Amalgam`` seed 31337, batches 0-5: the pushout space, both leg matrices
  and the bound certificate;
* ``Certify`` seed 31337, batches 0-2: both loaded spaces and the accept
  and reject results;
* towers for seeds 3, 99, 12345, 7, 11 and 13 over the catalog
  ``line_space(1)``, ``line_space(2)`` with 5 stages, deltas ``0, 1/4`` and
  dimension cap 8: build, ``save_tower``, ``load_tower``, ``verify_tower``;
  the loaded stages, the link matrices and the report.

The script is not collected by pytest; it takes a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import msn.io  # noqa: E402
from msn.spaces import line_space  # noqa: E402
from msn.tower import build_tower, verify_tower  # noqa: E402
from workloads import Amalgam, Certify  # noqa: E402

SEED = 31337
TOWER_SEEDS = (3, 99, 12345, 7, 11, 13)


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


def _towers(h, tmp: Path) -> None:
    catalog = [line_space(1), line_space(2)]
    deltas = [Fraction(0), Fraction(1, 4)]
    for seed in TOWER_SEEDS:
        out = tmp / f"tower{seed}"
        msn.io.save_tower(build_tower(catalog, deltas, 5, seed=seed, dim_cap=8), out)
        tower = msn.io.load_tower(out)
        rep = verify_tower(tower)
        h.update(repr((tower.stages, [link.matrix for link in tower.links], rep)).encode())


def main() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        _amalgam(h)
        _certify(h, Path(tmp))
        _towers(h, Path(tmp))
    return h.hexdigest()


if __name__ == "__main__":
    print(main())
