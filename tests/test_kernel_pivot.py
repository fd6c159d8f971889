"""Integer pivoting against a Fraction Gauss-Jordan reference.

Runs on whichever kernel backend is installed, so the pure pivot is always
covered (``test_kernel_parity`` needs the compiled extension).
"""

import random
from fractions import Fraction

import pytest

from msn import _kernel
from msn._kernel import pure

PIVOTS = {"pure": pure.pivot, _kernel.BACKEND: _kernel.pivot}


def _gauss_jordan(mat, r, jc):
    prow = [x / mat[r][jc] for x in mat[r]]
    return [prow if i == r else [x - row[jc] * p for x, p in zip(row, prow)]
            for i, row in enumerate(mat)]


@pytest.mark.parametrize("backend", sorted(PIVOTS))
def test_pivot_sequences_match_fraction_reference(backend):
    pivot = PIVOTS[backend]
    rng = random.Random(5150)
    steps = 0
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(2, 7)
        tab = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        basis = list(range(m))
        den = 1
        ref = [[Fraction(x) for x in row] for row in tab]
        for _ in range(6):
            cands = [(r, j) for r in range(m) for j in range(n) if tab[r][j] > 0]
            if not cands:
                break
            r, jc = rng.choice(cands)
            den = pivot(tab, den, basis, r, jc)
            ref = _gauss_jordan(ref, r, jc)
            steps += 1
            assert den > 0 and basis[r] == jc
            assert [[Fraction(x, den) for x in row] for row in tab] == ref
    assert steps >= 300
