"""Condensed integer pivoting against two references.

``oracles.full_pivot``/``full_bland_min`` are the full-tableau integer
simplex (one column per variable) that the condensed kernel replaced, and
a Fraction Gauss-Jordan tableau checks them both.  After every pivot the
condensed tableau must agree with the full one on the denominator, on the
entering and leaving variables and on every nonbasic column, while
``basis`` and ``cols`` partition the variables.  ``solve_lp`` must make
the same pivots as ``oracles.full_lp``, the full-tableau two-phase solve.
"""

import random
from fractions import Fraction

import oracles
from msn import _kernel
from msn.errors import Infeasible, Unbounded
from msn.lp import solve_lp


def _gauss_jordan(mat, r, jc):
    prow = [x / mat[r][jc] for x in mat[r]]
    return [prow if i == r else [x - row[jc] * p for x, p in zip(row, prow)]
            for i, row in enumerate(mat)]


def _random_full(rng, m, extra, rhs, entries, obj=False):
    """A den-1 full tableau whose basic columns (a random order) are unit vectors."""
    nvar = m + extra
    basis = rng.sample(range(nvar), m)
    tab = []
    for i in range(m + obj):
        row = [rng.choice(entries) for _ in range(nvar)] + [rng.choice(rhs if i < m else entries)]
        for r, b in enumerate(basis):
            row[b] = int(i == r)
        tab.append(row)
    return tab, basis


def _condense(full, basis):
    cols = [j for j in range(len(full[0]) - 1) if j not in basis]
    return [[row[j] for j in cols] + row[-1:] for row in full], cols


def _assert_agree(full, fden, fbasis, tab, den, basis, cols):
    assert den == fden > 0 and basis == fbasis
    assert sorted(basis + cols) == list(range(len(full[0]) - 1))
    assert tab == [[row[j] for j in cols] + row[-1:] for row in full]
    for r, b in enumerate(basis):
        assert [row[b] for row in full] == [den if i == r else 0 for i in range(len(full))]


def _logged(monkeypatch):
    """Record (row, entering, leaving, degenerate) for every pivot of both kernels."""
    logs = {"full": [], "condensed": []}
    full_pivot, pivot = oracles.full_pivot, _kernel.pivot

    def full(tab, den, basis, r, jc):
        logs["full"].append((r, jc, basis[r], tab[r][-1] == 0))
        return full_pivot(tab, den, basis, r, jc)

    def condensed(tab, den, basis, cols, r, jc):
        logs["condensed"].append((r, cols[jc], basis[r], tab[r][-1] == 0))
        return pivot(tab, den, basis, cols, r, jc)

    monkeypatch.setattr(oracles, "full_pivot", full)
    monkeypatch.setattr(_kernel, "pivot", condensed)
    return logs


def _run_both(full, fbasis, nbody, logs, den0=1):
    """Both simplex kernels from one start; returns (status, pivot log, condensed tab)."""
    tab, cols = _condense(full, fbasis)
    basis = fbasis[:]
    ref = [[Fraction(x, den0) for x in row] for row in full]
    logs["full"].clear()
    logs["condensed"].clear()
    fstatus, fden = oracles.full_bland_min(full, den0, fbasis, nbody, nbody)
    status, den = _kernel.bland_min(tab, den0, basis, cols, nbody, nbody)
    assert status == fstatus and logs["condensed"] == logs["full"]
    _assert_agree(full, fden, fbasis, tab, den, basis, cols)
    for r, enter, _, _ in logs["full"]:
        ref = _gauss_jordan(ref, r, enter)
    assert [[Fraction(x, den) for x in row] for row in full] == ref
    return status, logs["full"], [[Fraction(x, den) for x in row] for row in tab]


def test_pivot_sequences_match_fraction_reference():
    rng = random.Random(5150)
    steps = 0
    for _ in range(200):
        m = rng.randint(1, 5)
        full, fbasis = _random_full(rng, m, rng.randint(1, 5), range(-9, 10), (0, 0, -3, -1, 1, 2, 5, 9))
        tab, cols = _condense(full, fbasis)
        basis = fbasis[:]
        fden = den = 1
        ref = [[Fraction(x) for x in row] for row in full]
        for _ in range(6):
            cands = [(r, j) for r in range(m) for j in range(len(cols)) if tab[r][j] > 0]
            if not cands:
                break
            r, jc = rng.choice(cands)
            enter, leave = cols[jc], basis[r]
            fden = oracles.full_pivot(full, fden, fbasis, r, enter)
            den = _kernel.pivot(tab, den, basis, cols, r, jc)
            ref = _gauss_jordan(ref, r, enter)
            steps += 1
            assert basis[r] == enter and cols[jc] == leave
            _assert_agree(full, fden, fbasis, tab, den, basis, cols)
            assert [[Fraction(x, den) for x in row] for row in full] == ref
    assert steps >= 500


def test_bland_min_matches_full_tableau_on_degenerate_lps(monkeypatch):
    logs = _logged(monkeypatch)
    rng = random.Random(2718)
    outcomes = {0: 0, 1: 0}
    pivots = []
    for _ in range(1000):
        m = rng.randint(1, 6)
        # Few distinct small values: ties in the costs and in the ratio test,
        # and zero bounds, so many pivots are degenerate.
        full, fbasis = _random_full(rng, m, rng.randint(1, 6), (0, 0, 0, 1, 2), (-2, -1, -1, 0, 0, 1, 1, 2), obj=True)
        status, log, _ = _run_both(full, fbasis, m, logs)
        outcomes[status] += 1
        pivots += log
    assert min(outcomes.values()) >= 50
    assert len(pivots) >= 600 and sum(p[-1] for p in pivots) >= 300


def test_bland_fallback_breaks_a_cycle(monkeypatch):
    # Chvatal's cycling example, min -10x1 + 57x2 + 9x3 + 24x4 over
    # 1/2x1 - 11/2x2 - 5/2x3 + 9x4 <= 0, 1/2x1 - 3/2x2 - 1/2x3 + x4 <= 0,
    # x1 <= 1, x >= 0, written over den 2 with slack basis x5, x6, x7.  The
    # most-negative rule cycles until the degenerate streak passes 10 + 3.
    logs = _logged(monkeypatch)
    full = [[1, -11, -5, 18, 2, 0, 0, 0],
            [1, -3, -1, 2, 0, 2, 0, 0],
            [2, 0, 0, 0, 0, 0, 2, 2],
            [-20, 114, 18, 48, 0, 0, 0, 0]]
    status, log, tab = _run_both(full, [4, 5, 6], 3, logs, den0=2)
    assert status == 0 and all(p[-1] for p in log[:14]) and len(log) > 14
    assert tab[3][-1] == 1  # the negated minimum


def test_solve_lp_pivots_like_the_full_tableau(monkeypatch):
    logs = _logged(monkeypatch)
    rng = random.Random(1618)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    pivots = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 7)):
            a = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
            b = rng.choice((-2, -1, 0, 0, 1, 2, 3))
            rows.append((a, b))
            if rng.random() < 0.4:  # an equality: one of the pair has a negative bound
                rows.append(([-x for x in a], -b))
            if rng.random() < 0.2:
                rows.append((a, b))
        c = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(n)]
        logs["full"].clear()
        logs["condensed"].clear()
        expected = oracles.full_lp(c, rows)
        try:
            solve_lp(c, rows)
            got = "optimal"
        except Infeasible:
            got = "infeasible"
        except Unbounded:
            got = "unbounded"
        assert got == expected and logs["condensed"] == logs["full"]
        outcomes[got] += 1
        pivots += len(logs["full"])
    assert min(outcomes.values()) >= 40 and pivots >= 800
