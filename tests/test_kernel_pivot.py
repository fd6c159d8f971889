"""Compressed integer pivoting against two references.

``oracles.full_pivot``/``full_bland_min`` are the full-tableau integer
simplex (one column per variable, one row per constraint) that the
compressed kernel replaced, and a Fraction Gauss-Jordan tableau checks
them both.  On tableaux with no mates (plain condensed ones), after every
pivot the kernel must agree with the full one on the denominator, on the
entering and leaving variables and on every nonbasic column, while
``basis`` and ``cols`` partition the variables.  With mates (free
variables, ± row pairs), ``solve_lp``, ``gauge_scale``, ``gauge_max`` and
``bland_min`` must make the same pivots as ``oracles.full_lp`` or
``full_bland_min``: the same (row, entering, leaving) and denominator,
and a tableau that ``oracles.expand_tableau`` writes out as the full one.
"""

import random
from fractions import Fraction

import oracles
from msn import _kernel
from msn.errors import Infeasible, Unbounded
from msn.lp import _ball_rows, gauge_max, gauge_scale, solve_lp


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
    status, den = _kernel.bland_min(tab, den0, basis, cols, [None] * len(full[0]))
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


def _lockstep(monkeypatch):
    """Record (row, entering, leaving, den) and the full tableau after every pivot of both kernels.

    The compressed side is written out by ``oracles.expand_tableau`` with the
    ``mates`` of the latest ``bland_min`` call; ``logs["tabs"]`` keeps the
    compressed tableaux that ``bland_min`` starts from, ``logs["ends"]`` its
    tableau, basis and ``cols`` when it returns and ``logs["status"]`` the
    statuses it returns.  The stand-in forwards every argument.
    """
    logs = {"full": [], "compressed": [], "tabs": [], "ends": [], "status": []}
    full_pivot, pivot, bland_min = oracles.full_pivot, _kernel.pivot, _kernel.bland_min
    mates = []

    def full(tab, den, basis, r, jc):
        leave = basis[r]
        den = full_pivot(tab, den, basis, r, jc)
        logs["full"].append((r, jc, leave, den, [row[:] for row in tab]))
        return den

    def compressed(tab, den, basis, cols, r, jc):
        enter, leave = cols[jc], basis[r]
        den = pivot(tab, den, basis, cols, r, jc)
        logs["compressed"].append((r, enter, leave, den, oracles.expand_tableau(tab, den, basis, cols, mates[0])))
        return den

    def minimise(tab, den, basis, cols, m, *rest):
        mates[:] = [m]
        logs["tabs"].append([row if row is None else row[:] for row in tab])
        out = bland_min(tab, den, basis, cols, m, *rest)
        logs["ends"].append(([row if row is None else row[:] for row in tab], basis[:], cols[:]))
        logs["status"].append(out[0])
        return out

    monkeypatch.setattr(oracles, "full_pivot", full)
    monkeypatch.setattr(_kernel, "pivot", compressed)
    monkeypatch.setattr(_kernel, "bland_min", minimise)
    return logs


def _clear(logs):
    for log in logs.values():
        log.clear()


def _drop_dead(tab, live, m):
    """The tableau without artificial columns (ids from ``live`` on) once there is no objective row."""
    return tab if len(tab) > m else [row[:live] + row[-1:] for row in tab]


def _gauge(pi, ball, cap=None):
    """sup pi . x over the ball by one ``solve_lp``, stopped past ``cap`` if given; None if unbounded."""
    try:
        return -solve_lp([-x for x in pi], _ball_rows(ball), floor=None if cap is None else -cap).value
    except Unbounded:
        return None


def test_gauge_lps_pivot_like_the_full_tableau(monkeypatch):
    # Seeded gauge LPs, sup psi . x over |f . x| <= m: few small entries
    # and repeated functionals give ties in pricing and in the ratio test;
    # objectives outside the span of the ball, the empty ball and dimension
    # 0 are among them.  gauge_max and solve_lp must both pivot as the
    # full tableau does, and store one row per pair.  With a floor -cap,
    # solve_lp makes the first pivots of the same run and stops at the
    # first basis whose gauge is strictly past the cap (the LP value
    # strictly below the floor), or makes them all if none is; gauge_scale
    # is the cap 1.
    logs = _lockstep(monkeypatch)
    rng = random.Random(4711)
    seen = {"optimal": 0, "unbounded": 0, "empty": 0, "dim0": 0}
    pivots = flips = mirrors = minus = 0
    capped = {"stopped": 0, "stopped unbounded": 0, "whole": 0, "whole unbounded": 0}
    for trial in range(400):
        n = trial % 6
        k = 0 if trial % 19 == 0 else rng.randint(1, 8)
        ball = []
        for _ in range(k):
            ia = [rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(n)]
            ball.append(ball[-1] if ball and rng.random() < 0.15 else (ia, rng.choice((1, 1, 2, 3))))
        pi = [rng.choice((-2, -1, 0, 1, 1, 2)) for _ in range(n)]
        _clear(logs)
        expected = oracles.full_lp([-x for x in pi], _ball_rows(ball))
        ref = logs["full"][:]
        value = gauge_max([(pi, 1)], ball)[0]
        assert (value is None) == (expected == "unbounded")
        assert logs["compressed"] == ref
        _clear(logs)
        assert _gauge(pi, ball) == value
        assert logs["compressed"] == ref
        assert logs["tabs"][0][1:2 * k:2] == [None] * k
        # The gauge at each basis of the run, the slack basis (0) first.
        gauges = [Fraction(0)] + [Fraction(tab[-1][-1], den) for _, _, _, den, tab in ref]
        caps = {-1, 1, max(gauges) + 1} | set(gauges) | {g - Fraction(1, 2) for g in gauges}
        for cap in sorted(caps):
            stop = next((p for p, g in enumerate(gauges) if g > cap), None)
            _clear(logs)
            got = gauge_scale((pi, 1), ball) if cap == 1 else _gauge(pi, ball, cap)
            if stop is None:
                assert logs["compressed"] == ref and got == value
                assert logs["status"] == [_kernel.UNBOUNDED if value is None else _kernel.OPTIMAL]
                capped["whole unbounded" if value is None else "whole"] += 1
            else:
                assert logs["compressed"] == ref[:stop] and got == gauges[stop] > cap
                assert logs["status"] == [_kernel.STOPPED]
                capped["stopped unbounded" if value is None else "stopped"] += 1
        seen["unbounded" if value is None else "optimal"] += 1
        seen["empty"] += k == 0
        seen["dim0"] += n == 0
        pivots += len(ref)
        for _, enter, leave, _, _ in ref:
            # Slack ids 2n + i: a bound flip swaps the two slacks of a pair,
            # a mirror entry brings in a v_j, and a minus row may leave
            # while it is a twin.
            flips += enter >= 2 * n and leave == enter ^ 1
            mirrors += n <= enter < 2 * n
            minus += leave >= 2 * n and leave % 2 == 1
    assert min(seen.values()) >= 20, seen
    assert pivots >= 700 and flips >= 15 and mirrors >= 200 and minus >= 250, (pivots, flips, mirrors, minus)
    assert min(capped.values()) >= 150, capped


def test_solve_lp_pairs_rows_and_pivots_like_the_full_tableau(monkeypatch):
    # Phase 1 with ± pairs.  A row right after its exact negation, both
    # bounds >= 0 with a positive sum, is stored once (first come, first
    # paired); a pair with a negative bound, an equality pair (bounds b,
    # -b) and a pair with bounds 0, 0 stay two rows.
    logs = _lockstep(monkeypatch)
    rng = random.Random(8128)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    pivots = paired = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rows, single = [], []
        for _ in range(rng.randint(1, 6)):
            a = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)]
            kind = rng.choice(("single", "single", "range", "negative", "equality", "zero"))
            b = rng.choice((0, 1, 2, 3)) if kind in ("range", "negative") else rng.choice((-2, -1, 0, 1, 2))
            rows.append((a, b))
            if kind == "single":
                continue
            nb = {"range": rng.choice((0, 1, 2)) if b else rng.choice((1, 2)),
                  "negative": rng.choice((-2, -1)), "equality": -b, "zero": 0}[kind]
            if kind == "zero":
                rows[-1] = (a, 0)
            rows.append(([-x for x in a], nb))
            if kind != "range":
                single.append(len(rows) - 1)
        twins, i = [], 1
        while i < len(rows):
            (a, b), (na, nb) = rows[i - 1], rows[i]
            if b >= 0 and nb >= 0 and b + nb > 0 and na == [-x for x in a]:
                twins.append(i)
                i += 1
            i += 1
        assert not set(twins) & set(single)
        c = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(n)]
        _clear(logs)
        expected = oracles.full_lp(c, rows)
        try:
            solve_lp(c, rows)
            got = "optimal"
        except Infeasible:
            got = "infeasible"
        except Unbounded:
            got = "unbounded"
        assert got == expected
        assert [e[:4] for e in logs["compressed"]] == [e[:4] for e in logs["full"]]
        # The drive-out negates a row whose artificial then leaves with its
        # column negated in the full tableau; that column is dropped next.
        live = 2 * n + len(rows)
        assert [_drop_dead(e[4], live, len(rows)) for e in logs["compressed"]] == [
            _drop_dead(e[4], live, len(rows)) for e in logs["full"]]
        assert [i for i, row in enumerate(logs["tabs"][0][:-1]) if row is None] == twins
        outcomes[got] += 1
        pivots += len(logs["full"])
        paired += len(twins)
    assert min(outcomes.values()) >= 30 and pivots >= 600 and paired >= 150, (outcomes, pivots, paired)


def test_drive_out_enters_the_u_column_of_a_stored_v(monkeypatch):
    # Phase 1 here ends with the artificials of rows 4, 5 and 6 basic at 0
    # and x_1 nonbasic, stored as v_1 (u_1 entered and left, then v_1 did),
    # with entries -32, -17 and 49 in their rows: at a phase-1 optimum a
    # stored column's cost is minus the sum of its entries over the
    # artificial rows, so a nonzero entry there needs two such rows.  The
    # drive-out enters the lowest id with a nonzero entry, u_1 in the full
    # tableau; the compressed one finds it only because each free variable
    # is stored as its u column first, else it would enter v_1.
    logs = _lockstep(monkeypatch)
    rows = [([0, 1, 1, -1], 0), ([2, -1, 2, -1], -1), ([-2, 2, -1, -2], 3), ([1, 1, -2, -1], 3),
            ([-2, -2, 0, 2], -2), ([2, -2, 0, 1], -1), ([-1, 2, 1, 1], -2)]
    n, m = 4, len(rows)
    c = [1, 0, 0, 0]
    assert oracles.full_lp(c, rows) == "optimal"
    res = solve_lp(c, rows)
    assert res.point == (0, 0, -1, -1)
    assert [e[:4] for e in logs["compressed"]] == [e[:4] for e in logs["full"]]
    live = 2 * n + m
    assert [_drop_dead(e[4], live, m) for e in logs["compressed"]] == [
        _drop_dead(e[4], live, m) for e in logs["full"]]
    tab, basis, cols = logs["ends"][0]
    stored_v = [j for j, v in enumerate(cols) if n <= v < 2 * n]
    art_rows = [i for i, b in enumerate(basis) if b >= live]
    assert [cols[j] for j in stored_v] == [n + 1] and art_rows == [4, 5, 6]
    assert [tab[i][stored_v[0]] for i in art_rows] == [-32, -17, 49]
    # After the six pivots of phase 1, the drive-out enters u_1 at row 4.
    assert logs["full"][6][:3] == (4, 1, 16)


def test_degenerate_streak_counts_every_row(monkeypatch):
    # Chvatal's cycling example (test_bland_fallback_breaks_a_cycle) with p
    # pairs of zero rows 0 . x <= 1, -0 . x <= 1 below it, each stored once.
    # The most-negative rule runs the six-pivot cycle until the degenerate
    # streak passes 10 + nbody, nbody counting both rows of each pair: 14 +
    # 2p pivots.  Counting stored rows (13 + p) would end the cycle after 16
    # pivots at p = 2, and Bland's rule would then take 19 pivots, not 25.
    logs = _lockstep(monkeypatch)
    chvatal = [[1, -11, -5, 18, 0], [1, -3, -1, 2, 0], [2, 0, 0, 0, 2], [-20, 114, 18, 48, 0]]
    for p, total in ((0, 19), (2, 25)):
        tab = chvatal[:3] + [[0, 0, 0, 0, 2], None] * p + chvatal[3:]
        tab = [row if row is None else row[:] for row in tab]
        basis = list(range(4, 7 + 2 * p))
        mates = [None] * 7 + [(7 + (i ^ 1), 2) for i in range(2 * p)]
        full = oracles.expand_tableau(tab, 2, basis, [0, 1, 2, 3], mates)
        fbasis = basis[:]
        _clear(logs)
        fres = oracles.full_bland_min(full, 2, fbasis, 3 + 2 * p, 3 + 2 * p)
        assert _kernel.bland_min(tab, 2, basis, [0, 1, 2, 3], mates) == fres and basis == fbasis
        assert fres[0] == _kernel.OPTIMAL
        assert logs["compressed"] == logs["full"]
        log = [e[:3] for e in logs["full"]]
        assert len(log) == total
        assert all(log[i][1:] == log[i - 6][1:] for i in range(6, 14 + 2 * p))
