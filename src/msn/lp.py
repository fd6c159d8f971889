"""Exact linear programming over the rationals.

``solve_lp`` minimises a rational objective over a system of inequality
constraints ``a·x <= b`` with free variables, using a two-phase simplex
with Bland's anti-cycling rule on a compressed integer tableau
(``msn._kernel``: one positive common denominator; all pivot divisions
exact).  Infeasible and unbounded systems are reported distinctly.

The tableau stores one column per free variable ``x_j = u_j - v_j``
(``v_j`` mirrors ``u_j``) plus the stored nonbasic slacks, named by
``cols``, and the RHS; basic columns are implicit in ``basis``.  A row
right after its exact negation, both bounds ``>= 0`` with a positive sum
(a ± pair ``|f·x|`` bounded on both sides), is that row's twin and is
not stored (``None``).  So a gauge LP over ``k`` pairs in ``n``
variables is a ``k × (n + 1)`` tableau in phase 2, where one column per
variable and one row per constraint gave ``2k × (2n + 1)``; the pivots
are the same.  Equality pairs and negative-bound rows stay single, and
phase 1 adds one column per negative-bound row.

The work stays in integers from input to result.  Each row ``(a, b)`` is
scaled by the least common multiple of its denominators, read straight
off the ``numerator``/``denominator`` of its entries (ints and Fractions
alike; a row of ints is taken as it is).  After phase 2 the optimum is
read off the tableau over its common denominator ``den`` as integer
numerators ``X`` over ``den``.  ``LpResult`` holds them: the value is
one ``Fraction``, built at once; the point, and the active set by the
integer test ``ia·X == ib·den`` on the scaled rows with one dot per pair,
are built on first read.  An optional ``floor`` ends phase 2 at the
first basis whose value is strictly below it (``_kernel.bland_min``
checks before each pricing step), for callers that only ask whether the
minimum is below a bound.

Gauges, ``sup psi·x`` over the ball ``{x : |f·x| <= 1}``, come in two
forms that share the phase-2 code (``_optimise``: cost row, ``bland_min``,
and ``_numerators``: the point read-out), and both take objectives and
ball as the integer rows ``(ints, m)`` of ``linalg._scale_to_int``, so a
caller that reuses a list scales it once.  ``gauge_scale`` is one
``solve_lp`` per objective and answers the membership test ``gauge <= 1``:
its LP stops at the first ball point past 1 and only its value is read.
``gauge_max`` is exact and serves many objectives over one ball: it
builds the ``k × (n + 1)`` slack tableau once, with no phase 1 since
every RHS is positive, and optimises each from a copy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add, mul

from msn import _kernel
from msn.errors import DimensionMismatch, Infeasible, Unbounded
from msn.linalg import Vec, _scale_to_int


class LpResult:
    """Exact optimum with the attaining point and its tight constraints.

    All three fields are read exactly from the final integer tableau:
    ``point`` is in lowest terms, ``value`` equals ``objective . point``
    and ``active`` lists, in input order, the rows with ``a . point == b``.
    With a ``floor`` they describe the basis ``solve_lp`` stopped at,
    which need not be optimal.  ``value`` is built by ``solve_lp``;
    ``point`` and ``active`` are built from the final numerators on first
    read, so a caller that reads only the value (``gauge_scale``) pays
    for no more.  A plain class: results do not compare by value and
    have the default repr.
    """

    def __init__(self, value: Fraction, X, den, rows, mates):
        self.value = value
        self._X, self._den, self._rows, self._mates = X, den, rows, mates

    @cached_property
    def point(self) -> Vec:
        return tuple(Fraction(x, self._den) for x in self._X)

    @cached_property
    def active(self) -> tuple[int, ...]:
        # A twin row's dot is the negated dot of the row before it.
        X, den, mates = self._X, self._den, self._mates
        nu = 2 * len(X)
        active = []
        for i, (ia, ib) in enumerate(self._rows):
            t = mates[nu + i]
            d = -d if t is not None and t[0] < nu + i else sum(map(mul, ia, X))
            if d == ib * den:
                active.append(i)
        return tuple(active)


def _optimise(tab, den, basis, cols, mates, ci, floor=None):
    """Phase 2: minimise ``ci . x``, ``x = u - v``, from the feasible basis of ``tab``.

    ``ci`` are integer costs.  The den-scaled cost row is built over the
    current basis (only ``u``, ``v`` cost, and their rows are stored),
    ``bland_min`` runs below it, with ``floor`` (integers ``(num, fden)``
    on the scale of ``ci``), and the row is popped again, leaving the
    constraint rows.  Returns ``(status, den)``.
    """
    nu = 2 * len(ci)
    cost = ci + [-x for x in ci]
    # den-scaled costs keep the tableau on one common denominator.
    obj = [cost[v] * den if v < nu else 0 for v in cols] + [0]
    for b, row in zip(basis, tab):
        cb = cost[b] if b < nu else 0
        if cb:
            obj = [o - cb * x for o, x in zip(obj, row)]
    tab.append(obj)
    status, den = _kernel.bland_min(tab, den, basis, cols, mates, floor)
    tab.pop()
    return status, den


def _free_mates(n, extra):
    """``mates`` for ``n`` free variables ``x = u - v`` (ids ``j`` and ``n + j``), then ``extra`` unmated ids."""
    return [(n + j, 0) for j in range(n)] + [(j, 0) for j in range(n)] + [None] * extra


def _numerators(tab, basis, n):
    """Integer numerators over ``den`` of ``x = u - v``: basic variables are their RHS."""
    uv = [0] * (2 * n)
    for b, row in zip(basis, tab):
        if b < 2 * n:
            uv[b] = row[-1]
    return [uv[j] - uv[n + j] for j in range(n)]


def solve_lp(objective, constraints, floor=None) -> LpResult:
    """Minimise ``objective . x`` subject to ``a . x <= b`` rows.

    ``constraints`` is an iterable of ``(a, b)`` pairs of int or Fraction
    entries.  Raises ``Infeasible`` or ``Unbounded``.  With a rational
    ``floor``, phase 2 may stop at the first feasible basis whose value is
    strictly below it, which is then the result in place of the optimum
    (exact value, point and active set of that basis); an unbounded
    objective may so stop before it is found unbounded.
    """
    c = tuple(objective)
    rows = []
    for a, b in constraints:
        ia, _ = _scale_to_int((*a, b))
        ib = ia.pop()
        rows.append((ia, ib))
    n = len(c)
    for ia, _ in rows:
        if len(ia) != n:
            raise DimensionMismatch("constraint arity != objective arity")

    m = len(rows)
    # Variables: u (n), v (n), slacks (m), then one artificial per row with
    # a negative bound (that row is negated).  The tableau is compressed:
    # its columns are the stored nonbasic variables, named by ``cols``,
    # then the RHS; v mirrors u, and a row right after its exact negation,
    # both bounds >= 0 with a positive sum, is that row's twin (``None``).
    nu = 2 * n
    art_rows = [i for i, (_, ib) in enumerate(rows) if ib < 0]
    nart = len(art_rows)
    mates = _free_mates(n, m + nart)
    cols = list(range(n)) + [nu + i for i in art_rows]
    tab: list[list[int] | None] = []
    basis: list[int] = []
    k = 0
    for i, (ia, ib) in enumerate(rows):
        if ib < 0:
            row = [-x for x in ia] + [0] * nart + [-ib]
            row[n + k] = -1
            basis.append(nu + m + k)
            k += 1
        else:
            basis.append(nu + i)
            if mates[nu + i] is not None:
                row = None
            else:
                row = ia + [0] * nart + [ib]
                if i + 1 < m:
                    ja, jb = rows[i + 1]
                    if jb >= 0 and ib + jb > 0 and not any(map(add, ia, ja)):
                        mates[nu + i], mates[nu + i + 1] = (nu + i + 1, ib + jb), (nu + i, ib + jb)
        tab.append(row)

    den = 1
    if nart:
        # Phase 1: minimise the sum of artificial variables (all basic).
        obj = [0] * (n + nart + 1)
        for i in art_rows:
            obj = [o - x for o, x in zip(obj, tab[i])]
        tab.append(obj)
        status, den = _kernel.bland_min(tab, den, basis, cols, mates)
        if status != _kernel.OPTIMAL:
            raise Infeasible("phase-1 unbounded (internal)")
        if tab[m][-1] != 0:
            raise Infeasible("constraint system has no solution")
        tab.pop()
        # Drive any remaining artificial variables out of the basis.  The
        # columns u, v, slacks have full row rank (the slacks form a +-1
        # diagonal), so every row has a nonzero entry among them.  Each free
        # variable is stored as its u column, the lower id of its two, and
        # only artificials leave here, so the lowest id is read off ``cols``.
        for j, v in enumerate(cols):
            if n <= v < nu:
                _kernel.mirror(tab, cols, j, mates)
        for i in range(m):
            if basis[i] < nu + m:
                continue
            jc = min((j for j in range(len(cols)) if cols[j] < nu + m and tab[i][j] != 0),
                     key=cols.__getitem__)
            if tab[i][jc] < 0:
                tab[i] = [-x for x in tab[i]]
            den = _kernel.pivot(tab, den, basis, cols, i, jc)
        # Every artificial is now nonbasic and never enters again: drop
        # their columns (after a negated row, one may even have the wrong sign).
        keep = [j for j in range(len(cols)) if cols[j] < nu + m]
        tab = [row if row is None else [row[j] for j in keep] + row[-1:] for row in tab]
        cols = [cols[j] for j in keep]

    ci, cm = _scale_to_int(c)
    if floor is not None:
        # The tableau's values are cm times the objective's.
        floor = Fraction(floor)
        floor = (floor.numerator * cm, floor.denominator)
    status, den = _optimise(tab, den, basis, cols, mates, ci, floor)
    if status == _kernel.UNBOUNDED:
        raise Unbounded("objective unbounded below on the feasible set")
    X = _numerators(tab, basis, n)
    return LpResult(Fraction(sum(map(mul, ci, X)), cm * den), X, den, rows, mates)


def _ball_rows(ball):
    """``|f . x| <= 1`` as the integer rows ``ia`` and ``-ia``, each ``<= m``, in input order.

    ``ball`` holds each ``f`` as ``(ia, m)``, ``f`` times ``m`` in
    integers (``_scale_to_int``).  Negating ints is cheaper than negating
    Fractions, and the tableau is the same.
    """
    rows = []
    for ia, m in ball:
        rows.append((ia, m))
        rows.append(([-x for x in ia], m))
    return rows


def gauge_scale(psi, ball) -> Fraction | None:
    """sup of psi over the unit ball {x : |f . x| <= 1 for all f}, where it is at most 1.

    The gauge is the least c with psi in c times the symmetric convex
    hull of the functionals, so ``gauge <= 1`` is membership in that
    hull.  A gauge ``<= 1`` is returned exactly; a larger one as some
    value ``> 1`` that a ball point attains, or as None, which is also
    the answer when psi is outside the span of the functionals (infinite
    sup).  Rows as in ``gauge_max``, which gives exact gauges.  One
    ``solve_lp`` per call on the integer objective ``-pi``, whose tableau
    is the Fraction one, with floor ``-pm``: it stops at the first basis
    past 1.  The value is read over ``pm``.
    """
    pi, pm = psi
    try:
        res = solve_lp([-x for x in pi], _ball_rows(ball), floor=-pm)
    except Unbounded:
        return None
    return -res.value / pm


def gauge_max(objectives, ball) -> tuple[Fraction | None, Vec | None]:
    """Largest gauge ``sup psi . x`` over one ball ``{x : |f . x| <= 1}``, and a point attaining it.

    Objectives and ball functionals come as integer rows ``(ints, m)``,
    each ``psi`` or ``f`` times ``m``, the ``linalg._scale_to_int`` form.
    Each ball row is the pair ``ints . x <= m`` and ``-ints . x <= m``
    (``_ball_rows``), the rows ``gauge_scale`` solves; the tableau stores
    the first and leaves the second to its twin, so every tableau row is
    the one the Fraction input gave.

    Returns ``(value, point)``: the maximum over the objectives of their
    exact gauges and a ball point where the first
    objective reaching it attains it.  No objectives give ``0`` at the
    origin; the first objective with an infinite sup (outside the span
    of the functionals) gives ``(None, None)``.

    Every RHS is positive, so the slack basis is feasible and there is
    no phase 1.  Each objective is optimised from a copy of the stored
    slack rows.  A warm start from the previous optimum, also feasible,
    took more pivots: 2.15 against 2.05 per objective over the 3592
    objectives of the first 108 ``certify`` ops of perfbench seed 5.
    """
    n = len(objectives[0][0]) if objectives else len(ball[0][0]) if ball else 0
    if any(len(pi) != n for pi, _ in objectives) or any(len(ia) != n for ia, _ in ball):
        raise DimensionMismatch("objective and functional arities differ")
    # One stored row ia . x <= m per functional, its twin -ia . x <= m None.
    slack, mates = [], _free_mates(n, 2 * len(ball))
    for i, (ia, ib) in enumerate(ball):
        slack += [list(ia) + [ib], None]
        s = 2 * n + 2 * i
        mates[s], mates[s + 1] = (s + 1, 2 * ib), (s, 2 * ib)
    # The best value so far is num / vden, attained at X / xden.
    num, vden, X, xden = 0, 1, [0] * n, 1
    for pi, pm in objectives:
        tab = [row if row is None else row[:] for row in slack]
        basis = list(range(2 * n, 2 * n + len(tab)))
        cols = list(range(n))
        status, den = _optimise(tab, 1, basis, cols, mates, [-x for x in pi])
        if status != _kernel.OPTIMAL:
            return None, None
        Y = _numerators(tab, basis, n)
        y = sum(map(mul, pi, Y))
        if y * vden > num * pm * den:
            num, vden, X, xden = y, pm * den, Y, den
    return Fraction(num, vden), tuple(Fraction(x, xden) for x in X)
