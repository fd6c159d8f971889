"""Exact linear programming over the rationals.

``solve_lp`` minimises a rational objective over a system of inequality
constraints ``a·x <= b`` with free variables, using a two-phase simplex
with Bland's anti-cycling rule on an integer tableau (one positive common
denominator; all pivot divisions exact).  Infeasible and unbounded systems
are reported distinctly.

The work stays in integers from input to result.  Each row ``(a, b)`` is
scaled by the least common multiple of its denominators, read straight
off the ``numerator``/``denominator`` of its entries (ints and Fractions
alike).  After phase 2 the optimum is read off the tableau over its
common denominator ``den``: the point as integer numerators ``X`` over
``den``, the value as one ``Fraction``, and the active set by the integer
test ``ia·X == ib·den`` on the scaled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from msn import _kernel
from msn.errors import DimensionMismatch, Infeasible, Unbounded
from msn.linalg import Vec, vec


@dataclass(frozen=True)
class LpResult:
    """Exact optimum with the attaining point and its tight constraints.

    All three fields are read exactly from the final integer tableau:
    ``point`` is in lowest terms, ``value`` equals ``objective . point``
    and ``active`` lists, in input order, the rows with ``a . point == b``.
    """

    value: Fraction
    point: Vec
    active: tuple[int, ...]


def _int_row(coeffs, rhs):
    """``(ia, ib)``: the row times the least common multiple of its denominators."""
    coeffs = tuple(coeffs)
    m = lcm(rhs.denominator, *[x.denominator for x in coeffs])
    if m == 1:
        return [x.numerator for x in coeffs], rhs.numerator
    return [x.numerator * (m // x.denominator) for x in coeffs], rhs.numerator * (m // rhs.denominator)


def solve_lp(objective, constraints) -> LpResult:
    """Minimise ``objective . x`` subject to ``a . x <= b`` rows.

    ``constraints`` is an iterable of ``(a, b)`` pairs of int or Fraction
    entries.  Raises ``Infeasible`` or ``Unbounded``.
    """
    c = tuple(objective)
    rows = [_int_row(a, b) for a, b in constraints]
    n = len(c)
    for ia, _ in rows:
        if len(ia) != n:
            raise DimensionMismatch("constraint arity != objective arity")
    if n == 0:
        if any(ib < 0 for _, ib in rows):
            raise Infeasible("no variables, negative bound")
        return LpResult(Fraction(0), (), tuple(i for i, (_, ib) in enumerate(rows) if ib == 0))

    m = len(rows)
    # Columns: u (n), v (n), slacks (m), then artificials, then RHS.
    # Rows with a negative bound are negated and get an artificial column.
    nu = 2 * n
    art_rows = [i for i, (_, ib) in enumerate(rows) if ib < 0]
    nart = len(art_rows)
    width = nu + m + nart + 1
    tab: list[list[int]] = []
    basis: list[int] = []
    art = nu + m
    for i, (ia, ib) in enumerate(rows):
        neg = [-x for x in ia]
        if ib < 0:
            row = neg + ia + [0] * (width - nu)
            row[nu + i] = -1
            row[art] = 1
            row[-1] = -ib
            basis.append(art)
            art += 1
        else:
            row = ia + neg + [0] * (width - nu)
            row[nu + i] = 1
            row[-1] = ib
            basis.append(nu + i)
        tab.append(row)

    den = 1
    if nart:
        # Phase 1: minimise the sum of artificial variables.
        obj = [0] * width
        for i in art_rows:
            obj = [o - x for o, x in zip(obj, tab[i])]
        obj[nu + m:-1] = [0] * nart
        tab.append(obj)
        status, den = _kernel.bland_min(tab, den, basis, m, m)
        if status != _kernel.OPTIMAL:
            raise Infeasible("phase-1 unbounded (internal)")
        if tab[m][-1] != 0:
            raise Infeasible("constraint system has no solution")
        tab.pop()
        # Drive any remaining artificial variables out of the basis.  The
        # columns u, v, slacks have full row rank (the slacks form a +-1
        # diagonal), so every row has a nonzero entry among them.
        for i in range(m):
            if basis[i] < nu + m:
                continue
            jc = next(j for j in range(nu + m) if tab[i][j] != 0)
            if tab[i][jc] < 0:
                tab[i] = [-x for x in tab[i]]
            den = _kernel.pivot(tab, den, basis, i, jc)
        # Remove artificial columns.
        tab = [row[:nu + m] + row[-1:] for row in tab]
        width = nu + m + 1

    # Phase 2 objective row: costs (c, -c, 0...) expressed over the basis.
    cm = lcm(*(x.denominator for x in c))
    ci = [x.numerator * (cm // x.denominator) for x in c]
    # den-scaled costs keep the tableau on one common denominator.
    obj = [x * den for x in ci] + [-x * den for x in ci] + [0] * (width - nu)
    for i in range(m):
        cb = 0
        if basis[i] < nu:
            cb = ci[basis[i]] if basis[i] < n else -ci[basis[i] - n]
        if cb:
            obj = [o - cb * x for o, x in zip(obj, tab[i])]
    tab.append(obj)
    status, den = _kernel.bland_min(tab, den, basis, m, m)
    if status != _kernel.OPTIMAL:
        raise Unbounded("objective unbounded below on the feasible set")

    # x = u - v, each basic variable being its row's RHS over den.
    uv = [0] * nu
    for i in range(m):
        if basis[i] < nu:
            uv[basis[i]] = tab[i][-1]
    X = [uv[j] - uv[n + j] for j in range(n)]
    value = Fraction(sum(map(mul, ci, X)), cm * den)
    active = tuple(i for i, (ia, ib) in enumerate(rows) if sum(map(mul, ia, X)) == ib * den)
    return LpResult(value, tuple(Fraction(x, den) for x in X), active)


def lp_feasible(constraints) -> bool:
    """Exact feasibility of ``a . x <= b`` rows."""
    rows = list(constraints)
    if not rows:
        return True
    n = len(rows[0][0])
    try:
        solve_lp([Fraction(0)] * n, rows)
        return True
    except Infeasible:
        return False


def lp_value(objective, constraints) -> Fraction:
    return solve_lp(objective, constraints).value


def gauge_scale(psi, functionals) -> Fraction | None:
    """sup of psi over the unit ball {x : |f . x| <= 1 for all f}.

    Equals the least c with psi in c times the symmetric convex hull of
    the functionals; None when psi is outside their span (infinite sup).
    """
    psi = vec(psi)
    funcs = list(functionals)
    if not any(x != 0 for x in psi):
        return Fraction(0)
    if not funcs:
        return None
    rows = []
    for f in funcs:
        # |f . x| <= 1 as two integer rows: the tableau is the same, and
        # negating ints is cheaper than negating Fractions.
        ia, ib = _int_row(f, 1)
        rows.append((ia, ib))
        rows.append(([-x for x in ia], ib))
    try:
        res = solve_lp(tuple(-x for x in psi), rows)
    except Unbounded:
        return None
    return -res.value
