"""Exact pivoting kernels, in pure Python.

Three primitives back every exact computation in the library:

* ``echelon_int`` -- fraction-free Gauss-Jordan elimination on integer
  matrices (rows may be rescaled, so it preserves row spaces, ranks and
  kernels but not the matrix as a map).
* ``leading_basis`` -- the same elimination run over the rows one at a
  time, keeping the first rows that are independent of the ones before
  them, with each kept row's combination coefficients, and stopping at a
  square basis (the start cone of double description, the separation
  test of a space).
* integer-pivoting simplex steps (``bland_min`` / ``pivot``) on a
  compressed tableau: an integer matrix over one positive common
  denominator whose columns are nonbasic variables, named by a ``cols``
  list beside ``basis``, plus the RHS.  All divisions are exact by the
  subdeterminant invariant of integer pivoting.  Basic columns are unit
  vectors and are not stored (Tucker's dictionary form), and neither is
  a line that ``mates`` gives from a stored one (Dantzig's upper-bounding
  idea: a range row, and a free variable, need one line each, not two):

  - the halves ``u``, ``v`` of a free variable (mates of width 0) have
    negated columns while both are nonbasic; once one is basic at row
    ``r``, the other's column is ``-den * e_r`` with reduced cost 0;
  - the slacks of a row pair ``f . x <= b``, ``-f . x <= c`` (mates of
    width ``w = b + c > 0``, so never both nonbasic) have negated rows,
    RHS ``w * den - rhs``, while both are basic; once one is nonbasic,
    the other's row is ``den`` in that one's column, RHS ``w * den``.

  ``tab`` holds ``None`` for such a row, so ``basis`` and the row
  numbers are the full tableau's; ``bland_min`` writes a row or column
  out only when it becomes the pivot's.

The private ``_row_primitive`` (divide an integer row by its content) is
shared with the double description in ``msn.polytope``.
"""

from math import gcd

OPTIMAL = 0
UNBOUNDED = 1
STOPPED = 2


def _row_primitive(row):
    """The integer list divided by its content; ``row`` itself when that is 0 or 1."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def echelon_int(rows):
    """Reduced row echelon form over the rationals, kept in integers.

    Takes a list of integer rows.  Returns ``(rank, pivot_cols, out_rows)``
    where ``out_rows`` are the ``rank`` nonzero reduced rows: primitive
    (content 1), positive pivot entries, zeros above and below each pivot,
    ordered by pivot column.  The result is a canonical basis of the row
    space.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    pivcols = []
    for col in range(n):
        piv = -1
        for i in range(rank, m):
            if mat[i][col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = _row_primitive(mat[rank])
        if prow[col] < 0:
            prow = [-v for v in prow]
        mat[rank] = prow
        a = prow[col]
        for i in range(m):
            if i == rank:
                continue
            b = mat[i][col]
            if b == 0:
                continue
            row = mat[i]
            mat[i] = _row_primitive([a * row[j] - b * prow[j] for j in range(n)])
        pivcols.append(col)
        rank += 1
        if rank == m:
            break
    return rank, pivcols, mat[:rank]


def leading_basis(rows, n):
    """The first rows of width ``n`` that are independent of the rows before them.

    One fraction-free Gauss-Jordan pass over the iterable ``rows``, in
    order, that stops reading once ``n`` rows are kept.  A row is kept if
    it does not reduce to zero, and is then stored reduced as
    ``[row | e_k]``, ``k`` its place among the kept rows.  Returns
    ``(chosen, pivcols, red)``: the indices of the kept rows and, per kept
    row, its pivot column and its reduced row, primitive with a positive
    pivot ``d_k`` and zero in the other pivot columns; its last ``n``
    entries are the coefficients that give its first ``n`` from the kept
    rows.  So with ``n`` rows kept, row ``pivcols[k]`` of the inverse of the
    kept rows is ``red[k][n:] / d_k``.
    """
    chosen, pivcols, red = [], [], []
    for i, row in enumerate(rows):
        # Reduce the row alone first; the coefficients take the same steps
        # only if it is kept, so a dependent row costs half.
        r, steps = list(row), []
        for c, b in zip(pivcols, red):
            f = r[c]
            if f:
                a = b[c]
                r = [a * x - f * y for x, y in zip(r, b)]
                steps.append((a, f, b))
        c = next((j for j in range(n) if r[j]), -1)
        if c < 0:
            continue
        comb = [0] * n
        comb[len(red)] = 1
        for a, f, b in steps:
            comb = [a * x - f * y for x, y in zip(comb, b[n:])]
        r = _row_primitive(r + comb)
        if r[c] < 0:
            r = [-x for x in r]
        a = r[c]
        for k, b in enumerate(red):
            f = b[c]
            if f:
                red[k] = _row_primitive([a * x - f * y for x, y in zip(b, r)])
        chosen.append(i)
        pivcols.append(c)
        red.append(r)
        if len(red) == n:
            break
    return chosen, pivcols, red


def pivot(tab, den, basis, cols, r, jc):
    """One integer pivot on entry (r, jc); returns the new denominator.

    ``tab`` is compressed (module docstring): its columns are the stored
    nonbasic variables named by ``cols`` plus the RHS, and its ``None``
    rows are left to ``bland_min``.  The stored rows ``i != r`` take the
    integer-pivoting update ``(piv*v - f*p) // den``; column ``jc`` then
    holds the leaving variable ``basis[r]``, whose column is ``-f`` off the
    pivot row and ``den`` on it.  Requires ``tab[r][jc] > 0`` and
    ``den > 0``; mutates ``tab``, ``basis`` and ``cols``.
    """
    prow = tab[r]
    piv = prow[jc]
    for i, row in enumerate(tab):
        if i == r or row is None:
            continue
        f = row[jc]
        if f == 0:
            if piv != den:
                tab[i] = [v * piv // den for v in row]
            continue
        row = [(piv * v - f * p) // den for v, p in zip(row, prow)]
        row[jc] = -f
        tab[i] = row
    prow[jc] = den
    basis[r], cols[jc] = cols[jc], basis[r]
    return piv


def mirror(tab, cols, jc, mates):
    """Store column ``jc`` as the column of its variable's free-variable mate: negate and rename it."""
    for row in tab:
        if row is not None:
            row[jc] = -row[jc]
    cols[jc] = mates[cols[jc]][0]


def bland_min(tab, den, basis, cols, mates, floor=None):
    """Simplex pivots to optimality, or below a floor, with guaranteed termination.

    ``tab`` is a compressed integer tableau (module docstring) with common
    positive denominator ``den``: one column per stored nonbasic variable
    (``cols`` names them) plus the RHS.  Its last row carries the reduced
    costs with the negated objective value in the last column; every row
    before it is a constraint row, stored or ``None``.  ``mates[v]`` is
    ``None`` or ``(mate, w)`` for each variable ``v``.

    The pivots are those of the full tableau.  The entering variable is
    the one with the most negative reduced cost (lowest variable id on
    ties), falling back to Bland's rule (lowest variable id with a
    negative cost) for as long as a degenerate streak longer than
    ``10 + nbody`` persists (anti-cycling), ``nbody`` counting every
    constraint row.  The leaving row is the least ratio, lowest basic
    variable id on ties.  Returns ``(status, den)``.

    ``floor``, integers ``(num, fden)`` with ``fden > 0``, ends the run
    early: before each pricing step, once the objective value
    ``-tab[-1][-1] / den`` is strictly below ``num / fden``, the status is
    ``STOPPED`` and the tableau holds that feasible basis.  Until then the
    pivots are those without a floor.
    """
    nbody = len(tab) - 1
    rhs = len(cols)
    degenerate_streak = 0
    threshold = 10 + nbody
    while True:
        objrow = tab[-1]
        if floor is not None and -objrow[rhs] * floor[1] < floor[0] * den:
            return STOPPED, den
        # Pricing: a stored column with a positive cost offers its mirror.
        bland = degenerate_streak > threshold
        jc = enter = -1
        best = 0
        for j in range(rhs):
            v = objrow[j]
            if v == 0:
                continue
            c = cols[j]
            if v > 0:
                m = mates[c]
                if m is None or m[1]:
                    continue
                v, c = -v, m[0]
            if bland:
                if enter < 0 or c < enter:
                    jc, enter = j, c
            elif v < best or (v == best and c < enter):
                best, jc, enter = v, j, c
        if jc < 0:
            return OPTIMAL, den
        if enter != cols[jc]:
            mirror(tab, cols, jc, mates)
        # Ratio test: a stored row offers itself, or its twin if that has
        # the positive entry; an entering slack offers its mate's unit row.
        r = leave = -1
        rnum = rden = 0
        m = mates[enter]
        if m is not None and m[1]:
            leave, rnum, rden = m[0], m[1] * den, den
        for i in range(nbody):
            row = tab[i]
            if row is None:
                continue
            a = row[jc]
            if a > 0:
                b, v = row[rhs], basis[i]
            elif a < 0 and (m := mates[basis[i]]) is not None and m[1]:
                a, b, v = -a, m[1] * den - row[rhs], m[0]
            else:
                continue
            if leave < 0 or b * rden < rnum * a or (b * rden == rnum * a and v < leave):
                r, leave, rnum, rden = i, v, b, a
        if leave < 0:
            return UNBOUNDED, den
        if rnum == 0:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        if r < 0:
            # The entering slack's mate leaves its unit row: a bound flip.
            r = basis.index(leave)
            tab[r] = [0] * rhs + [rnum]
            tab[r][jc] = den
            den = pivot(tab, den, basis, cols, r, jc)
            tab[r] = None
            continue
        if basis[r] != leave:
            # The twin of row r leaves: write it out in its own place, and
            # row r, whose mate is now nonbasic, becomes a unit row.
            row, tab[r] = tab[r], None
            r = basis.index(leave)
            tab[r] = [-x for x in row]
            tab[r][rhs] = rnum
        den = pivot(tab, den, basis, cols, r, jc)
