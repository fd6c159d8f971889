"""Exact pivoting kernels, in pure Python.

Two primitives back every exact computation in the library:

* ``echelon_int`` -- fraction-free Gauss-Jordan elimination on integer
  matrices (rows may be rescaled, so it preserves row spaces, ranks and
  kernels but not the matrix as a map).
* integer-pivoting simplex steps (``bland_min`` / ``pivot``) on a
  condensed tableau (Tucker's dictionary form): an integer matrix whose
  columns are only the nonbasic variables, named by a ``cols`` list beside
  ``basis``, plus the RHS, over one positive common denominator.  Basic
  columns are unit vectors and are never stored.  All divisions are exact
  by the subdeterminant invariant of integer pivoting.

The private ``_row_primitive`` (divide an integer row by its content) is
shared with the double description in ``msn.polytope``.
"""

from math import gcd

OPTIMAL = 0
UNBOUNDED = 1


def _row_primitive(row):
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        return [v // g for v in row]
    return row[:]


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


def pivot(tab, den, basis, cols, r, jc):
    """One integer pivot on entry (r, jc); returns the new denominator.

    ``tab`` is condensed: its columns are the nonbasic variables named by
    ``cols`` plus the RHS.  Rows ``i != r`` take the integer-pivoting update
    ``(piv*v - f*p) // den``; column ``jc`` then holds the leaving variable
    ``basis[r]``, whose column is ``-f`` off the pivot row and ``den`` on it.
    Requires ``tab[r][jc] > 0`` and ``den > 0``; mutates ``tab``, ``basis``
    and ``cols``.
    """
    prow = tab[r]
    piv = prow[jc]
    for i, row in enumerate(tab):
        if i == r:
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


def bland_min(tab, den, basis, cols, nbody, obj):
    """Simplex pivots to optimality with guaranteed termination.

    ``tab`` is a condensed integer tableau with common positive denominator
    ``den``: one column per nonbasic variable (``cols`` names them) plus the
    RHS.  Rows ``< nbody`` are constraints, row ``obj`` carries reduced costs
    with the negated objective value in the last column.  The entering
    variable is the one with the most negative reduced cost (lowest variable
    id on ties), falling back to Bland's rule (lowest variable id with a
    negative cost) for as long as a degenerate streak persists
    (anti-cycling).  The leaving row is the least ratio, lowest basic
    variable id on ties.  Returns ``(status, den)``.
    """
    rhs = len(tab[0]) - 1
    degenerate_streak = 0
    threshold = 10 + nbody
    while True:
        objrow = tab[obj]
        jc = -1
        if degenerate_streak <= threshold:
            best = 0
            for j in range(rhs):
                v = objrow[j]
                if v < best or (v == best < 0 and cols[j] < cols[jc]):
                    best = v
                    jc = j
        else:
            for j in range(rhs):
                if objrow[j] < 0 and (jc < 0 or cols[j] < cols[jc]):
                    jc = j
        if jc < 0:
            return OPTIMAL, den
        r = -1
        rnum = rden = 0
        for i in range(nbody):
            a = tab[i][jc]
            if a <= 0:
                continue
            b = tab[i][rhs]
            if r < 0 or b * rden < rnum * a or (b * rden == rnum * a and basis[i] < basis[r]):
                r, rnum, rden = i, b, a
        if r < 0:
            return UNBOUNDED, den
        if rnum == 0:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        den = pivot(tab, den, basis, cols, r, jc)
