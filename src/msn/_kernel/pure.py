"""Pure-Python exact pivoting kernels.

Two primitives back every exact computation in the library:

* ``echelon_int`` -- fraction-free Gauss-Jordan elimination on integer
  matrices (rows may be rescaled, so it preserves row spaces, ranks and
  kernels but not the matrix as a map).
* integer-pivoting simplex steps (``bland_min`` / ``pivot``) on a tableau
  held as an integer matrix plus one positive common denominator.  All
  divisions are exact by the subdeterminant invariant of integer pivoting.

The compiled backend in ``_speed.pyx`` implements the same functions with
identical outputs; ``msn._kernel`` selects one at import time.
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


def pivot(tab, den, basis, r, jc):
    """One integer pivot on entry (r, jc); returns the new denominator.

    Requires ``tab[r][jc] > 0`` and ``den > 0``; mutates ``tab``/``basis``.
    """
    piv = tab[r][jc]
    prow = tab[r]
    nrows = len(tab)
    for i in range(nrows):
        if i == r:
            continue
        row = tab[i]
        f = row[jc]
        if f == 0:
            if piv != den:
                tab[i] = [v * piv // den for v in row]
            continue
        tab[i] = [(piv * v - f * p) // den for v, p in zip(row, prow)]
    basis[r] = jc
    return piv


def bland_min(tab, den, basis, nbody, obj):
    """Simplex pivots to optimality with guaranteed termination.

    ``tab`` is an integer tableau with common positive denominator ``den``;
    rows ``< nbody`` are constraints, row ``obj`` carries reduced costs with
    the negated objective value in the last column.  The entering column is
    chosen by most-negative reduced cost, falling back to Bland's rule for
    as long as a degenerate streak persists (anti-cycling).  Returns
    ``(status, den)``.
    """
    ncols = len(tab[0])
    rhs = ncols - 1
    degenerate_streak = 0
    threshold = 10 + nbody
    while True:
        objrow = tab[obj]
        jc = -1
        if degenerate_streak <= threshold:
            best = 0
            for j in range(rhs):
                v = objrow[j]
                if v < best:
                    best = v
                    jc = j
        else:
            for j in range(rhs):
                if objrow[j] < 0:
                    jc = j
                    break
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
        den = pivot(tab, den, basis, r, jc)
