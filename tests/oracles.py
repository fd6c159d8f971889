"""Independent brute-force oracles used to pin expected values.

These deliberately share no code with the library paths they check:
plain Gaussian elimination over Fraction, constraint-subset vertex and
cone-ray enumeration, and 1-D breakpoint minimisation.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def _rref(rows, cols):
    """Reduced row echelon form over Fraction: (rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(cols):
        k = len(pivots)
        piv = next((i for i in range(k, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[k], mat[piv] = mat[piv], mat[k]
        mat[k] = [x / mat[k][c] for x in mat[k]]
        for i in range(len(mat)):
            if i != k and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[k])]
        pivots.append(c)
    return mat, pivots


def gauss_rank(rows):
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def brute_vertices(ineqs, dim):
    """All vertices of {x : a.x <= b} by enumerating constraint subsets."""
    verts = set()
    for subset in combinations(range(len(ineqs)), dim):
        rows = [list(ineqs[i][0]) for i in subset]
        rhs = [ineqs[i][1] for i in subset]
        if gauss_rank(rows) < dim:
            continue
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(ineqs[i][0], x)) <= ineqs[i][1] for i in range(len(ineqs))):
            verts.add(tuple(x))
    return sorted(verts)


def brute_cone_rays(rows, dim):
    """Primitive extreme rays of the pointed cone {y : row . y >= 0}.

    Every set of dim - 1 rows of rank dim - 1 fixes a line; each of its two
    directions that satisfies all rows is an extreme ray.
    """
    rays = set()
    for subset in combinations(range(len(rows)), dim - 1):
        mat, pivots = _rref([rows[i] for i in subset], dim)
        if len(pivots) < dim - 1:
            continue
        free = next(c for c in range(dim) if c not in pivots)
        v = [Fraction(0)] * dim
        v[free] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -mat[k][free]
        m = lcm(*(x.denominator for x in v))
        g = gcd(*(int(x * m) for x in v))
        for sign in (1, -1):
            w = tuple(sign * int(x * m) // g for x in v)
            if all(sum(a * x for a, x in zip(r, w)) >= 0 for r in rows):
                rays.add(w)
    return rays


def _solve_square(rows, rhs):
    n = len(rows)
    mat = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return None
        mat[c], mat[piv] = mat[piv], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for i in range(n):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return [mat[i][n] for i in range(n)]


def brute_lp_min(objective, ineqs):
    """Exact LP minimum as min over enumerated feasible-polytope vertices.

    Only valid for bounded feasible sets of full rank (vertex exists).
    """
    dim = len(objective)
    verts = brute_vertices(ineqs, dim)
    assert verts, "oracle needs a bounded, feasible, pointed system"
    return min(sum(c * x for c, x in zip(objective, v)) for v in verts)


def piecewise_min_1d(pieces, lo=Fraction(-100), hi=Fraction(100)):
    """Minimise sum of |a*t + b| terms by checking all breakpoints."""
    points = {lo, hi}
    for a, b in pieces:
        if a != 0:
            points.add(Fraction(-b, a))

    def val(t):
        return sum(abs(a * t + b) for a, b in pieces)

    best_t = min(points, key=lambda t: (val(t), t))
    return val(best_t), best_t
