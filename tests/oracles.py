"""Independent brute-force oracles used to pin expected values.

These deliberately share no code with the library paths they check:
plain Gaussian elimination over Fraction, constraint-subset vertex and
cone-ray enumeration, 1-D breakpoint minimisation, the full-tableau
integer simplex (``full_pivot``/``full_bland_min``, one column per
variable and one row per constraint) that the compressed kernel in
``msn._kernel`` replaced, with ``expand_tableau`` to write a compressed
tableau out in full, and
the Fraction pullbacks (``fraction_pullbacks``) that the integer ones in
``msn.seminorms`` replaced, the Fraction seminorm value
(``fraction_seminorm``) that the integer ``PolyhedralSeminorm.__call__``
replaced, the Fraction front end of ``from_functionals``
(``fraction_front_end``) that the integer ``seminorms._dominant``
replaced, the canonical forms that ``msn.polytope`` no longer exports
(``canon_rep`` of a +/- pair, ``primitive_ineq`` of an inequality), and,
at the end, the subspace calculus of ``msn.linalg`` as it
was before it kept integers from one ``echelon_int`` call to the API
edge (``canon_vector``, ``row_space_basis``, ``nullspace``, ``in_span``,
``intersect_spans``, ``solve``, ``inverse``, ``coordinate_complement``).
Those are copied verbatim, so unlike the rest they share the integer
echelon kernel and the ``Matrix`` type with the library: they pin the
Fraction front ends around the kernel, not the kernel.  Last,
``per_face_build_net`` is ``ramsey.build_net`` as it was when it ran one
vertex enumeration per sphere face, also verbatim, and
``discrete_oscillation`` and ``search_monochromatic`` are the two
colour-coverage loops of ``msn.ramsey`` as they were before they shared
one helper, verbatim but for the argument checks.  ``fraction_coupled_level``
is ``amalgam._coupled_level`` as it was when it went through Fractions
(``Matrix.apply``, ``polytope_vertices``, ``from_functionals``), verbatim
but for its name.  ``scan_cone_rays`` is ``polytope._cone_rays`` as it
was when every (+, -) ray pair was tested by scanning the other rays'
tight sets, verbatim but for its name and docstring.  ``fraction_apply``
and ``fraction_mul`` are ``Matrix.apply`` and ``Matrix.mul`` as they were
when each result entry was one Fraction ``dot``, verbatim but for their
names and the Fraction transpose.  ``fraction_transpose``, ``fraction_sub``,
``fraction_scale`` and ``fraction_rank`` are the Fraction loops that
``Matrix`` ran when it stored Fraction entries, with the ``vec_sub`` and
``vec_scale`` they called; ``fraction_stack`` is the ``entries``
concatenation that ``Matrix.stack`` replaced.  The ``fraction_*``
constructions at the end are those that now build from the stored
integer rows through ``seminorms._from_rows``, as they were when they
read the Fraction view and called ``from_functionals``.
"""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import gcd, lcm
from operator import mul

from msn import _kernel, linalg, ramsey
from msn._kernel import _row_primitive
from msn.errors import (
    ArityMismatch,
    BadArgument,
    DimensionMismatch,
    EmptyEmbeddingSet,
    ShapeMismatch,
    UnboundedPolyhedron,
)
from msn.linalg import (
    Matrix,
    Vec,
    _primitive_direction,
    _scale_to_int,
    dot,
    frac,
    int_rows,
    vec_add,
    zero_vec,
)
from msn.maps import LinearMap, compose, is_embedding
from msn.polytope import polytope_vertices
from msn.seminorms import PolyhedralSeminorm, QuotientNorm, dual_ball_facets
from msn.spaces import MultiSpace, is_graded_sequence, joint_kernel


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


def full_pivot(tab, den, basis, r, jc):
    """One integer pivot on entry (r, jc) of a full tableau; returns the new den.

    Every variable has a column, so each basic column is ``den`` times a
    unit vector.  Requires ``tab[r][jc] > 0`` and ``den > 0``; mutates
    ``tab``/``basis``.
    """
    piv = tab[r][jc]
    prow = tab[r]
    for i in range(len(tab)):
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


def full_bland_min(tab, den, basis, nbody, obj):
    """Full-tableau simplex to optimality: ``(status, den)``, 0 optimal, 1 unbounded.

    Most-negative reduced cost (lowest column on ties), falling back to
    Bland's rule after a degenerate streak longer than ``10 + nbody``; the
    leaving row is the least ratio, lowest basic variable on ties.
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
                if objrow[j] < best:
                    best = objrow[j]
                    jc = j
        else:
            jc = next((j for j in range(rhs) if objrow[j] < 0), -1)
        if jc < 0:
            return 0, den
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
            return 1, den
        degenerate_streak = degenerate_streak + 1 if rnum == 0 else 0
        den = full_pivot(tab, den, basis, r, jc)


def full_lp(objective, rows):
    """Outcome of the full-tableau two-phase simplex on integer ``a . x <= b`` rows.

    Free variables ``x = u - v``; one slack per row and one artificial per
    negative-bound row, each with its own column.  Returns "infeasible",
    "unbounded" or "optimal"; patch ``full_pivot`` to see the pivots.
    """
    n, m = len(objective), len(rows)
    nu = 2 * n
    art_rows = [i for i, (_, b) in enumerate(rows) if b < 0]
    width = nu + m + len(art_rows) + 1
    tab, basis = [], []
    for i, (a, b) in enumerate(rows):
        row = ([-x for x in a] + list(a) if b < 0 else list(a) + [-x for x in a]) + [0] * (width - nu)
        row[nu + i] = -1 if b < 0 else 1
        row[-1] = abs(b)
        if b < 0:
            basis.append(nu + m + art_rows.index(i))
            row[basis[-1]] = 1
        else:
            basis.append(nu + i)
        tab.append(row)
    den = 1
    if art_rows:
        obj = [0] * width
        for i in art_rows:
            obj = [o - x for o, x in zip(obj, tab[i])]
        obj[nu + m:-1] = [0] * len(art_rows)
        tab.append(obj)
        _, den = full_bland_min(tab, den, basis, m, m)
        if tab.pop()[-1] != 0:
            return "infeasible"
        for i in range(m):
            if basis[i] >= nu + m:
                jc = next(j for j in range(nu + m) if tab[i][j] != 0)
                if tab[i][jc] < 0:
                    tab[i] = [-x for x in tab[i]]
                den = full_pivot(tab, den, basis, i, jc)
        tab = [row[:nu + m] + row[-1:] for row in tab]
    cost = list(objective) + [-x for x in objective] + [0] * m
    obj = [x * den for x in cost] + [0]
    for i in range(m):
        obj = [o - cost[basis[i]] * x for o, x in zip(obj, tab[i])]
    tab.append(obj)
    return "unbounded" if full_bland_min(tab, den, basis, m, m)[0] else "optimal"


def expand_tableau(tab, den, basis, cols, mates):
    """The full tableau that a compressed ``msn._kernel`` tableau stands for.

    Every constraint row in its place, ``None`` rows written out from their
    mates (twin or unit rows), then the objective row if ``tab`` has one
    more row than ``basis``; one column per variable, in id order, then the
    RHS.  Basic columns are ``den`` unit vectors; an unstored half of a free
    variable is the negated column of its stored mate, or ``-den`` on its
    basic mate's row.  Variables that are neither basic, stored nor such a
    half (dropped artificials) get no column.
    """
    nb = len(basis)
    at = {v: j for j, v in enumerate(cols)}
    row_of = {b: i for i, b in enumerate(basis)}
    rows = list(tab)
    for i in range(nb):
        if rows[i] is None:
            mate, w = mates[basis[i]]
            assert w > 0
            if mate in row_of:
                twin = tab[row_of[mate]]
                rows[i] = [-x for x in twin[:-1]] + [w * den - twin[-1]]
            else:
                rows[i] = [den if j == at[mate] else 0 for j in range(len(cols))] + [w * den]

    def unit(r, d):
        return [d if i == r else 0 for i in range(len(rows))]

    full = []
    for v in range(len(mates)):
        if v in row_of:
            full.append(unit(row_of[v], den))
        elif v in at:
            full.append([row[at[v]] for row in rows])
        elif mates[v] is not None and mates[v][1] == 0:
            mate = mates[v][0]
            full.append([-row[at[mate]] for row in rows] if mate in at else unit(row_of[mate], -den))
    return [[col[i] for col in full] + [row[-1]] for i, row in enumerate(rows)]


def fraction_pullbacks(entries, functionals):
    """The functional list of ``seminorms._pullbacks`` in Fraction arithmetic.

    ``theta . M`` for every codomain functional ``theta`` and matrix ``M``
    (rows ``entries``); zero ones dropped, each signed so that its first
    nonzero entry is positive.  Within a direction (the vector over that
    entry) only the largest multiple is kept.  Sorted.
    """
    best = {}
    for theta in functionals:
        psi = tuple(sum((Fraction(a) * b for a, b in zip(theta, col)), Fraction(0))
                    for col in zip(*entries))
        lead = next((x for x in psi if x != 0), None)
        if lead is None:
            continue
        key = tuple(x / lead for x in psi)
        if key not in best or abs(lead) > best[key]:
            best[key] = abs(lead)
    return tuple(sorted(tuple(x * size for x in key) for key, size in best.items()))


def fraction_seminorm(functionals, x):
    """``max |f . x|`` over the functionals in Fraction arithmetic; 0 for none."""
    return max((abs(sum((Fraction(a) * Fraction(b) for a, b in zip(f, x)), Fraction(0)))
                for f in functionals), default=Fraction(0))


def fraction_front_end(functionals):
    """The functional list of ``from_functionals(..., reduce=False)`` in Fraction arithmetic.

    Each functional signed so that its first nonzero entry is positive,
    then a set, then within a direction (the vector over that entry) only
    the largest multiple kept, then sorted.
    """
    reps = set()
    for f in functionals:
        f = tuple(Fraction(x) for x in f)
        lead = next(x for x in f if x != 0)
        reps.add(f if lead > 0 else tuple(-x for x in f))
    best = {}
    for f in reps:
        lead = next(x for x in f if x != 0)
        key = tuple(x / lead for x in f)
        best[key] = max(best.get(key, lead), lead)
    return sorted(tuple(x * size for x in key) for key, size in best.items())


def canon_rep(v):
    """Representative of {v, -v} with first nonzero coordinate positive."""
    lead = next((x for x in v if x != 0), 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def primitive_ineq(a, b):
    """``a . x <= b`` as the primitive integer row ``(c, c0)``: scaled by a positive rational."""
    row = [Fraction(x) for x in (*a, b)]
    m = lcm(*(x.denominator for x in row))
    ints = [int(x * m) for x in row]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints[:-1]), ints[-1] // g


# --- msn.linalg subspace calculus before the integer rewrite (verbatim) ---


def canon_vector(v: Vec) -> Vec:
    """Scale to a primitive integer vector whose first nonzero entry is positive."""
    _, d = _primitive_direction(_scale_to_int(v)[0])
    return tuple(Fraction(x) for x in d)


def row_space_basis(rows: list[Vec]) -> list[Vec]:
    """Canonical basis (reduced, primitive, positive pivots) of a row span."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return []
    _, _, out = _kernel.echelon_int(int_rows(rows))
    # echelon_int rows are primitive with a positive pivot first: canonical already.
    return [tuple(map(Fraction, r)) for r in out]


def nullspace(mat: Matrix) -> list[Vec]:
    """Canonical kernel basis of the matrix as a linear map."""
    n = mat.cols
    live = [r for r in mat.entries if any(x != 0 for x in r)]
    if not live:
        return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    rank, pivcols, red = _kernel.echelon_int(int_rows(live))
    pivset = set(pivcols)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivcols):
            v[p] = Fraction(-red[i][f], red[i][p])
        basis.append(canon_vector(tuple(v)))
    return basis


def in_span(rows: list[Vec], v: Vec) -> bool:
    base = row_space_basis(rows)
    if not any(x != 0 for x in v):
        return True
    return len(row_space_basis(base + [v])) == len(base)


def intersect_spans(urows: list[Vec], vrows: list[Vec]) -> list[Vec]:
    """Canonical basis of span(U) ∩ span(V)."""
    U = row_space_basis(urows)
    V = row_space_basis(vrows)
    if not U or not V:
        return []
    n = len(U[0])
    # Solve alpha·U - beta·V = 0; intersection vectors are alpha·U.
    cols = []
    for j in range(n):
        cols.append([u[j] for u in U] + [-v[j] for v in V])
    system = Matrix.from_rows([[cols[j][i] for i in range(len(U) + len(V))] for j in range(n)])
    sols = nullspace(system)
    vecs = []
    for s in sols:
        alpha = s[: len(U)]
        w = zero_vec(n)
        for a, u in zip(alpha, U):
            w = vec_add(w, vec_scale(a, u))
        if any(x != 0 for x in w):
            vecs.append(w)
    return row_space_basis(vecs)


def solve(mat: Matrix, b: Vec) -> Vec | None:
    """One exact solution of ``mat x = b``, or None if inconsistent."""
    if len(b) != mat.rows:
        raise DimensionMismatch("rhs length")
    n = mat.cols
    aug_rows = [tuple(mat.entries[i]) + (b[i],) for i in range(mat.rows)]
    live = [r for r in aug_rows if any(x != 0 for x in r)]
    if not live:
        return zero_vec(n)
    rank, pivcols, red = _kernel.echelon_int(int_rows(live))
    if n in pivcols:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivcols):
        x[p] = Fraction(red[i][n], red[i][p])
    return tuple(x)


def inverse(mat: Matrix) -> Matrix | None:
    n = mat.rows
    if mat.cols != n:
        raise DimensionMismatch("inverse of non-square matrix")
    cols = []
    for j in range(n):
        e = tuple(Fraction(1 if i == j else 0) for i in range(n))
        x = solve(mat, e)
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)], n)


def coordinate_complement(span_rows: list[Vec], dim: int) -> list[int]:
    """Lexicographically first coordinate indices complementing a span."""
    base = row_space_basis(span_rows)
    chosen: list[int] = []
    current = list(base)
    r = len(base)
    for i in range(dim):
        e = tuple(Fraction(1 if j == i else 0) for j in range(dim))
        cand = row_space_basis(current + [e])
        if len(cand) > r:
            chosen.append(i)
            current = cand
            r += 1
        if r == dim:
            break
    return chosen


# ``ramsey.build_net`` as it was when it ran one double description per
# sphere face, before it read every face off one polytope's vertices.
# ``_grid_on_hull`` is the copy from then too: its diameter runs over
# every ordered vertex pair.


def _sphere_faces(Y, targets):
    """Face pieces of {y : ||y||_m = c_m for all m} as (eqs, ineqs) systems."""
    levels = list(range(len(targets)))
    choices = []
    for m in levels:
        funcs = Y.seminorms[m].functionals
        if targets[m] == 0 or not funcs:
            choices.append([None])
            continue
        opts = []
        for phi in funcs:
            opts.append((phi, Fraction(1)))
            opts.append((tuple(-x for x in phi), Fraction(1)))
        choices.append(opts)
    for combo in iproduct(*choices):
        eqs = []
        ineqs = []
        for m in levels:
            funcs = Y.seminorms[m].functionals
            c = targets[m]
            for phi in funcs:
                ineqs.append((phi, c))
                ineqs.append((tuple(-x for x in phi), c))
            if combo[m] is not None:
                face, sgn = combo[m]
                eqs.append((tuple(sgn * x for x in face), c))
        yield eqs, ineqs


def _grid_on_hull(verts, mesh_den, metric):
    if not verts:
        return []
    if len(verts) == 1:
        return list(verts)
    diam = max(metric(a, b) for a in verts for b in verts)
    if diam == 0 or mesh_den is None:
        return list(verts)
    k = len(verts)
    need = (k - 1) * diam / mesh_den
    n = -(-need.numerator // need.denominator)  # ceil
    n = max(int(n), 1)
    d = len(verts[0])
    flat, den = _scale_to_int([x for v in verts for x in v])
    cols = [flat[j::d] for j in range(d)]
    nd = n * den
    return [tuple(Fraction(sum(map(mul, weights, col)), nd) for col in cols)
            for weights in ramsey._compositions(n, k)]


def per_face_build_net(X, Y, eps):
    EmbeddingNet = ramsey.EmbeddingNet
    eps = Fraction(eps)
    if eps <= 0:
        raise BadArgument("eps must be positive")
    if X.dim != 1:
        raise DimensionMismatch("exhaustive enumeration needs a one-dimensional domain")
    if X.length > Y.length:
        raise ShapeMismatch("domain carries more levels than the codomain")
    targets = ramsey._line_image_constraints(X)

    if all(t == 0 for t in targets):
        ker = joint_kernel(Y, range(X.length))
        if not ker:
            raise EmptyEmbeddingSet("no nonzero vector annihilated by every level")
        pts = [ker[0], tuple(-x for x in ker[0])]
        maps = tuple(LinearMap(X, Y, Matrix.from_rows([[x] for x in p])) for p in pts)
        return EmbeddingNet(X, Y, maps, eps)

    def metric(a: Vec, b: Vec) -> Fraction:
        best = Fraction(0)
        for m in range(X.length):
            if targets[m] == 0:
                continue
            best = max(best, Y.seminorms[m](vec_sub(a, b)) / targets[m])
        return best

    # faces can be unbounded along degenerate directions; quotient out by
    # pinning the kernel coordinates to zero for a canonical section
    pins = []
    for k in joint_kernel(Y, [m for m in range(X.length) if targets[m] != 0]):
        pins.append((k, Fraction(0)))
        pins.append((tuple(-x for x in k), Fraction(0)))
    points: set[Vec] = set()
    for eqs, ineqs in _sphere_faces(Y, targets):
        rows = list(ineqs)
        for a, b in eqs:
            rows.append((a, b))
            rows.append((tuple(-x for x in a), -b))
        rows += pins
        try:
            verts = polytope_vertices(rows, Y.dim)
        except UnboundedPolyhedron:
            continue
        if not verts:
            continue
        for p in _grid_on_hull(verts, eps, metric):
            # grid points of a face of the sphere stay on the sphere only
            # if the face is exact; re-check exactly and keep valid ones
            if all(Y.seminorms[m](p) == targets[m] for m in range(X.length)):
                points.add(p)
    if not points:
        raise EmptyEmbeddingSet("sphere system has no solutions")
    maps = tuple(LinearMap(X, Y, Matrix.from_rows([[x] for x in p]))
                 for p in sorted(points))
    for f in maps:
        ok, _ = is_embedding(f, 0)
        if not ok:
            raise EmptyEmbeddingSet("enumerated point fails the embedding check")
    return EmbeddingNet(X, Y, maps, eps)


# The discrete branch of ``ramsey.oscillation`` and the search loop of
# ``ramsey.search_monochromatic`` as they were when each ran its own
# colour-coverage loop.


def discrete_oscillation(c, points, eps):
    pts = list(points)
    eps = Fraction(eps)
    for colour in range(c.colours):
        marked = [p for p in pts if c(p) == colour]
        if not marked:
            continue
        if all(any(ramsey._map_metric(p, q) <= eps for q in marked) for p in pts):
            return Fraction(0)
    return Fraction(1)


def search_monochromatic(c, net_xz, net_xy, candidates, eps):
    eps = Fraction(eps)
    for gamma in candidates:
        composed = [compose(gamma, eta) for eta in net_xy.points]
        for colour in range(c.colours):
            marked = [p for p in net_xz.points if c(p) == colour]
            if not marked:
                continue
            if all(any(ramsey._map_metric(h, q) <= eps for q in marked) for h in composed):
                return gamma, colour
    return None


# ``amalgam._coupled_level`` as it was when the X rows, the vertices and
# the functional list each went through Fractions.


def fraction_coupled_level(Y, Z, X, fg, n, c):
    """Materialise the overlap-penalised seminorm at level n via its dual.

    The dual ball is the set of functional pairs lying in the two dual
    balls whose pullback difference through f and g lies in c times the
    shared dual ball (facet ``a`` gives the row ``fg a`` = (f a, -g a));
    its vertex list is the functional family.
    """
    dy, dz = Y.dim, Z.dim
    total = dy + dz
    rows = []
    for a, b in dual_ball_facets(Y.seminorms[n]):
        rows.append((a + (0,) * dz, b))
    for a, b in dual_ball_facets(Z.seminorms[n]):
        rows.append(((0,) * dy + a, b))
    for a, b in dual_ball_facets(X.seminorms[n]):
        rows.append((fg.apply(a), c * b))
    verts = polytope_vertices(rows, total)
    return PolyhedralSeminorm.from_functionals(total, [v for v in verts if any(v)], reduce=False)


# ``polytope._cone_rays`` as it was when each (+, -) pair was tested for
# adjacency by a scan of every other ray's tight set.


def scan_cone_rays(rows: list[list[int]], dim: int) -> list[tuple[int, ...]] | None:
    # The pivot columns of the transpose are the lex-first independent rows.
    rank, chosen, _ = _kernel.echelon_int([list(c) for c in zip(*rows)])
    if rank < dim:
        return None
    # [B | I] reduces to rows c_i * [e_i | row i of B^-1] with c_i > 0.
    aug = [list(rows[i]) + [int(j == k) for j in range(dim)] for k, i in enumerate(chosen)]
    _, _, red = _kernel.echelon_int(aug)
    m = lcm(*(r[i] for i, r in enumerate(red)))
    scale = [m // r[i] for i, r in enumerate(red)]
    rays = [tuple(_row_primitive([s * r[dim + j] for s, r in zip(scale, red)])) for j in range(dim)]
    # Ray j lies on every chosen row but row j.
    full = (1 << dim) - 1
    tight = [full ^ (1 << j) for j in range(dim)]

    chosen_set = set(chosen)
    bit = 1 << dim
    for idx in range(len(rows)):
        if idx in chosen_set:
            continue
        row = rows[idx]
        vals = [sum(a * x for a, x in zip(row, r)) for r in rays]
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        for p in plus:
            tp, rp, vp = tight[p], rays[p], vals[p]
            for q in minus:
                common = tp & tight[q]
                if common.bit_count() < dim - 2:
                    continue
                if any(t & common == common for k, t in enumerate(tight) if k != p and k != q):
                    continue
                vq = vals[q]
                new_rays.append(tuple(_row_primitive([vp * qx - vq * px for px, qx in zip(rp, rays[q])])))
                new_tight.append(common | bit)
        rays = [rays[k] for k in plus] + [rays[k] for k in zero] + new_rays
        tight = [tight[k] for k in plus] + [tight[k] | bit for k in zero] + new_tight
        bit <<= 1
    return rays


# ``Matrix.apply`` and ``Matrix.mul`` as they were when each result entry
# was one Fraction ``dot``, and ``transpose``, ``sub``, ``scale`` and
# ``rank`` as they were when a matrix stored its Fraction entries, with
# ``linalg.vec_sub`` and ``vec_scale``, which ``sub`` and ``scale`` called.
# ``fraction_stack`` is the ``entries`` concatenation that ``Matrix.stack``
# replaced.  Each reads the Fraction view and builds its result through
# ``Matrix.from_rows``.


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in u)


def fraction_apply(self: Matrix, x: Vec) -> Vec:
    if len(x) != self.cols:
        raise DimensionMismatch(f"vector of length {len(x)} into {self.rows}x{self.cols}")
    return tuple(dot(r, x) for r in self.entries)


def fraction_mul(self: Matrix, other: Matrix) -> Matrix:
    if self.cols != other.rows:
        raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
    ot = fraction_transpose(other)
    return Matrix.from_rows([[dot(r, c) for c in ot.entries] for r in self.entries], other.cols)


def fraction_transpose(self: Matrix) -> Matrix:
    e = self.entries
    return Matrix.from_rows([[r[j] for r in e] for j in range(self.cols)], self.rows)


def fraction_sub(self: Matrix, other: Matrix) -> Matrix:
    if (self.rows, self.cols) != (other.rows, other.cols):
        raise DimensionMismatch("shape mismatch in sub")
    return Matrix.from_rows([vec_sub(r, s) for r, s in zip(self.entries, other.entries)], self.cols)


def fraction_scale(self: Matrix, c) -> Matrix:
    return Matrix.from_rows([vec_scale(c, r) for r in self.entries], self.cols)


def fraction_rank(self: Matrix) -> int:
    return len(row_space_basis(list(self.entries)))


def fraction_stack(blocks, cols: int) -> Matrix:
    return Matrix.from_rows([r for m in blocks for r in m.entries], cols)


# The constructions as they were when each read the Fraction view of its
# inputs' rows (``functionals``, or ``Matrix.entries`` for the sup norm)
# and built its result through ``from_functionals``: ``seminorms.linf``,
# ``seminorm_kernel`` and ``quotient_norm``; ``spaces.extend_with_norm``,
# ``graded_closure``, ``product_space`` and ``pullback_space`` with the
# ``_pad_functionals`` they called; ``amalgam._band``,
# ``rescale_expansive`` and the sum level of ``pushout_n_preserving``
# (from the cutoff on); and the padded space of ``ramsey.quotient_lift``.
# Verbatim but for their names, and for the two pieces cut out of a larger
# function (``fraction_sum_level``, ``fraction_padded``).


def fraction_linf(dim: int) -> PolyhedralSeminorm:
    return PolyhedralSeminorm.from_functionals(dim, Matrix.identity(dim).entries)


def fraction_seminorm_kernel(s: PolyhedralSeminorm) -> list[Vec]:
    """Canonical basis of {x : s(x) = 0}."""
    return linalg.nullspace(Matrix.from_rows(s.functionals, s.dim))


def fraction_quotient_norm(s: PolyhedralSeminorm) -> QuotientNorm:
    """Quotient by the kernel along the lex-first coordinate complement."""
    ker = fraction_seminorm_kernel(s)
    d = s.dim
    comp = linalg.coordinate_complement(ker, d)
    eye = Matrix.identity(d).entries
    units = [eye[j] for j in comp]
    Minv = linalg.inverse(Matrix.from_rows(ker + units, d).transpose())
    lift = Matrix.from_rows(units, d).transpose()
    norm = PolyhedralSeminorm.from_functionals(len(comp), [tuple(f[j] for j in comp) for f in s.functionals])
    return QuotientNorm(projection=Matrix.from_rows(Minv.entries[len(ker):], d), lift=lift, norm=norm)


def fraction_extend_with_norm(X: MultiSpace) -> MultiSpace:
    """Append a norm level: coordinate sup norm, or its running max if graded."""
    linf = fraction_linf(X.dim)
    if X.graded:
        last = X.seminorms[-1]
        new = PolyhedralSeminorm.from_functionals(X.dim, last.functionals + linf.functionals)
        return MultiSpace.make(X.seminorms + (new,), graded=True)
    return MultiSpace.make(X.seminorms + (linf,), graded=False)


def fraction_graded_closure(X: MultiSpace) -> MultiSpace:
    """Replace level n by the running max of levels <= n."""
    sems = []
    acc: tuple[Vec, ...] = ()
    for s in X.seminorms:
        acc = acc + tuple(s.functionals)
        sems.append(PolyhedralSeminorm.from_functionals(X.dim, acc))
    return MultiSpace(tuple(sems), graded=True)


def fraction_pad(funcs, offset: int, total: int):
    return [(0,) * offset + tuple(f) + (0,) * (total - offset - len(f)) for f in funcs]


def fraction_product_space(factors) -> MultiSpace:
    factors = list(factors)
    if not factors:
        raise ArityMismatch("empty product")
    if any(f.length != 1 for f in factors):
        raise ArityMismatch("product_space requires single-seminorm factors")
    if len(factors) == 1:
        return factors[0]
    total = sum(f.dim for f in factors)
    sems = []
    off = 0
    for f in factors:
        padded = fraction_pad(f.seminorms[0].functionals, off, total)
        sems.append(PolyhedralSeminorm.from_functionals(total, padded, reduce=False))
        off += f.dim
    return MultiSpace(tuple(sems), graded=False)


def fraction_pullback_space(X: MultiSpace, lift: Matrix) -> MultiSpace:
    m = lift.cols
    if lift.rows != X.dim:
        raise DimensionMismatch("lift target dimension != space dimension")
    if lift.rank() != m:
        raise DimensionMismatch("lift columns are dependent")
    sems = []
    for s in X.seminorms:
        restricted = Matrix.from_rows(s.functionals, X.dim).mul(lift).entries
        restricted = [f for f in restricted if any(x != 0 for x in f)]
        sems.append(PolyhedralSeminorm.from_functionals(m, restricted))
    return MultiSpace(tuple(sems), graded=X.graded and is_graded_sequence(tuple(sems)))


def fraction_band(Y: MultiSpace, Z: MultiSpace, n: int, prev: PolyhedralSeminorm | None) -> PolyhedralSeminorm:
    total = Y.dim + Z.dim
    funcs = fraction_pad(Y.seminorms[n].functionals, 0, total) if n < Y.length else []
    funcs += fraction_pad(Z.seminorms[n].functionals, Y.dim, total)
    if prev is not None:
        funcs += prev.functionals
    return PolyhedralSeminorm.from_functionals(total, funcs)


def fraction_rescale_expansive(X: MultiSpace, delta) -> MultiSpace:
    delta = frac(delta)
    if delta < 0:
        raise BadArgument("delta must be nonnegative")
    if delta == 0:
        return X
    factor = Fraction(1, 1) / (1 + delta)
    sems = []
    for s in X.seminorms:
        funcs = [tuple(factor * x for x in f) for f in s.functionals]
        sems.append(PolyhedralSeminorm.from_functionals(X.dim, funcs, reduce=False))
    return MultiSpace(tuple(sems), X.graded)


def fraction_sum_level(Y: MultiSpace, Z: MultiSpace, m: int) -> PolyhedralSeminorm:
    """Level m of ``pushout_n_preserving`` at or above its cutoff."""
    dy, dz = Y.dim, Z.dim
    total = dy + dz
    fy, fz = Y.seminorms[m].functionals, Z.seminorms[m].functionals
    if fy and fz:  # the sum seminorm: every a + b and a - b
        funcs = [tuple(a) + sb for a in fy for b in fz for sb in (tuple(b), tuple(-x for x in b))]
    else:  # one factor is zero at this level: the other's seminorm
        funcs = fraction_pad(fy, 0, total) + fraction_pad(fz, dy, total)
    return PolyhedralSeminorm.from_functionals(total, funcs)


def fraction_padded(Z: MultiSpace) -> MultiSpace:
    """The padded space Z x Z with the first-block seminorm of ``quotient_lift``."""
    total = 2 * Z.dim
    padded_funcs = fraction_pad(Z.seminorms[0].functionals, 0, total)
    return MultiSpace((PolyhedralSeminorm.from_functionals(total, padded_funcs, reduce=False),))
