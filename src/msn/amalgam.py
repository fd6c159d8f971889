"""Amalgamation of multi-seminormed spaces along near-commuting squares.

The basic construction equips the direct sum of the two target spaces
with a three-band sequence of seminorms: below the common length the
seminorm penalises the overlap through the shared space (an infimal
convolution, materialised exactly through its dual polytope), between the
two target lengths it is the block max (or running max in graded mode),
and above, the longer factor's seminorm.  Both inclusion legs are exactly
isometric and the legs nearly commute with exact certificates.

Variants: a level-count-preserving pushout that is exact below a cutoff
level and additive above it, the per-level product amalgam for separated
spaces, and the fold discharging finitely many embedding pairs at once.

The two-leg constructions share one private skeleton: ``_inputs`` checks
eps, delta and the map shapes, ``_swapped`` reads the result for (Z, Y)
as the one for (Y, Z) when Y is the longer space, ``_band`` builds the
levels at or above the length of X, and ``_direct_sum`` builds the two
block inclusions and the certificate: the operator seminorms of [f; -g]
(``_stacked``, built once per pushout).  ``_coupling`` puts the stored
integer rows of [f; -g] and the coupling constant over one lcm, so each
coupled level stays in integers from the dual-ball facets through the
vertex rows to ``seminorms._from_rows``.  The bands, the sum levels and
the rescaled levels are built there too, from the stored rows of their
inputs, so no Fraction is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from msn.errors import (
    BadArgument,
    EpsNonPositive,
    Infeasible,
    NotAnEmbedding,
    NotAnNEmbedding,
    NotSeparated,
    ShapeMismatch,
)
from msn.linalg import Matrix, Vec, frac
from msn.lp import solve_lp
from msn.maps import LinearMap, compose, identity_map, is_embedding, map_distance, operator_seminorm
from msn.polytope import vertex_rows
from msn.seminorms import PolyhedralSeminorm, _from_rows, dual_ball_facets, quotient_norm
from msn.spaces import (
    MultiSpace,
    _pad_rows,
    extend_with_norm,
    is_graded_sequence,
    is_separated,
    product_space,
    trivial_space,
    truncate,
)


@dataclass(frozen=True)
class AmalgamResult:
    """Pushout space with its two exact legs and near-commuting certificate."""

    space: MultiSpace
    leg_y: LinearMap
    leg_z: LinearMap
    bound_certificate: tuple[Fraction, ...]
    delta: Fraction
    eps: Fraction


def _inputs(X: MultiSpace, Y: MultiSpace, Z: MultiSpace, f: LinearMap, g: LinearMap,
            delta, eps) -> tuple[Fraction, Fraction]:
    """``(delta, eps)`` as Fractions, once both are in range and f: X -> Y, g: X -> Z."""
    delta = frac(delta)
    eps = frac(eps)
    if eps <= 0:
        raise EpsNonPositive("the amalgamation error must be strictly positive")
    if delta < 0:
        raise BadArgument("delta must be nonnegative")
    if f.domain != X or g.domain != X or f.codomain != Y or g.codomain != Z:
        raise ShapeMismatch("pushout maps must share the domain X and land in Y, Z")
    return delta, eps


def _swapped(res: AmalgamResult) -> AmalgamResult:
    """The amalgam of (g, f) read as the amalgam of (f, g): the legs trade places."""
    return AmalgamResult(res.space, res.leg_z, res.leg_y, res.bound_certificate, res.delta, res.eps)


def _check_embeddings(delta: Fraction, **maps: LinearMap):
    for who, h in maps.items():
        ok, wit = is_embedding(h, delta)
        if not ok:
            raise NotAnEmbedding(f"{who} is not a multi-{delta}-isometric embedding", wit)


def _band(Y: MultiSpace, Z: MultiSpace, n: int, prev: PolyhedralSeminorm | None) -> PolyhedralSeminorm:
    """Level n of Y (+) Z at or above the length of X.

    The block max of the level-n seminorms the factors have (Y, the
    shorter, may have none), joined with ``prev`` (the level below, in
    graded mode) when given.
    """
    total = Y.dim + Z.dim
    rows = _pad_rows(Y.seminorms[n].rows, 0, total) if n < Y.length else []
    rows += _pad_rows(Z.seminorms[n].rows, Y.dim, total)
    if prev is not None:
        rows += prev.rows
    return _from_rows(total, rows)


def _stacked(f: LinearMap, g: LinearMap) -> Matrix:
    """[f; -g], the matrix of ``leg_y . f - leg_z . g`` for block inclusions."""
    return Matrix.stack((f.matrix, g.matrix.scale(-1)), f.domain.dim)


def _coupling(fg: Matrix, c: Fraction) -> tuple[list[list[int]], int]:
    """``(m * fg, m * c)`` in integers, ``fg`` as rows, over ``m = lcm(fg.den, c.denominator)``.

    The X rows of the coupled dual ball built from them are ``m`` times
    ``(fg a, c b)``, the same inequalities, so they give the same vertices.
    """
    m = lcm(fg.den, c.denominator)
    k = m // fg.den
    return [[x * k for x in r] for r in fg.ints], c.numerator * (m // c.denominator)


def _direct_sum(X: MultiSpace, Y: MultiSpace, Z: MultiSpace, W: MultiSpace, fg: Matrix,
                levels: int, delta: Fraction, eps: Fraction) -> AmalgamResult:
    """W = Y (+) Z with its block inclusions; ``fg``: X -> W certifies the first ``levels`` levels."""
    dy, dz = Y.dim, Z.dim
    leg_y = LinearMap(Y, W, Matrix.stack((Matrix.identity(dy), Matrix.zero(dz, dy)), dy))
    leg_z = LinearMap(Z, W, Matrix.stack((Matrix.zero(dy, dz), Matrix.identity(dz)), dz))
    cert = tuple(operator_seminorm(LinearMap(X, W, fg), n) for n in range(levels))
    return AmalgamResult(W, leg_y, leg_z, cert, delta, eps)


def _coupled_level(Y: MultiSpace, Z: MultiSpace, X: MultiSpace,
                   coupling: tuple[list[list[int]], int], n: int) -> PolyhedralSeminorm:
    """Materialise the overlap-penalised seminorm at level n via its dual.

    The dual ball is the set of functional pairs lying in the two dual
    balls whose pullback difference through f and g lies in c times the
    shared dual ball (facet ``a`` gives the row ``fg a`` = (f a, -g a));
    its vertex list is the functional family.  All in integers: the
    facets are primitive rows, ``coupling`` is ``_coupling(fg, c)``, and
    the vertex rows go to ``_from_rows``.
    """
    dy, dz = Y.dim, Z.dim
    total = dy + dz
    fgi, ci = coupling
    rows = [(a + (0,) * dz, b) for a, b in dual_ball_facets(Y.seminorms[n])]
    rows += [((0,) * dy + a, b) for a, b in dual_ball_facets(Z.seminorms[n])]
    rows += [(tuple(sum(map(mul, r, a)) for r in fgi), ci * b) for a, b in dual_ball_facets(X.seminorms[n])]
    return _from_rows(total, vertex_rows(rows, total), reduce=False)


def primal_pushout_value(Y, Z, X, f, g, n, c, y: Vec, z: Vec) -> Fraction:
    """Independent LP evaluation of the infimal-convolution formula.

    Minimises ||u||_Y,n + ||v||_Z,n + c ||x||_X,n over decompositions
    y = u + f(x), z = v - g(x); kept separate from the dual
    materialisation as the cross-check oracle.
    """
    dx = X.dim
    ft, gt = f.matrix.transpose(), g.matrix.transpose()
    # variables: x (dx), then epigraph bounds s >= ||y - f(x)||_Y,n,
    # t >= ||z + g(x)||_Z,n, r >= ||x||_X,n
    nv = dx + 3
    cons = []
    for phi in Y.seminorms[n].functionals:
        base = sum(phi[i] * y[i] for i in range(Y.dim))
        comp = ft.apply(phi)
        for sgn in (1, -1):
            row = tuple(-Fraction(sgn) * x for x in comp) + (Fraction(-1), Fraction(0), Fraction(0))
            cons.append((row, -Fraction(sgn) * base))
    for psi in Z.seminorms[n].functionals:
        base = sum(psi[i] * z[i] for i in range(Z.dim))
        comp = gt.apply(psi)
        for sgn in (1, -1):
            row = tuple(Fraction(sgn) * x for x in comp) + (Fraction(0), Fraction(-1), Fraction(0))
            cons.append((row, -Fraction(sgn) * base))
    for chi in X.seminorms[n].functionals:
        for sgn in (1, -1):
            row = tuple(Fraction(sgn) * x for x in chi) + (Fraction(0), Fraction(0), Fraction(-1))
            cons.append((row, Fraction(0)))
    for k in range(3):
        row = [Fraction(0)] * nv
        row[dx + k] = Fraction(-1)
        cons.append((tuple(row), Fraction(0)))
    obj = [Fraction(0)] * dx + [Fraction(1), Fraction(1), c]
    return solve_lp(obj, cons).value


def pushout(X: MultiSpace, Y: MultiSpace, Z: MultiSpace, f: LinearMap, g: LinearMap,
            delta, eps, graded: bool = False, separated: bool = False) -> AmalgamResult:
    """Amalgamate f: X -> Y and g: X -> Z into W = Y (+) Z.

    Legs are exactly isometric; for every level n below the length of X
    the legs nearly commute with exact certificate at most 2*delta + eps.
    ``graded`` switches the upper bands to running maxima; ``separated``
    appends a norm level if the sum fails to be separated.
    """
    delta, eps = _inputs(X, Y, Z, f, g, delta, eps)
    if Y.length > Z.length:
        return _swapped(pushout(X, Z, Y, g, f, delta, eps, graded=graded, separated=separated))
    _check_embeddings(delta, f=f, g=g)
    # coupling constant from the expansive rescaling route
    c = (2 * delta + delta * delta + eps) / (1 + delta)
    use_graded = graded and X.graded and Y.graded and Z.graded
    fg = _stacked(f, g)
    coupling = _coupling(fg, c)
    sems: list[PolyhedralSeminorm] = []
    for n in range(Z.length):
        sems.append(_coupled_level(Y, Z, X, coupling, n) if n < X.length
                    else _band(Y, Z, n, sems[-1] if use_graded else None))
    W = MultiSpace.make(tuple(sems), graded=use_graded)
    if separated and not is_separated(W):
        W = extend_with_norm(W)
    return _direct_sum(X, Y, Z, W, fg, X.length, delta, eps)


def _partner_in_ball(target: Vec, adj_rows: list[Vec], ball_funcs, slack_funcs, width: int):
    """Least-slack alignment: a ball point whose adjoint image matches target.

    Finds coefficients for a point psi of the unit ball of ``ball_funcs``
    and a slack vector in the span of ``slack_funcs`` with
    adjoint(psi) + slack = target, minimising the l1 mass of the slack
    (the least c with target - adjoint(psi) in c times the slack ball).
    ``width`` is the dimension of the ball's space, so psi has that
    length also when ``ball_funcs`` is empty.  Returns (psi, c) or None
    when no alignment exists.
    """
    kz = len(ball_funcs)
    kx = len(slack_funcs)
    d = len(target)
    nv = 2 * kz + 2 * kx
    cons = []
    for i in range(nv):
        row = [Fraction(0)] * nv
        row[i] = Fraction(-1)
        cons.append((tuple(row), Fraction(0)))
    row = [Fraction(1)] * (2 * kz) + [Fraction(0)] * (2 * kx)
    cons.append((tuple(row), Fraction(1)))
    for c in range(d):
        row = ([adj_rows[i][c] for i in range(kz)] + [-adj_rows[i][c] for i in range(kz)]
               + [slack_funcs[j][c] for j in range(kx)] + [-slack_funcs[j][c] for j in range(kx)])
        cons.append((tuple(row), target[c]))
        cons.append((tuple(-x for x in row), -target[c]))
    obj = [Fraction(0)] * (2 * kz) + [Fraction(1)] * (2 * kx)
    try:
        res = solve_lp(obj, cons)
    except Infeasible:
        return None
    coeffs = tuple(a - b for a, b in zip(res.point[:kz], res.point[kz:2 * kz]))
    return Matrix.from_rows(ball_funcs, width).transpose().apply(coeffs), res.value


def _sparse_level(Y: MultiSpace, Z: MultiSpace, X: MultiSpace,
                  f: LinearMap, g: LinearMap, n: int, c: Fraction) -> PolyhedralSeminorm:
    """Aligned-pair seminorm: same legs as the coupled level, far fewer
    functionals (one partner per functional instead of a vertex product)."""
    dy, dz = Y.dim, Z.dim
    fy = Y.seminorms[n].functionals
    fz = Z.seminorms[n].functionals
    fx = list(X.seminorms[n].functionals)
    ft, gt = f.matrix.transpose(), g.matrix.transpose()
    fadj = [ft.apply(phi) for phi in fy]
    gadj = [gt.apply(psi) for psi in fz]

    def partner(target: Vec, adj_rows: list[Vec], ball_funcs, width: int) -> Vec:
        hit = _partner_in_ball(target, adj_rows, ball_funcs, fx, width)
        if hit is None or hit[1] > c:
            raise ValueError("no aligned partner within the coupling budget")
        return hit[0]

    funcs = ([tuple(phi) + partner(fadj[i], gadj, fz, dz) for i, phi in enumerate(fy)]
             + [partner(gadj[j], fadj, fy, dy) + tuple(psi) for j, psi in enumerate(fz)])
    funcs = [v for v in funcs if any(x != 0 for x in v)]
    return PolyhedralSeminorm.from_functionals(dy + dz, funcs)


def sparse_pushout(X: MultiSpace, Y: MultiSpace, Z: MultiSpace, f: LinearMap, g: LinearMap,
                   delta, eps) -> AmalgamResult:
    """Amalgam with aligned-pair seminorms below the shared length.

    Same exact-leg and near-commuting guarantees as ``pushout`` but the
    functional count per level is additive instead of multiplicative, at
    the price of a coarser (non-canonical) seminorm.  Upper bands follow
    the standard construction.
    """
    delta, eps = _inputs(X, Y, Z, f, g, delta, eps)
    if Y.length > Z.length:
        return _swapped(sparse_pushout(X, Z, Y, g, f, delta, eps))
    _check_embeddings(delta, f=f, g=g)
    c = (2 * delta + delta * delta + eps) / (1 + delta)
    sems = [_sparse_level(Y, Z, X, f, g, n, c) if n < X.length else _band(Y, Z, n, None)
            for n in range(Z.length)]
    res = _direct_sum(X, Y, Z, MultiSpace(tuple(sems)), _stacked(f, g), X.length, delta, eps)
    ok_y, wit_y = is_embedding(res.leg_y, 0)
    ok_z, wit_z = is_embedding(res.leg_z, 0)
    if not (ok_y and ok_z):
        raise NotAnEmbedding("sparse amalgam produced a non-isometric leg", wit_y or wit_z)
    if any(b is None or b > 2 * delta + eps for b in res.bound_certificate):
        raise ValueError("sparse amalgam certificate exceeded the modulus")
    return res


def rescale_expansive(X: MultiSpace, delta) -> MultiSpace:
    """Scale every level by 1/(1+delta).

    A delta-embedding of X becomes an expansive (2*delta + delta^2)-
    embedding of the rescaled space.
    """
    delta = frac(delta)
    if delta < 0:
        raise BadArgument("delta must be nonnegative")
    if delta == 0:
        return X
    # ints / s divided by 1 + delta = p / q is (ints * q) / (s * p).
    p, q = (1 + delta).as_integer_ratio()
    sems = (_from_rows(X.dim, [(tuple(x * q for x in ia), s * p) for ia, s in sem.rows], reduce=False)
            for sem in X.seminorms)
    return MultiSpace(tuple(sems), X.graded)


def pushout_n_preserving(X: MultiSpace, Y: MultiSpace, Z: MultiSpace,
                         f: LinearMap, g: LinearMap, n: int, eps) -> AmalgamResult:
    """Pushout of maps preserving the first n levels exactly.

    All three spaces must have equal length; below level n the overlap
    seminorm with weight eps is used, from level n on the sum seminorm.
    Legs are exactly isometric at every level and the legs commute within
    eps below level n.
    """
    _, eps = _inputs(X, Y, Z, f, g, 0, eps)
    if not (X.length == Y.length == Z.length):
        raise ShapeMismatch("the n-preserving pushout needs equal lengths")
    if not 0 <= n <= X.length:
        raise ShapeMismatch("cutoff level outside the shared length")
    for name, h in (("f", f), ("g", g)):
        if n:
            ok, wit = is_embedding(LinearMap(truncate(X, n), truncate(h.codomain, n), h.matrix), 0)
        else:
            ok, wit = h.is_injective(), {"kind": "injectivity"}
        if not ok:
            raise NotAnNEmbedding(f"{name} does not preserve the first {n} levels exactly", wit)

    fg = _stacked(f, g)
    coupling = _coupling(fg, eps)
    sems = []
    for m in range(Z.length):
        ry, rz = Y.seminorms[m].rows, Z.seminorms[m].rows
        if m < n:
            sems.append(_coupled_level(Y, Z, X, coupling, m))
        elif ry and rz:  # the sum seminorm: every a/s + b/t and a/s - b/t
            rows = [(tuple(x * t for x in a) + tuple(x * sg * s for x in b), s * t)
                    for a, s in ry for b, t in rz for sg in (1, -1)]
            sems.append(_from_rows(Y.dim + Z.dim, rows))
        else:  # one factor is zero at this level: the other's seminorm, their block max
            sems.append(_band(Y, Z, m, None))
    graded = X.graded and Y.graded and Z.graded
    W = MultiSpace(tuple(sems), graded and is_graded_sequence(tuple(sems)))
    return _direct_sum(X, Y, Z, W, fg, n, Fraction(0), eps)


def _quotient_block(space: MultiSpace, i: int):
    q = quotient_norm(space.seminorms[i])
    return MultiSpace((q.norm,)), q


def product_amalgam(X: MultiSpace, Y: MultiSpace, Z: MultiSpace,
                    f: LinearMap, g: LinearMap, delta, eps) -> AmalgamResult:
    """Per-level amalgam of separated spaces through their quotient norms.

    Level i of the result sees only the i-th factor: a normed pushout of
    the level-i quotients below the length of X, a joint embedding of the
    quotients between the lengths of X and Y, and Z's quotient above.
    """
    delta, eps = _inputs(X, Y, Z, f, g, delta, eps)
    for name, S in (("X", X), ("Y", Y), ("Z", Z)):
        if not is_separated(S):
            raise NotSeparated(f"{name} must be separated")
    if Y.length > Z.length:
        return _swapped(product_amalgam(X, Z, Y, g, f, delta, eps))
    _check_embeddings(delta, f=f, g=g)

    blocks: list[MultiSpace] = []
    legy_blocks: list[Matrix] = []
    legz_blocks: list[Matrix] = []
    for i in range(Z.length):
        Zi, qz = _quotient_block(Z, i)
        if i >= Y.length:
            blocks.append(Zi)
            legy_blocks.append(Matrix.zero(Zi.dim, Y.dim))
            legz_blocks.append(qz.projection)
            continue
        Yi, qy = _quotient_block(Y, i)
        if i < X.length:
            Xi, qx = _quotient_block(X, i)
            fi = qy.projection.mul(f.matrix).mul(qx.lift)
            gi = qz.projection.mul(g.matrix).mul(qx.lift)
            di = delta
        else:
            Xi, fi, gi, di = trivial_space(1), Matrix.zero(Yi.dim, 0), Matrix.zero(Zi.dim, 0), 0
        res = pushout(Xi, Yi, Zi, LinearMap(Xi, Yi, fi), LinearMap(Xi, Zi, gi), di, eps)
        blocks.append(res.space)
        legy_blocks.append(res.leg_y.matrix.mul(qy.projection))
        legz_blocks.append(res.leg_z.matrix.mul(qz.projection))
    W = product_space(blocks)
    leg_y = LinearMap(Y, W, Matrix.stack(legy_blocks, Y.dim))
    leg_z = LinearMap(Z, W, Matrix.stack(legz_blocks, Z.dim))
    cert = tuple(map_distance(compose(leg_y, f), compose(leg_z, g), i) for i in range(X.length))
    return AmalgamResult(W, leg_y, leg_z, cert, delta, eps)


@dataclass(frozen=True)
class MultiAmalgamResult:
    space: MultiSpace
    into: LinearMap                       # I : Y -> Z
    legs: tuple[LinearMap, ...]           # J_p : Y -> Z per pair
    bounds: tuple[tuple[Fraction, ...], ...]


def multi_amalgam(Y: MultiSpace, pairs, eps) -> MultiAmalgamResult:
    """Discharge finitely many near-commuting pairs by folding pushouts.

    Each pair is (X, gamma, eta, delta) with gamma, eta delta-embeddings
    of X into Y.  Returns (Z, I, per-pair J) with
    max_l ||I . gamma - J . eta||_l <= 2*delta + eps, recomputed exactly
    after all folds.
    """
    eps = frac(eps)
    if eps <= 0:
        raise EpsNonPositive("eps must be strictly positive")
    Zc = Y
    I = identity_map(Y)
    js: list[LinearMap] = []
    for X, gamma, eta, delta in pairs:
        delta = frac(delta)
        _check_embeddings(delta, gamma=gamma, eta=eta)
        res = pushout(X, Zc, Y, compose(I, gamma), eta, delta, eps)
        Zc = res.space
        js = [compose(res.leg_y, j) for j in js]
        js.append(res.leg_z)
        I = compose(res.leg_y, I)
    bounds = []
    for (X, gamma, eta, delta), J in zip(pairs, js):
        bounds.append(tuple(map_distance(compose(I, gamma), compose(J, eta), l)
                            for l in range(X.length)))
    return MultiAmalgamResult(Zc, I, tuple(js), tuple(bounds))
