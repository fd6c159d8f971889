"""Seeded instance generators shared by property and acceptance tests."""

import random
from fractions import Fraction

from msn.linalg import Matrix, inverse
from msn.maps import LinearMap
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, graded_closure

F = Fraction
S = PolyhedralSeminorm.from_functionals


def random_seminorm(rng, dim, max_funcs=3, lo=-2, hi=2):
    funcs = []
    for _ in range(rng.randint(0, max_funcs)):
        f = tuple(F(rng.randint(lo, hi)) for _ in range(dim))
        if any(v != 0 for v in f):
            funcs.append(f)
    return S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim)


def random_space(rng, dim, lam, max_funcs=3):
    return MultiSpace(tuple(random_seminorm(rng, dim, max_funcs) for _ in range(lam)))


def block_embedding_triple(rng, dim_x, extra_y, extra_z, lam_x, lam_y, lam_z,
                           delta=F(0), graded=False, max_funcs=2):
    """X with block inclusions into Y and Z scaled by (1 + delta).

    X may have dimension 0; then every level of X is zero.

    Y and Z extend X's seminorms by zero on the extra coordinates and add
    random functionals supported on the extra block only, so the block
    inclusion is exactly isometric and its (1+delta)-multiple is a
    delta-embedding.
    """
    xs = [random_seminorm(rng, dim_x, max_funcs) for _ in range(lam_x)]
    if dim_x and all(s.is_zero() for s in xs):
        xs[0] = S(dim_x, [tuple(F(1 if i == 0 else 0) for i in range(dim_x))])
    X = MultiSpace(tuple(xs))

    def extend(extra, lam):
        dim = dim_x + extra
        out = []
        for n in range(lam):
            funcs = []
            if n < len(xs):
                funcs.extend(tuple(f) + (F(0),) * extra for f in xs[n].functionals)
            for _ in range(rng.randint(0, max_funcs)):
                tail = tuple(F(rng.randint(-2, 2)) for _ in range(extra))
                if any(v != 0 for v in tail):
                    funcs.append((F(0),) * dim_x + tail)
            out.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        return MultiSpace(tuple(out))

    Y = extend(extra_y, lam_y)
    Z = extend(extra_z, lam_z)
    if graded:
        X, Y, Z = graded_closure(X), graded_closure(Y), graded_closure(Z)
    t = 1 + delta
    fm = Matrix.from_rows([[t if j == i else F(0) for j in range(dim_x)] for i in range(dim_x)]
                          + [[F(0)] * dim_x for _ in range(extra_y)], dim_x)
    gm = Matrix.from_rows([[t if j == i else F(0) for j in range(dim_x)] for i in range(dim_x)]
                          + [[F(0)] * dim_x for _ in range(extra_z)], dim_x)
    return X, Y, Z, LinearMap(X, Y, fm), LinearMap(X, Z, gm)


def random_invertible(rng, dim, lo=-2, hi=2):
    while True:
        T = Matrix.from_rows([[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)], dim)
        if T.rank() == dim:
            return T


def image_space(X, T):
    """The space carried forward along T (functionals pulled back by T^-1)."""
    Tinv = inverse(T)
    sems = []
    for s in X.seminorms:
        funcs = [tuple(Tinv.transpose().apply(f)) for f in s.functionals]
        funcs = [f for f in funcs if any(v != 0 for v in f)]
        sems.append(S(X.dim, funcs) if funcs else PolyhedralSeminorm.zero(X.dim))
    return MultiSpace(tuple(sems))
