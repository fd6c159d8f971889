"""Colouring machinery for approximate Ramsey experiments.

Embedding sets of one-dimensional spaces are finite unions of polytope
faces (seminorm-sphere intersections), so they admit exhaustively
enumerated nets with exact density certificates.  On top of the nets sit
discrete and continuous colourings, the transformers between them, the
product-colouring identity, the quotient lift through padded spaces, and
a brute-force monochromatic-set search that is sound by exhaustive
re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import gcd, lcm
from operator import and_, mul

from msn.errors import (
    BadArgument,
    DimensionMismatch,
    EmptyEmbeddingSet,
    MultiLevelInput,
    ShapeMismatch,
    UndefinedPoint,
)
from msn.linalg import Matrix, Vec
from msn.maps import LinearMap, compose, is_embedding, map_distance, sup_distance
from msn.polytope import vertex_rows
from msn.seminorms import _from_rows, quotient_norm
from msn.spaces import MultiSpace, _pad_rows, joint_kernel, product_space


def _map_metric(f: LinearMap, g: LinearMap) -> Fraction:
    d = sup_distance(f, g)
    if d is None:
        raise ValueError("unbounded distance between net points")
    return d


@dataclass(frozen=True)
class EmbeddingNet:
    """Finite list of exact embeddings, epsilon-dense when certified.

    ``resolution`` is the certified mesh in the max-over-levels operator
    distance; None marks sampled nets carrying no density certificate.
    """

    domain: MultiSpace
    codomain: MultiSpace
    points: tuple[LinearMap, ...]
    resolution: Fraction | None


def _line_image_constraints(X: MultiSpace):
    """Values the image vector of the basis of a line must attain."""
    return [X.seminorms[m]((Fraction(1),)) for m in range(X.length)]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def sphere_points(X: MultiSpace, Y: MultiSpace, eps) -> list[Vec]:
    """Image vectors of ``build_net``'s points, in its order, with no map built.

    The embedding set of a one-dimensional X is the intersection of
    seminorm spheres, a finite union of faces of one polytope, whose
    vertices are enumerated once; each face, the hull of the vertices on
    it, is covered by an exact simplex grid with mesh at most eps, and
    each distinct grid point is re-checked exactly, all in integers;
    Fractions are built only for the kept points.  Sorted, but for the
    ± kernel pair of all-zero targets.  Raises when the constraint set
    is empty.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise BadArgument("eps must be positive")
    if X.dim != 1:
        raise DimensionMismatch("exhaustive enumeration needs a one-dimensional domain")
    if X.length > Y.length:
        raise ShapeMismatch("domain carries more levels than the codomain")
    targets = _line_image_constraints(X)

    if all(t == 0 for t in targets):
        ker = joint_kernel(Y, range(X.length))
        if not ker:
            raise EmptyEmbeddingSet("no nonzero vector annihilated by every level")
        return [ker[0], tuple(-x for x in ker[0])]

    # P: every level's |φ·y| <= c_m, plus pins setting the joint kernel of
    # the nonzero levels to zero for a canonical section.  A recession
    # direction of P lies in that kernel and is orthogonal to it, so P is
    # bounded: each sphere face {φ·y = c} is a face of P, the hull of the
    # vertices of P on it (Fukuda & Prodon 1996).  A face picks one signed
    # row (±φ, c_m) of every level with a nonzero target and functionals,
    # each φ = a / s as the row (±a, c_m s).
    rows = [(r, c * s) for m, c in enumerate(targets) for a, s in Y.seminorms[m].rows
            for r in (a, tuple(-x for x in a))]
    for k in joint_kernel(Y, [m for m in range(X.length) if targets[m] != 0]):
        rows += [(k, 0), (tuple(-x for x in k), 0)]
    vrows = vertex_rows(rows, Y.dim)
    D = lcm(*(t for _, t in vrows))
    verts = [[x * (D // t) for x in xs] for xs, t in vrows]  # vertex i is verts[i] / D
    # Level m as (a, s, c): its functionals a_j / s over the lcm s of the row scales, and its target.
    levels = [([[x * (s // t) for x in a] for a, t in sm.rows], s, c)
              for sm, c in zip(Y.seminorms, targets) for s in [lcm(*(t for _, t in sm.rows))]]
    # vals[j][i] = a_j . verts[i], so φ_j is c at vertex i iff vals[j][i] * c.den == c.num * s * D.
    active = [(s, c, [[sum(map(mul, a, v)) for v in verts] for a in fa]) for fa, s, c in levels if c and fa]
    tight = [[sum(1 << i for i, x in enumerate(vs) if sg * x * c.denominator == c.numerator * s * D)
              for vs in vals for sg in (1, -1)] for s, c, vals in active]
    grid: set[tuple] = set()
    for eqs in iproduct(*tight):
        on = reduce(and_, eqs, (1 << len(verts)) - 1)
        face = [i for i in range(len(verts)) if on >> i & 1]
        if not face:
            continue
        # Simplex grid with exact rounding bound (#verts - 1) * diameter / n
        # <= eps; per level, the diameter is the widest spread of one
        # functional over the face, over s * D * c.
        diam = max((Fraction(max(max(vs[i] for i in face) - min(vs[i] for i in face) for vs in vals), s * D) / c
                    for s, c, vals in active), default=Fraction(0))
        need = (len(face) - 1) * diam / eps
        n = max(-(-need.numerator // need.denominator), 1)
        cols = list(zip(*(verts[i] for i in face)))
        for weights in _compositions(n, len(face)):
            w = [sum(map(mul, weights, col)) for col in cols]
            g = gcd(*w, n * D)
            grid.add((tuple(x // g for x in w), n * D // g))  # the point p / den in lowest terms
    # Grid points of a face of the sphere stay on the sphere only if the
    # face is exact; re-check each distinct one exactly and keep the valid.
    points = sorted(tuple(Fraction(x, den) for x in p) for p, den in grid
                    if all(max((abs(sum(map(mul, a, p))) for a in fa), default=0) * c.denominator
                           == c.numerator * s * den for fa, s, c in levels))
    if not points:
        raise EmptyEmbeddingSet("sphere system has no solutions")
    return points


def build_net(X: MultiSpace, Y: MultiSpace, eps) -> EmbeddingNet:
    """Exhaustive net of Emb(X, Y) for one-dimensional X: every one of the
    ``sphere_points`` as a map, each checked by ``is_embedding`` at 0."""
    maps = tuple(LinearMap(X, Y, Matrix.from_rows([[x] for x in p])) for p in sphere_points(X, Y, eps))
    for f in maps:
        ok, _ = is_embedding(f, 0)
        if not ok:
            raise EmptyEmbeddingSet("enumerated point fails the embedding check")
    return EmbeddingNet(X, Y, maps, Fraction(eps))


def sampled_net(X: MultiSpace, Y: MultiSpace, candidates) -> EmbeddingNet:
    """Net from externally supplied candidates; no density certificate."""
    maps = []
    for f in candidates:
        ok, _ = is_embedding(f, 0)
        if ok:
            maps.append(f)
    return EmbeddingNet(X, Y, tuple(maps), None)


@dataclass(frozen=True)
class Colouring:
    """Total evaluator on embedding points.

    Discrete colourings map to {0..colours-1}; continuous ones map to
    [0,1] and are expected to be 1-Lipschitz for the max-over-levels
    distance up to their stated level count.
    """

    kind: str                      # "discrete" | "continuous"
    colours: int | None            # discrete only
    level: int | None              # continuous only: Lipschitz level count
    table: tuple[tuple[Matrix, Fraction | int], ...] | None
    builtin: tuple | None          # ("coordinate-clamp", coord)

    def __call__(self, f: LinearMap):
        if self.table is not None:
            for k, v in self.table:
                if k == f.matrix:
                    return v
            raise UndefinedPoint("colouring table does not cover this map")
        name = self.builtin[0]
        if name == "coordinate-clamp":
            coord = self.builtin[1]
            if not 0 <= coord < f.matrix.rows:
                raise UndefinedPoint(f"coordinate {coord} outside the codomain of dimension {f.matrix.rows}")
            if not f.matrix.cols:
                raise UndefinedPoint("a map out of the zero space has no coordinate to clamp")
            return min(Fraction(1), max(Fraction(0), Fraction(f.matrix.ints[coord][0], f.matrix.den)))
        raise UndefinedPoint(f"unknown builtin colouring {name!r}")


def discrete_table(net: EmbeddingNet, values, colours: int) -> Colouring:
    table = tuple((p.matrix, int(v)) for p, v in zip(net.points, values, strict=True))
    return Colouring("discrete", colours, None, table, None)


def continuous_table(net: EmbeddingNet, values, level: int) -> Colouring:
    table = tuple((p.matrix, Fraction(v)) for p, v in zip(net.points, values, strict=True))
    return Colouring("continuous", None, level, table, None)


def lipschitz_audit(c: Colouring, points) -> bool:
    """Exact pairwise check of the defining Lipschitz inequality."""
    pts = list(points)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            lhs = abs(Fraction(c(a)) - Fraction(c(b)))
            bound = max(map_distance(a, b, m) for m in range(min(c.level, a.domain.length)))
            if lhs > bound:
                return False
    return True


def _covering_colour(c: Colouring, points, targets: list[LinearMap], eps: Fraction) -> int | None:
    """The first colour whose nonempty class among ``points`` eps-covers every target, or None."""
    for colour in range(c.colours):
        marked = [p for p in points if c(p) == colour]
        if marked and all(any(_map_metric(h, q) <= eps for q in marked) for h in targets):
            return colour
    return None


def oscillation(c: Colouring, points, eps=None):
    """Max pairwise colour gap; for discrete colourings, a coverage report.

    Discrete: returns 0 when one colour class eps-covers all points, else 1.
    """
    pts = list(points)
    if c.kind == "continuous":
        worst = Fraction(0)
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                worst = max(worst, abs(Fraction(c(a)) - Fraction(c(b))))
        return worst
    if eps is None:
        raise BadArgument("discrete oscillation needs the stated eps")
    return Fraction(1) if _covering_colour(c, pts, pts, Fraction(eps)) is None else Fraction(0)


def grid_of(eps) -> tuple[Fraction, ...]:
    """Uniform rational grid of mesh eps covering [0, 1]."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = []
    k = 0
    while True:
        v = k * eps
        if v >= 1:
            out.append(Fraction(1))
            break
        out.append(v)
        k += 1
    return tuple(out)


def discretize(c: Colouring, eps) -> tuple[Colouring, tuple[Fraction, ...]]:
    """Round a continuous table colouring to the uniform grid of mesh eps.

    The discrete value is the grid index; pointwise the rounded value is
    within eps of the original.
    """
    if c.kind != "continuous" or c.table is None:
        raise ValueError("discretize expects a continuous table colouring")
    grid = grid_of(eps)

    def nearest(v: Fraction) -> int:
        return min(range(len(grid)), key=lambda i: (abs(grid[i] - v), i))

    table = tuple((key, nearest(Fraction(v))) for key, v in c.table)
    return Colouring("discrete", len(grid), None, table, None), grid


def bad_colouring_from_discrete(c: Colouring, net: EmbeddingNet, top_colour: int) -> Colouring:
    """Distance-to-last-colour-class colouring (capped at 1).

    Value 0 exactly on the points of the top colour class; 1-Lipschitz in
    the max-over-levels distance.
    """
    marked = [p for p in net.points if c(p) == top_colour]
    values = []
    for p in net.points:
        if not marked:
            values.append(Fraction(1))
            continue
        d = min(_map_metric(p, q) for q in marked)
        values.append(min(Fraction(1), d))
    return continuous_table(net, values, net.domain.length)


def product_embedding(factors, Z: MultiSpace, X: MultiSpace) -> LinearMap:
    """Stack per-level embeddings into the coordinate product."""
    return LinearMap(X, Z, Matrix.stack((f.matrix for f in factors), X.dim))


def product_colouring(c: Colouring, X: MultiSpace, blocks):
    """Induced colouring on tuples of per-level embeddings.

    ``blocks`` are the single-level codomains; the induced value on a
    tuple is the value of c on the stacked embedding into their product.
    """
    Z = product_space(list(blocks))

    def evaluate(factor_maps) -> Fraction | int:
        stacked = product_embedding(factor_maps, Z, X)
        return c(stacked)

    return Z, evaluate


def quotient_lift(c, X: MultiSpace, Z: MultiSpace):
    """Lift a colouring through the kernel quotient, with the padded space.

    X must carry a single seminorm.  Returns (Xq, pi, padded, embed_pad,
    lifted) where pi is the canonical surjection onto the quotient normed
    space, padded is Z x Z with the first-block seminorm, embed_pad sends
    z to (z, 0) and lifted evaluates on Emb(Xq, Z) by composing with pi.
    """
    if X.length != 1:
        raise MultiLevelInput("only the single-seminorm base case is modelled")
    q = quotient_norm(X.seminorms[0])
    Xq = MultiSpace((q.norm,))
    pi = LinearMap(X, Xq, q.projection)
    total = 2 * Z.dim
    padded = MultiSpace((_from_rows(total, _pad_rows(Z.seminorms[0].rows, 0, total), reduce=False),))
    embed_pad = LinearMap(Z, padded, Matrix.stack((Matrix.identity(Z.dim), Matrix.zero(Z.dim, Z.dim)), Z.dim))

    def lifted(gamma: LinearMap):
        return c(compose(gamma, pi))

    return Xq, pi, padded, embed_pad, lifted


def search_monochromatic(c: Colouring, net_xz: EmbeddingNet, net_xy: EmbeddingNet,
                         candidates, eps):
    """First candidate whose composed copies are eps-covered by one colour.

    Exhaustive over the supplied finite data; returns (gamma, colour) or
    None.  Soundness: the coverage condition is re-checkable from the
    returned witness alone.  The colouring must be discrete.
    """
    if c.kind != "discrete":
        raise BadArgument("monochromatic search needs a discrete colouring")
    eps = Fraction(eps)
    for gamma in candidates:
        ok, _ = is_embedding(gamma, 0)
        if not ok:
            raise BadArgument("candidates must be exact embeddings")
    for gamma in candidates:
        colour = _covering_colour(c, net_xz.points, [compose(gamma, eta) for eta in net_xy.points], eps)
        if colour is not None:
            return gamma, colour
    return None
