"""Linear maps between multi-seminormed spaces.

Operator seminorms are computed exactly as gauges.  At level m the
codomain functionals are pulled back along the map (``_pullbacks``, in
integers: one scaled matrix, one integer dot per functional and column,
duplicates merged by primitive integer direction).  The operator seminorm
is the largest gauge of a pullback over the domain's unit ball, and the
lower constant is the reciprocal of the largest gauge of a domain
functional over the pullbacks' ball; each is one ``lp.gauge_max`` call,
one integer tableau scaled once and optimised per objective, which also
yields the upper witness.  Neither is memoised: a memo keyed on the whole map
hashes both spaces and the matrix on every lookup and rarely hits.  The
lower witness is the infimum over the unit sphere, taken facet by facet
with one epigraph LP each.  On top of these sit distortion reports,
embedding certificates, distances between maps, and the kernel-splitting
construction of multi-isomorphisms from matching kernel invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from msn.errors import BadLevel, DimensionMismatch, LengthMismatch, ShapeMismatch
from msn.linalg import (
    Matrix,
    Vec,
    _primitive_direction,
    _scale_to_int,
    dot,
    in_span,
    intersect_spans,
    inverse,
    sum_span,
    vec,
    zero_vec,
)
from msn.lp import gauge_max, solve_lp
from msn.seminorms import seminorm_kernel
from msn.spaces import MultiSpace, invariant_alpha, joint_kernel, pullback_space


@dataclass(frozen=True)
class LinearMap:
    """matrix has one row per codomain coordinate, one column per domain one."""

    domain: MultiSpace
    codomain: MultiSpace
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.entries and (self.matrix.rows, self.matrix.cols) != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch("matrix shape != codomain dim x domain dim")

    def __call__(self, x) -> Vec:
        x = vec(x)
        if len(x) != self.domain.dim:
            raise DimensionMismatch("vector outside the domain")
        if not self.matrix.entries:
            return zero_vec(self.codomain.dim)
        return self.matrix.apply(x)

    def is_injective(self) -> bool:
        if self.domain.dim == 0:
            return True
        return self.matrix.rank() == self.domain.dim


def identity_map(X: MultiSpace) -> LinearMap:
    return LinearMap(X, X, Matrix.identity(X.dim))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    if g.domain != f.codomain:
        raise ShapeMismatch("composition domain/codomain mismatch")
    if not f.matrix.entries or not g.matrix.entries:
        return LinearMap(f.domain, g.codomain, Matrix.zero(g.codomain.dim, f.domain.dim))
    return LinearMap(f.domain, g.codomain, g.matrix.mul(f.matrix))


def map_sub(f: LinearMap, g: LinearMap) -> LinearMap:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ShapeMismatch("difference needs identical domain and codomain")
    if not f.matrix.entries:
        return f
    return LinearMap(f.domain, f.codomain, f.matrix.sub(g.matrix))


def _pullbacks(f: LinearMap, m: int) -> tuple[Vec, ...]:
    """Codomain level-m functionals composed with f, deduplicated.

    One representative per +/- direction, the largest multiple of it:
    defines the same pulled-back seminorm with a usually much shorter
    list.  The matrix is scaled to integers once and each functional
    once, so a pullback is one integer dot per column; directions are
    compared as primitive integer vectors, and Fractions are built only
    for the kept entries.
    """
    cols = list(zip(*f.matrix.entries))
    ints, den = _scale_to_int([x for col in cols for x in col])
    r = f.matrix.rows
    columns = [ints[j * r:(j + 1) * r] for j in range(len(cols))]
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for theta in f.codomain.seminorms[m].functionals:
        it, t = _scale_to_int(theta)
        g, d = _primitive_direction([sum(map(mul, it, col)) for col in columns])
        if g == 0:
            continue
        # theta . f == d * |g| / (t * den): keep the largest |g| / t per d.
        g = abs(g)
        cur = best.get(d)
        if cur is None or g * cur[1] > cur[0] * t:
            best[d] = (g, t)
    return tuple(sorted(tuple(Fraction(x * g, t * den) for x in d) for d, (g, t) in best.items()))


def _is_identity_on_level(f: LinearMap, m: int) -> bool:
    return (f.matrix.entries == Matrix.identity(f.domain.dim).entries
            and f.domain.seminorms[m] == f.codomain.seminorms[m])


def operator_seminorm(f: LinearMap, m: int):
    """sup of the level-m codomain seminorm over the level-m unit ball.

    Computed as the largest dual norm of a pulled-back codomain
    functional.  Returns a Fraction, or None when the supremum is infinite
    (the map does not send the level kernel into the level kernel).
    """
    if not 0 <= m < f.domain.length:
        raise BadLevel(f"level {m} outside 0..{f.domain.length - 1}")
    dom_s = f.domain.seminorms[m]
    if _is_identity_on_level(f, m):
        return Fraction(1) if dom_s.functionals else Fraction(0)
    return gauge_max(_pullbacks(f, m), dom_s.functionals)[0]


def upper_witness(f: LinearMap, m: int) -> Vec:
    """A unit-ball vector attaining the operator seminorm at level m.

    When the seminorm is infinite: a level-m kernel vector whose image has
    nonzero level-m seminorm.
    """
    value, point = gauge_max(_pullbacks(f, m), f.domain.seminorms[m].functionals)
    if value is None:
        return _kernel_escape_witness(f, m)
    # With no pullbacks and no domain functionals the point has no coordinates.
    return point or zero_vec(f.domain.dim)


def lower_constant(f: LinearMap, m: int):
    """inf ||f(x)||_m over the level-m unit sphere.

    Equals the reciprocal of the largest dual norm of a domain functional
    measured against the pulled-back codomain family.  None when the
    sphere is empty (zero seminorm level: vacuous); 0 when some domain
    functional escapes the span of the pullbacks.
    """
    if not 0 <= m < f.domain.length:
        raise BadLevel(f"level {m} outside 0..{f.domain.length - 1}")
    dom_s = f.domain.seminorms[m]
    if not dom_s.functionals:
        return None
    if _is_identity_on_level(f, m):
        return Fraction(1)
    worst = gauge_max(dom_s.functionals, _pullbacks(f, m))[0]
    if worst is None:
        return Fraction(0)
    # phi nonzero in the span of the pullbacks has positive sup
    return 1 / worst


def lower_witness(f: LinearMap, m: int) -> Vec:
    """A unit-sphere vector attaining the lower constant at level m.

    Facet LPs: the infimum of a convex function over the sphere is taken
    facet by facet in epigraph form.
    """
    dom_s = f.domain.seminorms[m]
    d = f.domain.dim
    best = None
    witness = zero_vec(d)
    pulled = _pullbacks(f, m)
    for phi in dom_s.functionals:
        cons = []
        row = tuple(phi) + (Fraction(0),)
        cons.append((row, Fraction(1)))
        cons.append((tuple(-v for v in row), Fraction(-1)))
        for psi in dom_s.functionals:
            cons.append((tuple(psi) + (Fraction(0),), Fraction(1)))
            cons.append((tuple(-v for v in psi) + (Fraction(0),), Fraction(1)))
        for comp in pulled:
            cons.append((tuple(comp) + (Fraction(-1),), Fraction(0)))
            cons.append((tuple(-v for v in comp) + (Fraction(-1),), Fraction(0)))
        cons.append((tuple(zero_vec(d)) + (Fraction(-1),), Fraction(0)))
        res = solve_lp(tuple(zero_vec(d)) + (Fraction(1),), cons)
        if best is None or res.value < best:
            best = res.value
            witness = res.point[:d]
    return witness


@dataclass(frozen=True)
class DistortionReport:
    """Per-level two-sided bounds; None stands for unbounded / vacuous."""

    per_level: tuple[tuple[Fraction | None, Fraction | None], ...]
    minimal_delta: Fraction | None  # None = infinite
    injective: bool


def distortion(f: LinearMap) -> DistortionReport:
    if f.domain.length > f.codomain.length:
        raise LengthMismatch("domain carries more seminorms than the codomain")
    levels = []
    delta = Fraction(0)
    infinite = False
    for m in range(f.domain.length):
        up = operator_seminorm(f, m)
        lo = lower_constant(f, m)
        levels.append((up, lo))
        if up is None or (lo is not None and lo == 0):
            infinite = True
            continue
        if up > 1:
            delta = max(delta, up - 1)
        if lo is not None and lo < 1:
            delta = max(delta, 1 / lo - 1)
    return DistortionReport(tuple(levels), None if infinite else delta, f.is_injective())


def is_embedding(f: LinearMap, delta) -> tuple[bool, dict]:
    """Exact multi-delta-isometric embedding check with failure witness."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if f.domain.length > f.codomain.length:
        raise LengthMismatch("domain carries more seminorms than the codomain")
    if not f.is_injective():
        return False, {"kind": "injectivity"}
    hi = 1 + delta
    lo_req = 1 / (1 + delta)
    for m in range(f.domain.length):
        up = operator_seminorm(f, m)
        if up is None or up > hi:
            return False, {"kind": "upper", "level": m, "vector": upper_witness(f, m)}
        lo = lower_constant(f, m)
        if lo is not None and lo < lo_req:
            return False, {"kind": "lower", "level": m, "vector": lower_witness(f, m)}
    return True, {}


def _kernel_escape_witness(f: LinearMap, m: int) -> Vec:
    """A level-m kernel vector whose image has nonzero level-m seminorm."""
    cod = f.codomain.seminorms[m]
    for k in seminorm_kernel(f.domain.seminorms[m]):
        if cod(f(k)) != 0:
            return k
    return zero_vec(f.domain.dim)


def map_distance(f: LinearMap, g: LinearMap, m: int):
    """Exact sup of ||f(x) - g(x)||_m over the level-m unit sphere."""
    return operator_seminorm(map_sub(f, g), m)


def sup_distance(f: LinearMap, g: LinearMap):
    """max of map_distance over all domain levels (None if any is unbounded)."""
    vals = [map_distance(f, g, m) for m in range(f.domain.length)]
    if any(v is None for v in vals):
        return None
    return max(vals) if vals else Fraction(0)


def mb_norm(f: LinearMap):
    """sup over shared levels of the operator seminorms (None = unbounded)."""
    vals = [operator_seminorm(f, m) for m in range(f.domain.length)]
    if any(v is None for v in vals):
        return None
    return max(vals) if vals else Fraction(0)


# --- multi-isomorphisms from kernel invariants -----------------------------


def _adapted_complement(sub: MultiSpace, k0: int, active: tuple[int, ...]) -> list[Vec]:
    """Complement of the level-k0 kernel, greedily adapted to the other kernels."""
    m = sub.dim
    ker = joint_kernel(sub, [k0])
    r = len(ker)
    inv = invariant_alpha(sub)
    others = [k for k in active if k != k0]
    subsets = []
    for size in range(len(others), 0, -1):
        subsets.extend(combinations(others, size))
    chosen: list[Vec] = []
    for s in subsets:
        target = inv.alpha(s) - inv.alpha(tuple(sorted(set(s) | {k0})))
        ks = joint_kernel(sub, s)
        while len(intersect_spans(chosen, ks) if chosen else []) < target:
            blocked = sum_span(chosen, ker)
            cand = next((v for v in ks if not in_span(blocked, v)), None)
            if cand is None:
                break
            chosen.append(cand)
    # pad with coordinate vectors to a full complement
    for i in range(m):
        if len(chosen) == m - r:
            break
        e = tuple(Fraction(1 if j == i else 0) for j in range(m))
        if not in_span(sum_span(chosen, ker), e):
            chosen.append(e)
    return chosen


def _build_iso_rec(X: MultiSpace, Y: MultiSpace, liftX: Matrix, liftY: Matrix,
                   active: tuple[int, ...]) -> Matrix | None:
    subX = pullback_space(X, liftX)
    subY = pullback_space(Y, liftY)
    m = subX.dim
    if subY.dim != m:
        return None
    if m == 0:
        return Matrix(())
    if invariant_alpha(subX).entries != invariant_alpha(subY).entries:
        return None
    k0 = next((k for k in active if joint_kernel(subX, [k])), None)
    if k0 is None:
        return Matrix.identity(m)
    kerX = joint_kernel(subX, [k0])
    kerY = joint_kernel(subY, [k0])
    if len(kerX) == m:
        # whole subspace degenerate at k0: drop the level and recurse
        rest = tuple(k for k in active if k != k0)
        if not rest:
            return Matrix.identity(m)
        return _build_iso_rec(X, Y, liftX, liftY, rest)
    compX = _adapted_complement(subX, k0, active)
    compY = _adapted_complement(subY, k0, active)
    if len(compX) != len(compY):
        return None

    def cols_to_matrix(lift: Matrix, vectors: list[Vec]) -> Matrix:
        # ambient columns for the chosen local vectors
        return Matrix.from_rows([[dot(lift.entries[i], v) for v in vectors]
                                 for i in range(lift.rows)])

    LX0 = cols_to_matrix(liftX, kerX)
    LY0 = cols_to_matrix(liftY, kerY)
    LX1 = cols_to_matrix(liftX, compX)
    LY1 = cols_to_matrix(liftY, compY)
    rest = tuple(k for k in active if k != k0)
    f0 = _build_iso_rec(X, Y, LX0, LY0, rest if rest else ())
    if f0 is None:
        return None
    f1 = _build_iso_rec(X, Y, LX1, LY1, active)
    if f1 is None:
        return None
    # assemble in local coordinates of (kerX | compX) -> (kerY | compY)
    basisX = Matrix.from_rows([list(v) for v in kerX] + [list(v) for v in compX]).transpose()
    basisY = Matrix.from_rows([list(v) for v in kerY] + [list(v) for v in compY]).transpose()
    r, c = len(kerX), len(compX)
    block = [[Fraction(0)] * m for _ in range(m)]
    for i in range(r):
        for j in range(r):
            block[i][j] = f0.entries[i][j] if f0.entries else Fraction(0)
    for i in range(c):
        for j in range(c):
            block[r + i][r + j] = f1.entries[i][j]
    binv = inverse(basisX)
    return basisY.mul(Matrix.from_rows(block)).mul(binv)


def build_iso_from_invariant(X: MultiSpace, Y: MultiSpace) -> LinearMap | None:
    """Invertible, kernel-respecting map X -> Y, or None.

    Succeeds by recursing on a seminorm kernel and an adapted complement;
    returns None when the kernel invariants differ or the splitting cannot
    be aligned.  Any returned map is verified exactly: invertible and
    mapping each level kernel onto the matching level kernel.
    """
    if X.length != Y.length:
        raise LengthMismatch("lengths differ")
    if invariant_alpha(X).entries != invariant_alpha(Y).entries:
        return None
    active = tuple(range(X.length))
    H = _build_iso_rec(X, Y, Matrix.identity(X.dim), Matrix.identity(Y.dim), active)
    if H is None:
        return None
    h = LinearMap(X, Y, H)
    if not _verify_iso(h):
        return None
    return h


def _verify_iso(h: LinearMap) -> bool:
    X, Y = h.domain, h.codomain
    if X.dim != Y.dim or (X.dim and h.matrix.rank() != X.dim):
        return False
    for k in range(X.length):
        kx = seminorm_kernel(X.seminorms[k])
        ky = seminorm_kernel(Y.seminorms[k])
        if len(kx) != len(ky):
            return False
        for v in kx:
            if not in_span(ky, h(v)):
                return False
    return True


def bm_upper_bound(X: MultiSpace, Y: MultiSpace):
    """Product of the two operator norms of a constructed iso (>= 1), or None.

    None means no witness: the invariants differ, or the construction
    failed to align the kernels.
    """
    h = build_iso_from_invariant(X, Y)
    if h is None:
        return None
    hinv = LinearMap(Y, X, inverse(h.matrix)) if X.dim else LinearMap(Y, X, Matrix(()))
    a = mb_norm(h)
    b = mb_norm(hinv)
    if a is None or b is None:
        return None
    return max(a * b, Fraction(1))
