"""Linear maps between multi-seminormed spaces.

A map's matrix always has the shape codomain dim x domain dim, also
when either is zero, so maps out of or into the zero-dimensional space
apply, compose and subtract like any other.

Operator seminorms are computed exactly as gauges, in integers.  At level
m the codomain's stored rows are pulled back along the map
(``seminorms._pullbacks``), one integer row per +/- direction, the form
``lp.gauge_max`` takes.  The operator seminorm is the largest gauge of a
pullback over the domain's unit ball, and the lower constant is the
reciprocal of the largest gauge of a domain functional over the
pullbacks' ball; each is one ``gauge_max`` call, which also yields a
witness: the upper one is the point it returns, the lower one that
point over the largest gauge, on the unit sphere.  An infinite gauge
gives instead a kernel vector of one list that the other does not kill
(``_escape``), scaled to the sphere for the lower witness.
Every level question reads its rows from ``_level_rows``, which checks
the level, reads the stored domain rows and pulls back once;
``distortion`` asks for the two constants of each level.  ``is_embedding``
needs only to know whether both gauges stay within ``1 + delta``, and
reads each level through ``_level_check``, which skips identity levels.
There a row parallel to a row of the other list certifies itself in
integers: a pullback ``t`` times a domain functional has gauge at most
``|t|`` over the domain ball, a domain functional ``s`` times a pullback
at most ``|s|`` over the pullbacks' ball.  Only the other rows go to
``gauge_max``; a map ``T (1 + delta)`` into the T-image of its domain
solves no LP at ``delta``.  Nothing is memoised: a memo keyed on the
whole map hashes both spaces and the matrix on every lookup and rarely
hits.  On top of these sit distortion reports, embedding certificates,
distances between maps, and the kernel-splitting construction of
multi-isomorphisms from matching kernel invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from msn.errors import BadArgument, BadLevel, LengthMismatch, ShapeMismatch
from msn.linalg import (
    Matrix,
    Vec,
    _int_nullspace,
    _primitive_direction,
    in_span,
    intersect_spans,
    inverse,
    sum_span,
    vec,
    zero_vec,
)
from msn.lp import gauge_max
from msn.seminorms import _pullbacks, seminorm_kernel
from msn.spaces import MultiSpace, invariant_alpha, joint_kernel, pullback_space


@dataclass(frozen=True)
class LinearMap:
    """matrix has one row per codomain coordinate, one column per domain one."""

    domain: MultiSpace
    codomain: MultiSpace
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch("matrix shape != codomain dim x domain dim")

    def __call__(self, x) -> Vec:
        return self.matrix.apply(vec(x))

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.domain.dim


def identity_map(X: MultiSpace) -> LinearMap:
    return LinearMap(X, X, Matrix.identity(X.dim))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    if g.domain != f.codomain:
        raise ShapeMismatch("composition domain/codomain mismatch")
    return LinearMap(f.domain, g.codomain, g.matrix.mul(f.matrix))


def map_sub(f: LinearMap, g: LinearMap) -> LinearMap:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ShapeMismatch("difference needs identical domain and codomain")
    return LinearMap(f.domain, f.codomain, f.matrix.sub(g.matrix))


def _is_identity_on_level(f: LinearMap, m: int) -> bool:
    return f.matrix == Matrix.identity(f.domain.dim) and f.domain.seminorms[m] == f.codomain.seminorms[m]


def _level_rows(f: LinearMap, m: int):
    """``(dom, ball, pulled)`` of level m: its domain seminorm, its stored
    rows, and the codomain functionals pulled back (``_pullbacks``)."""
    if not 0 <= m < f.domain.length:
        raise BadLevel(f"level {m} outside 0..{f.domain.length - 1}")
    dom = f.domain.seminorms[m]
    return dom, dom.rows, _pullbacks(f.codomain.seminorms[m], f.matrix)


def _escape(rows, other, d: int) -> Vec:
    """The first canonical kernel vector of ``rows`` that some ``other`` row does not kill."""
    return next(tuple(map(Fraction, k)) for k in _int_nullspace([ia for ia, _ in rows], d)
                if any(sum(map(mul, ia, k)) for ia, _ in other))


def _upper_vector(d: int, ball, pulled, point: Vec | None) -> Vec:
    """The upper witness from the point ``gauge_max(pulled, ball)`` returned."""
    if point is None:
        # a pullback escapes the span of the domain functionals
        return _escape(ball, pulled, d)
    # With no pullbacks and no domain functionals the point has no coordinates.
    return point or zero_vec(d)


def _lower_vector(dom, ball, pulled, worst, point) -> Vec:
    """The lower witness from ``(worst, point) = gauge_max(ball, pulled)``.

    ``point`` is in the pullbacks' unit ball, on its boundary, and no
    domain functional exceeds ``worst`` there while one reaches it; so
    ``point / worst`` lies on the unit sphere of ``dom`` and its image
    has seminorm ``1 / worst``, the lower constant.  When ``worst`` is
    None a domain functional escapes the span of the pullbacks, and the
    witness is a kernel vector of the pullbacks scaled to the sphere.  A
    level with no domain functionals gives the zero vector.
    """
    if not ball:
        return zero_vec(dom.dim)
    if worst is None:
        k = _escape(pulled, ball, dom.dim)
        size = dom(k)
        return tuple(x / size for x in k)
    return tuple(x / worst for x in point)


def _uncertified(rows, ball, hi: Fraction):
    """The rows, in order, whose gauge over ``ball`` no parallel ball row bounds by ``hi``.

    A row that is ``t`` times a ball functional has gauge at most ``|t|``
    over the ball, since ``|phi . x| <= 1`` there; with ``|t| <= hi`` it
    needs no LP.  Rows and ball are ``_scale_to_int`` rows, keyed by
    ``_primitive_direction``, so ``t`` is compared in integers against
    the largest ball row of its direction.
    """
    largest: dict[tuple[int, ...], tuple[int, int]] = {}
    for ia, s in ball:
        g, d = _primitive_direction(ia)
        g = abs(g)
        b = largest.get(d)
        if b is None or g * b[1] > b[0] * s:
            largest[d] = (g, s)
    rest = []
    for ia, s in rows:
        g, d = _primitive_direction(ia)
        b = largest.get(d)
        # |t| = (|g| / s) / (gb / sb) <= hi, in integers
        if b is None or abs(g) * b[1] * hi.denominator > hi.numerator * s * b[0]:
            rest.append((ia, s))
    return rest


def _level_check(f: LinearMap, m: int, hi: Fraction):
    """The failure record of level m in ``is_embedding`` at ``1 + delta == hi``, or None.

    The upper side fails when some pullback has gauge above ``hi`` over
    the domain ball (or an infinite one), the lower side when some domain
    functional has gauge above ``hi`` over the pullbacks' ball.  Rows
    parallel to a row of the other list certify themselves
    (``_uncertified``); ``gauge_max`` solves only the rest, in their
    order, and is not called when none is left.  It solves each objective
    from its own copy of the slack tableau and no certified row exceeds
    ``hi``, so a failing side yields the point the full list would, and
    either witness is read off that point.
    """
    if _is_identity_on_level(f, m):
        return None
    dom, ball, pulled = _level_rows(f, m)
    rest = _uncertified(pulled, ball, hi)
    if rest:
        up, point = gauge_max(rest, ball)
        if up is None or up > hi:
            return {"kind": "upper", "level": m, "vector": _upper_vector(dom.dim, ball, pulled, point)}
    rest = _uncertified(ball, pulled, hi)
    if rest:
        worst, point = gauge_max(rest, pulled)
        if worst is None or worst > hi:
            return {"kind": "lower", "level": m, "vector": _lower_vector(dom, ball, pulled, worst, point)}
    return None


def operator_seminorm(f: LinearMap, m: int):
    """sup of the level-m codomain seminorm over the level-m unit ball.

    Computed as the largest dual norm of a pulled-back codomain
    functional.  Returns a Fraction, or None when the supremum is infinite
    (the map does not send the level kernel into the level kernel).
    """
    _, ball, pulled = _level_rows(f, m)
    return gauge_max(pulled, ball)[0]


def upper_witness(f: LinearMap, m: int) -> Vec:
    """A unit-ball vector attaining the operator seminorm at level m.

    When the seminorm is infinite: a level-m kernel vector whose image has
    nonzero level-m seminorm.
    """
    dom, ball, pulled = _level_rows(f, m)
    return _upper_vector(dom.dim, ball, pulled, gauge_max(pulled, ball)[1])


def lower_constant(f: LinearMap, m: int):
    """inf ||f(x)||_m over the level-m unit sphere.

    Equals the reciprocal of the largest dual norm of a domain functional
    measured against the pulled-back codomain family.  None when the
    sphere is empty (zero seminorm level: vacuous); 0 when some domain
    functional escapes the span of the pullbacks.
    """
    _, ball, pulled = _level_rows(f, m)
    if not ball:
        return None
    worst = gauge_max(ball, pulled)[0]
    # phi nonzero in the span of the pullbacks has positive sup
    return Fraction(0) if worst is None else 1 / worst


def lower_witness(f: LinearMap, m: int) -> Vec:
    """A unit-sphere vector attaining the lower constant at level m.

    Read off the gauge LP of the lower constant (``_lower_vector``); the
    zero vector when the sphere is empty.
    """
    dom, ball, pulled = _level_rows(f, m)
    return _lower_vector(dom, ball, pulled, *gauge_max(ball, pulled))


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
        up, lo = operator_seminorm(f, m), lower_constant(f, m)
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
        raise BadArgument("delta must be nonnegative")
    if f.domain.length > f.codomain.length:
        raise LengthMismatch("domain carries more seminorms than the codomain")
    if not f.is_injective():
        return False, {"kind": "injectivity"}
    for m in range(f.domain.length):
        failure = _level_check(f, m, 1 + delta)
        if failure:
            return False, failure
    return True, {}


def map_distance(f: LinearMap, g: LinearMap, m: int):
    """Exact sup of ||f(x) - g(x)||_m over the level-m unit sphere."""
    return operator_seminorm(map_sub(f, g), m)


def mb_norm(f: LinearMap):
    """sup over shared levels of the operator seminorms (None = unbounded)."""
    vals = [operator_seminorm(f, m) for m in range(f.domain.length)]
    if any(v is None for v in vals):
        return None
    return max(vals) if vals else Fraction(0)


def sup_distance(f: LinearMap, g: LinearMap):
    """max of map_distance over all domain levels (None if any is unbounded)."""
    return mb_norm(map_sub(f, g))


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
        while len(intersect_spans(chosen, ks)) < target:
            blocked = sum_span(chosen, ker)
            cand = next((v for v in ks if not in_span(blocked, v)), None)
            if cand is None:
                break
            chosen.append(cand)
    # pad with coordinate vectors to a full complement
    for e in Matrix.identity(m).entries:
        if len(chosen) == m - r:
            break
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
        return lift.mul(Matrix.from_rows(vectors, m).transpose())

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
    basisX = Matrix.from_rows(kerX + compX, m).transpose()
    basisY = Matrix.from_rows(kerY + compY, m).transpose()
    r, c = len(kerX), len(compX)
    block = [row + zero_vec(c) for row in f0.entries] + [zero_vec(r) + row for row in f1.entries]
    return basisY.mul(Matrix.from_rows(block, m)).mul(inverse(basisX))


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
    if X.dim != Y.dim or h.matrix.rank() != X.dim:
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
    hinv = LinearMap(Y, X, inverse(h.matrix))
    a = mb_norm(h)
    b = mb_norm(hinv)
    if a is None or b is None:
        return None
    return max(a * b, Fraction(1))
