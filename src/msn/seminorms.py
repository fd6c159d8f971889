"""Polyhedral seminorms: evaluation, kernels, duality, quotients.

A seminorm stores the canonical finite family of functionals whose
absolute values it maximises as integer rows ``(ints, s)``, each the
functional ``ints / s`` in lowest terms (``linalg._scale_to_int``), the
form both gauges take.  The list keeps one functional per +/- direction,
the largest multiple, sorted (``_dominant``, in integers over one common
denominator), with redundant members (those inside the convex hull of
the others and their negatives) removed by exact LP membership tests on
those rows.  Each test asks only whether the member's gauge over the
others' ball is at most 1, so its LP stops at the first ball point where
the member exceeds 1 (``gauge_scale``); a gauge of exactly 1 is
inside.  A list of at most ``dim`` independent rows, where no member
can be redundant, is settled by one ``echelon_int`` rank test instead.
``_from_rows`` is the one constructor: every construction (quotients,
pullbacks, products, closures, bands and pushout levels) builds from
the stored rows of its inputs through it, and ``from_functionals``, for
files and other Fraction input, scales its list once and calls it.  No
Fraction is built; ``functionals`` is the Fraction view, built on each
read.  Every seminorm, the sup norm included, leaves ``_from_rows`` in
this canonical order, so a saved and reloaded seminorm is the same
value.  The empty family encodes the zero seminorm, built from an empty
list like any other, so callers need no special case.  Evaluation and
the kernel are in integers: each call scales ``x`` once, takes one
integer dot per row over the lcm of the row scales and builds one
``Fraction`` at the end.  ``_pullbacks`` composes the rows with a matrix,
for ``spaces.pullback_space`` and the operator seminorms of ``maps``.
The dual ball, the symmetric hull of the functionals, is used through
its facets (``dual_ball_facets``, primitive integer rows), the one
memoised function in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from msn import _kernel
from msn.errors import DimensionMismatch
from msn.linalg import (
    Matrix,
    Vec,
    _int_nullspace,
    _primitive_direction,
    _scale_to_int,
    coordinate_complement,
    inverse,
    vec,
    zero_vec,
)
from msn.lp import gauge_scale
from msn.polytope import polytope_facets


def _dominant(vectors, m: int) -> list[tuple[tuple[int, ...], int]]:
    """One ``_scale_to_int`` row per +/- direction of the vectors ``v / m``, the largest.

    Per ``_primitive_direction`` key ``d`` of the integer ``vectors`` the
    largest size ``g`` is kept (zero vectors have no direction), and
    returned as ``(ints, s)``: ``d`` is primitive, so ``d * g / m`` has
    lowest common denominator ``s = m / gcd(g, m)``.  Sorted by ``g * d``,
    the order of the vectors themselves, signed to a positive first entry.
    """
    best: dict[tuple[int, ...], int] = {}
    for v in vectors:
        g, d = _primitive_direction(v)
        g = abs(g)
        if g > best.get(d, 0):
            best[d] = g
    rows = []
    for d, g in sorted(best.items(), key=lambda dg: [dg[1] * x for x in dg[0]]):
        h = gcd(g, m)
        rows.append((tuple(x * (g // h) for x in d), m // h))
    return rows


def _independent(rows, dim: int) -> bool:
    """Whether the integer rows are linearly independent: one ``echelon_int`` rank test."""
    return len(rows) <= dim and _kernel.echelon_int([ia for ia, _ in rows])[0] == len(rows)


@dataclass(frozen=True)
class PolyhedralSeminorm:
    """max over stored functionals, the rows ``ints / s``, of the absolute pairing with x."""

    dim: int
    rows: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def functionals(self) -> tuple[Vec, ...]:
        """The Fraction view of ``rows``, built on each read."""
        return tuple(tuple(Fraction(x, s) for x in ia) for ia, s in self.rows)

    @staticmethod
    def from_functionals(dim: int, functionals, reduce: bool = True) -> "PolyhedralSeminorm":
        funcs = [tuple(f) for f in functionals]
        if any(len(f) != dim for f in funcs):
            raise DimensionMismatch("functional arity != dim")
        if not all(map(any, funcs)):
            raise ValueError("zero functionals are not stored; use the empty list")
        # The whole list over one common denominator m, in one pass.
        flat, m = _scale_to_int([x for f in funcs for x in f])
        return _from_rows(dim, [(flat[i * dim:(i + 1) * dim], m) for i in range(len(funcs))], reduce)

    @staticmethod
    def zero(dim: int) -> "PolyhedralSeminorm":
        return PolyhedralSeminorm(dim, ())

    @staticmethod
    def linf(dim: int) -> "PolyhedralSeminorm":
        return _from_rows(dim, [(r, 1) for r in Matrix.identity(dim).ints])

    def __call__(self, x) -> Fraction:
        """``max |f . x|`` in integers: one scaling of ``x`` per call."""
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch("vector arity != dim")
        if not self.rows:
            return Fraction(0)
        ix, xm = _scale_to_int(x)
        # Every row over the lcm m of the scales, so the integer dots
        # compare directly and the maximum needs no Fraction.
        m = lcm(*(s for _, s in self.rows))
        best = max(abs(sum(map(mul, ia, ix))) * (m // s) for ia, s in self.rows)
        return Fraction(best, m * xm)

    def is_zero(self) -> bool:
        return not self.rows


def _from_rows(dim: int, rows, reduce: bool = True) -> PolyhedralSeminorm:
    """The canonical seminorm of the functionals ``ints / s`` of the rows ``(ints, s)``.

    The rows go over the lcm of their scales, so ``_dominant``'s integer
    sizes and order are those of the Fractions; it keeps one row per +/-
    direction, and zero rows drop out.  With ``reduce``, the members
    inside the convex hull of the others and their negatives are removed.
    """
    rows = list(rows)
    m = lcm(*(s for _, s in rows))
    rows = _dominant((ia if s == m else [x * (m // s) for x in ia] for ia, s in rows), m)
    # Independent rows (at most dim, of full rank) are all kept: none
    # lies in the span of the others, let alone in their hull.
    if reduce and len(rows) > 1 and not _independent(rows, dim):
        i = 0
        while i < len(rows):
            # Redundant iff in conv(the others and their negatives).
            scale = gauge_scale(rows[i], rows[:i] + rows[i + 1:])
            if scale is not None and scale <= 1:
                rows.pop(i)
            else:
                i += 1
    return PolyhedralSeminorm(dim, tuple(rows))


def _pullbacks(s: PolyhedralSeminorm, mat: Matrix) -> list[tuple[tuple[int, ...], int]]:
    """The functionals of ``s`` composed with ``mat``, one ``_dominant`` row per +/- direction.

    ``theta . mat`` reads only the coordinates ``mat`` reaches, the
    nonzero rows of its stored integers: one integer dot per column, over
    the lcm of the row scales times the matrix's denominator.
    """
    ints = mat.ints
    support = [i for i, r in enumerate(ints) if any(r)]
    if not support:
        return []
    columns = list(zip(*(ints[i] for i in support)))
    t = lcm(*(u for _, u in s.rows))
    # theta . mat, theta = a / u, is the integer vector (a . mat) * (t // u)
    # over t * den, read on the reached entries of a; _dominant drops zero pullbacks.
    pulled = {tuple(sum(map(mul, a, col)) * (t // u) for col in columns)
              for a, u in (([ia[i] for i in support], u) for ia, u in s.rows)}
    return _dominant(pulled, t * mat.den)


def seminorm_kernel(s: PolyhedralSeminorm) -> list[Vec]:
    """Canonical basis of {x : s(x) = 0}: the kernel of the stored integer rows."""
    return [tuple(map(Fraction, v)) for v in _int_nullspace([ia for ia, _ in s.rows], s.dim)]


@lru_cache(maxsize=1024)
def dual_ball_facets(s: PolyhedralSeminorm) -> tuple:
    """Canonical H-representation of the dual ball conv(+/- functionals).

    Primitive integer rows; the zero seminorm's dual ball is the origin.  Memoised because equal
    seminorms recur across pushouts; bounded so memory stays flat.
    """
    pts = sorted({v for f in s.functionals for v in (f, tuple(-x for x in f))})
    return tuple(polytope_facets(pts or [zero_vec(s.dim)], s.dim))


@dataclass(frozen=True)
class QuotientNorm:
    """Seminorm presented as a norm on a complement of its kernel.

    ``projection`` maps ambient coordinates onto the chosen complement
    coordinates, ``lift`` is the section sending complement coordinates to
    ambient vectors; ``norm`` has trivial kernel and
    ``norm(projection(x)) == s(x)`` for all x.
    """

    projection: Matrix
    lift: Matrix
    norm: PolyhedralSeminorm


def quotient_norm(s: PolyhedralSeminorm) -> QuotientNorm:
    """Quotient by the kernel along the lex-first coordinate complement."""
    ker = seminorm_kernel(s)
    d = s.dim
    comp = coordinate_complement(ker, d)
    eye = Matrix.identity(d).entries
    units = [eye[j] for j in comp]
    Minv = inverse(Matrix.from_rows(ker + units, d).transpose())
    lift = Matrix.from_rows(units, d).transpose()
    norm = _from_rows(len(comp), [(tuple(ia[j] for j in comp), u) for ia, u in s.rows])
    return QuotientNorm(projection=Matrix.from_rows(Minv.entries[len(ker):], d), lift=lift, norm=norm)
