"""Polyhedral seminorms: evaluation, kernels, duality, quotients.

A seminorm is stored as the canonical finite family of functionals whose
absolute values it maximises.  The list keeps one functional per +/-
direction, the largest multiple, sorted (``_dominant``, in integers over
one common denominator), with redundant members (those inside the convex
hull of the others and their negatives) removed by exact LP membership
tests on the ``_scale_to_int`` rows that ``_dominant`` returns and both
gauges take.  A list of at most ``dim`` independent rows, where no member
can be redundant, is settled by one ``echelon_int`` rank test instead.
Fractions are built once, for the kept list.  Every seminorm, the sup
norm included, leaves ``from_functionals`` in this canonical order, so a
saved and reloaded seminorm is the same value.  The empty family encodes
the zero seminorm, and ``from_functionals`` builds it from an empty list
like any other, so callers need no special case.
Evaluation is in integers: each call scales ``x`` and the whole list to
integers once, takes one integer dot per functional and builds one
``Fraction`` at the end.  The integer form is not stored on the
seminorm; kept on every instance it cost more memory than it saved time.
The dual ball, the symmetric hull of the functionals, is used through
its facets (``dual_ball_facets``, primitive integer rows), the one
memoised function in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from msn import _kernel
from msn.errors import DimensionMismatch
from msn.linalg import (
    Matrix,
    Vec,
    _primitive_direction,
    _scale_to_int,
    coordinate_complement,
    inverse,
    nullspace,
    vec,
    zero_vec,
)
from msn.lp import gauge_scale
from msn.polytope import polytope_facets


def _dominant(vectors, m: int) -> list[tuple[list[int], int]]:
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
        rows.append(([x * (g // h) for x in d], m // h))
    return rows


def _ball(s) -> list[tuple[list[int], int]]:
    """The seminorm's functionals as ``_scale_to_int`` rows, the ball form the gauges take."""
    return [_scale_to_int(phi) for phi in s.functionals]


def _independent(rows, dim: int) -> bool:
    """Whether the integer rows are linearly independent: one ``echelon_int`` rank test."""
    return len(rows) <= dim and _kernel.echelon_int([ia for ia, _ in rows])[0] == len(rows)


@dataclass(frozen=True)
class PolyhedralSeminorm:
    """max over stored functionals of the absolute pairing with x."""

    dim: int
    functionals: tuple[Vec, ...]

    @staticmethod
    def from_functionals(dim: int, functionals, reduce: bool = True) -> "PolyhedralSeminorm":
        funcs = []
        for f in functionals:
            f = vec(f)
            if len(f) != dim:
                raise DimensionMismatch("functional arity != dim")
            if all(x == 0 for x in f):
                raise ValueError("zero functionals are not stored; use the empty list")
            funcs.append(f)
        # The whole list over one common denominator m, so _dominant's
        # integer sizes and order are those of the Fractions.
        flat, m = _scale_to_int([x for f in funcs for x in f])
        rows = _dominant((flat[i * dim:(i + 1) * dim] for i in range(len(funcs))), m)
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
        return PolyhedralSeminorm(dim, tuple(tuple(Fraction(x, s) for x in ia) for ia, s in rows))

    @staticmethod
    def zero(dim: int) -> "PolyhedralSeminorm":
        return PolyhedralSeminorm(dim, ())

    @staticmethod
    def linf(dim: int) -> "PolyhedralSeminorm":
        return PolyhedralSeminorm.from_functionals(dim, Matrix.identity(dim).entries)

    def __call__(self, x) -> Fraction:
        """``max |f . x|`` in integers: one scaling of ``x`` and of the list per call."""
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch("vector arity != dim")
        if not self.functionals:
            return Fraction(0)
        ix, xm = _scale_to_int(x)
        # The whole list over one common denominator m, so the integer
        # dots compare directly and the maximum needs no Fraction.
        flat, m = _scale_to_int([a for f in self.functionals for a in f])
        n = self.dim
        best = max(abs(sum(map(mul, flat[i:i + n], ix))) for i in range(0, len(flat), n))
        return Fraction(best, m * xm)

    def is_zero(self) -> bool:
        return not self.functionals


def seminorm_kernel(s: PolyhedralSeminorm) -> list[Vec]:
    """Canonical basis of {x : s(x) = 0}."""
    return nullspace(Matrix.from_rows(s.functionals, s.dim))


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
    norm = PolyhedralSeminorm.from_functionals(len(comp), [tuple(f[j] for j in comp) for f in s.functionals])
    return QuotientNorm(projection=Matrix(Minv.entries[len(ker):], d), lift=lift, norm=norm)
