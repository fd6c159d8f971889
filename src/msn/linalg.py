"""Exact rational vectors, matrices and subspace calculus.

Vectors are tuples of ``Fraction``; matrices are immutable row-major grids
that carry their shape, so matrices with no rows or no columns need no
special case anywhere else.  Row-space computations are delegated to the
integer echelon kernel after clearing denominators row by row (row
scaling preserves spans/kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from msn import _kernel
from msn.errors import DimensionMismatch

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def _scale_to_int(row) -> tuple[list[int], int]:
    """``(ints, m)``: the row times ``m``, the least common multiple of its denominators.

    Reads ``numerator``/``denominator`` straight off int and Fraction
    entries alike, with no Fraction arithmetic.
    """
    m = lcm(*[x.denominator for x in row])
    if m == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (m // x.denominator) for x in row], m


def int_rows(rows) -> list[list[int]]:
    """Clear denominators row-wise, giving integer rows with the same span."""
    return [_scale_to_int(row)[0] for row in rows]


def _primitive_direction(ints) -> tuple[int, tuple[int, ...]]:
    """``(g, d)`` with ``ints == g * d``, ``d`` primitive with first nonzero entry positive.

    ``d`` names the +/- direction class of a nonzero integer vector and
    ``abs(g)`` its size along it; the zero vector gives ``g == 0``.
    """
    g = gcd(*ints)
    if g == 0:
        return 0, tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return g, tuple(x // g for x in ints)


def canon_vector(v: Vec) -> Vec:
    """Scale to a primitive integer vector whose first nonzero entry is positive."""
    _, d = _primitive_direction(_scale_to_int(v)[0])
    return tuple(Fraction(x) for x in d)


@dataclass(frozen=True)
class Matrix:
    """Immutable exact ``rows x cols`` matrix; ``entries[i][j]`` is row i, column j.

    The width is stored, not read off the rows, so every shape is a
    matrix: a 0 x n matrix is the map from n coordinates to none, an
    n x 0 one the map out of the zero space, and a k x 0 matrix times a
    0 x n one is the k x n zero matrix.
    """

    entries: tuple[Vec, ...]
    cols: int

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Matrix":
        """The matrix with these rows; ``cols`` defaults to the first row's length."""
        tup = tuple(vec(r) for r in rows)
        if cols is None:
            if not tup:
                raise DimensionMismatch("no rows to read the width from")
            cols = len(tup[0])
        if any(len(r) != cols for r in tup):
            raise DimensionMismatch(f"rows are not all of width {cols}")
        return Matrix(tup, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple(zero_vec(cols) for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def apply(self, x: Vec) -> Vec:
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector of length {len(x)} into {self.rows}x{self.cols}")
        return tuple(dot(r, x) for r in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ot = other.transpose()
        return Matrix(tuple(tuple(dot(r, c) for c in ot.entries) for r in self.entries), other.cols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)), self.rows)

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in sub")
        return Matrix(tuple(vec_sub(r, s) for r, s in zip(self.entries, other.entries)), self.cols)

    def scale(self, c) -> "Matrix":
        return Matrix(tuple(vec_scale(c, r) for r in self.entries), self.cols)

    def rank(self) -> int:
        r, _, _ = _kernel.echelon_int(int_rows(self.entries))
        return r


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


def sum_span(urows: list[Vec], vrows: list[Vec]) -> list[Vec]:
    return row_space_basis(list(urows) + list(vrows))


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
    return Matrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)), n)


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
