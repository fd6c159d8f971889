"""Exact rational vectors, matrices and subspace calculus.

Vectors are tuples of ``Fraction``.  A matrix stores its integer rows over
one common denominator, in lowest terms, and its shape, so matrices with
no rows or no columns need no special case anywhere else; ``entries`` is
its Fraction view.  Every matrix operation works on the stored integers:
``mul`` adds x times row t of B into row i for each nonzero x = A[i][t],
``apply`` builds one Fraction per result entry, and ``rank``,
``nullspace`` and ``inverse`` pass the rows to the integer echelon kernel.
Each subspace question on Fraction rows clears denominators row by row
(row scaling preserves spans and kernels), makes one call to the kernel,
and builds Fractions only from the primitive integers it returns; a span
intersection is read off one reduction of ``[U | U; V | 0]``.  Zero rows
need no filter: the kernel never pivots on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from msn import _kernel
from msn.errors import DimensionMismatch

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def _scale_to_int(row) -> tuple[list[int], int]:
    """``(ints, m)``: the row times ``m``, the least common multiple of its denominators.

    Reads ``numerator``/``denominator`` straight off int and Fraction
    entries alike, with no Fraction arithmetic.  A row of plain ints is
    copied as it is, with ``m == 1``.
    """
    for x in row:
        if type(x) is not int:
            break
    else:
        return list(row), 1
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


def _lowest(rows, den: int, cols: int) -> "Matrix":
    """The matrix ``rows / den`` (``den`` positive), with the common factor cancelled."""
    g = gcd(den, *(x for r in rows for x in r))
    return Matrix(tuple(tuple(x // g for x in r) for r in rows), den // g, cols)


@dataclass(frozen=True)
class Matrix:
    """Immutable exact ``rows x cols`` matrix ``ints / den``, ``den > 0`` and ``gcd(den, *ints) == 1``.

    Equal matrices are equal values and hash alike.  The width is stored,
    not read off the rows, so every shape is a matrix: a 0 x n matrix is
    the map from n coordinates to none, an n x 0 one the map out of the
    zero space, and a k x 0 matrix times a 0 x n one is the k x n zero
    matrix.
    """

    ints: tuple[tuple[int, ...], ...]
    den: int
    cols: int

    @property
    def entries(self) -> tuple[Vec, ...]:
        """The Fraction view, ``entries[i][j]`` row i, column j, built on each read."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.ints)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Matrix":
        """The matrix with these rows of ints and Fractions; ``cols`` defaults to the first row's length."""
        tup = [tuple(r) for r in rows]
        if cols is None:
            if not tup:
                raise DimensionMismatch("no rows to read the width from")
            cols = len(tup[0])
        if any(len(r) != cols for r in tup):
            raise DimensionMismatch(f"rows are not all of width {cols}")
        flat, den = _scale_to_int([x for r in tup for x in r])
        return Matrix(tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(len(tup))), den, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    def stack(blocks, cols: int) -> "Matrix":
        """The rows of ``blocks`` in order, width ``cols``: over the lcm of their ``den`` none has a common factor."""
        blocks = list(blocks)
        if any(b.cols != cols for b in blocks):
            raise DimensionMismatch(f"blocks are not all of width {cols}")
        den = lcm(*(b.den for b in blocks))
        return Matrix(tuple(tuple(x * (den // b.den) for x in r) for b in blocks for r in b.ints), den, cols)

    @property
    def rows(self) -> int:
        return len(self.ints)

    def apply(self, x: Vec) -> Vec:
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector of length {len(x)} into {self.rows}x{self.cols}")
        ix, dx = _scale_to_int(x)
        den = self.den * dx
        return tuple(Fraction(sum(map(mul, r, ix)), den) for r in self.ints)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for arow in self.ints:
            acc = [0] * other.cols
            for x, brow in zip(arow, other.ints):
                if x:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            out.append(acc)
        return _lowest(out, self.den * other.den, other.cols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(r[j] for r in self.ints) for j in range(self.cols)), self.den, self.rows)

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in sub")
        a, b = self.den, other.den
        diff = [[x * b - y * a for x, y in zip(r, s)] for r, s in zip(self.ints, other.ints)]
        return _lowest(diff, a * b, self.cols)

    def scale(self, c) -> "Matrix":
        return _lowest([[x * c.numerator for x in r] for r in self.ints], self.den * c.denominator, self.cols)

    def rank(self) -> int:
        """rank(M) = rank(Mᵀ), so eliminate whichever of the two has fewer rows."""
        rows = self.ints
        if self.rows > self.cols:
            rows = list(zip(*rows))
        return _kernel.echelon_int(rows)[0]


def row_space_basis(rows: list[Vec]) -> list[Vec]:
    """Canonical basis (reduced, primitive, positive pivots) of a row span."""
    # echelon_int rows are primitive with a positive pivot first: canonical already.
    return [tuple(map(Fraction, r)) for r in _kernel.echelon_int(int_rows(rows))[2]]


def _int_nullspace(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Canonical kernel basis of integer rows of width ``n``, as primitive integers.

    Free column f gives v[f] = L and v[p] = -red[i][f] * (L / red[i][p])
    for each pivot p, with L the lcm of the pivot entries; each vector is
    then made primitive with its first nonzero entry positive.  Tall
    input is first cut to its leading independent rows
    (``_kernel.leading_basis``), which span the same rows.
    """
    if len(rows) > n:
        rows = [rows[i] for i in _kernel.leading_basis(rows, n)[0]]
    _, pivcols, red = _kernel.echelon_int(rows)
    pivset = set(pivcols)
    m = lcm(*(r[p] for r, p in zip(red, pivcols)))
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = m
        for r, p in zip(red, pivcols):
            v[p] = -r[f] * (m // r[p])
        basis.append(_primitive_direction(v)[1])
    return basis


def nullspace(mat: Matrix) -> list[Vec]:
    """Canonical kernel basis of the matrix as a linear map."""
    return [tuple(map(Fraction, v)) for v in _int_nullspace(mat.ints, mat.cols)]


def in_span(rows: list[Vec], v: Vec) -> bool:
    """Whether ``v`` lies in the span of ``rows``.

    The rows ``[r | 0]`` and ``[v | 1]`` reduce to a pivot in the last
    column iff ``[0 | 1]`` is in their span, that is, iff ``v`` is too.
    """
    aug = [(*r, 0) for r in rows] + [(*v, 1)]
    return len(v) in _kernel.echelon_int(int_rows(aug))[1]


def sum_span(urows: list[Vec], vrows: list[Vec]) -> list[Vec]:
    return row_space_basis(list(urows) + list(vrows))


def intersect_spans(urows: list[Vec], vrows: list[Vec]) -> list[Vec]:
    """Canonical basis of span(U) ∩ span(V), off one reduction (Zassenhaus).

    The reduced rows of ``[u | u]`` and ``[v | 0]`` pivoting in the right half
    are ``[0 | w]``, with the ``w`` the basis ``row_space_basis`` would give.
    """
    rows = [(*u, *u) for u in urows] + [(*v, *zero_vec(len(v))) for v in vrows]
    _, pivcols, red = _kernel.echelon_int(int_rows(rows))
    return [tuple(map(Fraction, r[len(r) // 2:])) for r, p in zip(red, pivcols) if 2 * p >= len(r)]


def inverse(mat: Matrix) -> Matrix | None:
    """The inverse matrix, or None if singular.

    [ints | den I] = den [M | I] reduces to primitive rows c_i * [e_i | row
    i of M^-1], so over the lcm of the c_i those rows share no factor with it.
    """
    n = mat.rows
    if mat.cols != n:
        raise DimensionMismatch("inverse of non-square matrix")
    aug = [(*r, *(mat.den if i == j else 0 for j in range(n))) for i, r in enumerate(mat.ints)]
    _, pivcols, red = _kernel.echelon_int(aug)
    if pivcols != list(range(n)):
        return None
    m = lcm(*(r[i] for i, r in enumerate(red)))
    return Matrix(tuple(tuple(x * (m // r[i]) for x in r[n:]) for i, r in enumerate(red)), m, n)


def coordinate_complement(span_rows: list[Vec], dim: int) -> list[int]:
    """Lexicographically first coordinate indices complementing a span.

    Coordinate i is skipped iff some span vector has its last nonzero
    entry at i, that is, iff column i pivots once the columns are reversed.
    """
    _, pivcols, _ = _kernel.echelon_int([r[::-1] for r in int_rows(span_rows)])
    last = {dim - 1 - p for p in pivcols}
    return [i for i in range(dim) if i not in last]
