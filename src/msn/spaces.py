"""Multi-seminormed spaces and their structural invariants.

A space is a finite-dimensional rational coordinate space carrying a
nonempty finite sequence of polyhedral seminorms, optionally flagged as
graded (pointwise non-decreasing in the level index).  The graded flag is
validated on construction via exact dual-ball containment, one gauge LP
per pair of consecutive levels (``_level_dominates``).  The norm
extension, graded closure, products and pullbacks build from the stored
rows of their inputs through ``seminorms._from_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from msn import _kernel
from msn.errors import ArityMismatch, BadLength, DimensionMismatch
from msn.linalg import Matrix, Vec, _int_nullspace
from msn.lp import gauge_max
from msn.seminorms import PolyhedralSeminorm, _from_rows, _pullbacks


def _level_dominates(lo: PolyhedralSeminorm, hi: PolyhedralSeminorm) -> bool:
    """Exact check that hi >= lo pointwise: every lo functional has gauge at most 1 over hi's ball."""
    worst = gauge_max(lo.rows, hi.rows)[0]
    return worst is not None and worst <= 1


@dataclass(frozen=True)
class MultiSpace:
    """dim-dimensional space with seminorm levels 0..length-1."""

    seminorms: tuple[PolyhedralSeminorm, ...]
    graded: bool = False

    def __post_init__(self):
        if not self.seminorms:
            raise BadLength("a space carries at least one seminorm")
        d = self.seminorms[0].dim
        if any(s.dim != d for s in self.seminorms):
            raise DimensionMismatch("seminorm ambient dimensions differ")

    @staticmethod
    def make(seminorms, graded: bool = False) -> "MultiSpace":
        sp = MultiSpace(tuple(seminorms), graded)
        if graded and not is_graded_sequence(sp.seminorms):
            raise ValueError("space flagged graded but levels are not non-decreasing")
        return sp

    @property
    def dim(self) -> int:
        return self.seminorms[0].dim

    @property
    def length(self) -> int:
        return len(self.seminorms)

    def eval(self, n: int, x) -> Fraction:
        return self.seminorms[n](x)


def is_graded_sequence(seminorms) -> bool:
    return all(_level_dominates(seminorms[n], seminorms[n + 1]) for n in range(len(seminorms) - 1))


def line_space(*scales) -> MultiSpace:
    """1-dimensional space whose level-n seminorm is scales[n] * |t|."""
    sems = []
    for c in scales or (1,):
        c = Fraction(c)
        sems.append(PolyhedralSeminorm.from_functionals(1, [(c,)] if c else []))
    return MultiSpace.make(tuple(sems))


def trivial_space(length: int = 1) -> MultiSpace:
    """The zero-dimensional space with the requested number of levels."""
    return MultiSpace(tuple(PolyhedralSeminorm.zero(0) for _ in range(length)), graded=True)


@dataclass(frozen=True)
class KernelInvariant:
    """dim of the joint kernel of every subset of levels (alpha function)."""

    length: int
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def alpha(self, subset) -> int:
        key = tuple(sorted(subset))
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)

    def as_dict(self) -> dict:
        return {",".join(str(i) for i in k): v for k, v in self.entries}


def _subsets(n: int):
    return chain.from_iterable(combinations(range(n), r) for r in range(n + 1))


def invariant_alpha(X: MultiSpace) -> KernelInvariant:
    """The joint kernel dimension of each of the 2^length level subsets."""
    if X.length > 16:
        # 2^length subsets: refuse absurd inputs instead of hanging
        raise BadLength(f"kernel invariant capped at 16 levels, got {X.length}")
    entries = []
    for s in _subsets(X.length):
        rows = [ia for k in s for ia, _ in X.seminorms[k].rows]
        entries.append((tuple(s), X.dim - _kernel.echelon_int(rows)[0]))
    return KernelInvariant(X.length, tuple(entries))


def joint_kernel(X: MultiSpace, levels=None) -> list[Vec]:
    rows = [ia for k in (range(X.length) if levels is None else levels) for ia, _ in X.seminorms[k].rows]
    return [tuple(map(Fraction, v)) for v in _int_nullspace(rows, X.dim)]


def is_separated(X: MultiSpace) -> bool:
    """Whether the functionals of all levels span the dual: only the joint kernel is 0.

    The integer rows are reduced one at a time, and the test stops as soon
    as ``dim`` of them are independent.
    """
    rows = (ia for s in X.seminorms for ia, _ in s.rows)
    return len(_kernel.leading_basis(rows, X.dim)[0]) == X.dim


def extend_with_norm(X: MultiSpace) -> MultiSpace:
    """Append a norm level: coordinate sup norm, or its running max if graded."""
    new = PolyhedralSeminorm.linf(X.dim)
    if X.graded:
        new = _from_rows(X.dim, X.seminorms[-1].rows + new.rows)
    return MultiSpace.make(X.seminorms + (new,), graded=X.graded)


def truncate(X: MultiSpace, k: int) -> MultiSpace:
    if not 1 <= k <= X.length:
        raise BadLength(f"truncation length {k} outside 1..{X.length}")
    sems = X.seminorms[:k]
    graded = X.graded or is_graded_sequence(sems)
    return MultiSpace(sems, graded)


def graded_closure(X: MultiSpace) -> MultiSpace:
    """Replace level n by the running max of levels <= n."""
    sems = []
    acc = ()
    for s in X.seminorms:
        acc += s.rows
        sems.append(_from_rows(X.dim, acc))
    return MultiSpace(tuple(sems), graded=True)


def _pad_rows(rows, offset: int, total: int):
    """The rows ``(ints, s)`` as functionals on ``total`` coordinates, from coordinate ``offset`` on."""
    return [((0,) * offset + ia + (0,) * (total - offset - len(ia)), s) for ia, s in rows]


def product_space(factors) -> MultiSpace:
    """Direct sum of single-seminorm factors with coordinate seminorms.

    Each factor supplies exactly the level matching its position; the
    running-max version is ``graded_closure`` of this one.
    """
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
        sems.append(_from_rows(total, _pad_rows(f.seminorms[0].rows, off, total), reduce=False))
        off += f.dim
    return MultiSpace(tuple(sems), graded=False)


def pullback_space(X: MultiSpace, lift: Matrix) -> MultiSpace:
    """Structure induced on a subspace so its inclusion is exactly isometric.

    ``lift`` is a dim(X) x m matrix with independent columns; level n of the
    result evaluates each functional composed with the inclusion.
    """
    m = lift.cols
    if lift.rows != X.dim:
        raise DimensionMismatch("lift target dimension != space dimension")
    if lift.rank() != m:
        raise DimensionMismatch("lift columns are dependent")
    sems = tuple(_from_rows(m, _pullbacks(s, lift)) for s in X.seminorms)
    return MultiSpace(sems, graded=X.graded and is_graded_sequence(sems))
