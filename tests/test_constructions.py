"""The constructions that build from stored integer rows, against their Fraction oracles.

Every construction below reads its inputs' ``rows`` and builds its result
through ``seminorms._from_rows``; each oracle in ``oracles.py`` is the same
construction as it was when it read the Fraction view and called
``from_functionals``.  Results must be equal values with equal hashes.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msn import amalgam
from msn.amalgam import pushout, pushout_n_preserving, rescale_expansive
from msn.linalg import Matrix, _scale_to_int
from msn.ramsey import quotient_lift
from msn.seminorms import PolyhedralSeminorm, _from_rows, quotient_norm, seminorm_kernel
from msn.spaces import MultiSpace, extend_with_norm, graded_closure, product_space, pullback_space

from genhelpers import block_embedding_triple
from oracles import (
    fraction_band,
    fraction_coupled_level,
    fraction_extend_with_norm,
    fraction_graded_closure,
    fraction_linf,
    fraction_padded,
    fraction_product_space,
    fraction_pullback_space,
    fraction_quotient_norm,
    fraction_rescale_expansive,
    fraction_seminorm_kernel,
    fraction_sum_level,
)

F = Fraction
S = PolyhedralSeminorm.from_functionals

entry = st.one_of(st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _same(got, want):
    assert got == want and hash(got) == hash(want)


@st.composite
def _seminorm(draw, dim):
    """Zero levels included: the list may be empty, and always is in dimension 0."""
    funcs = draw(st.lists(st.tuples(*[entry] * dim).filter(any), max_size=4)) if dim else []
    return S(dim, funcs, reduce=draw(st.booleans()))


@st.composite
def _space(draw, dims=st.integers(0, 3), lengths=st.integers(1, 3)):
    dim = draw(dims)
    return MultiSpace(tuple(draw(_seminorm(dim)) for _ in range(draw(lengths))))


@st.composite
def _lift(draw, d):
    """A d x k matrix with independent columns; often a column reaching one coordinate."""
    if d and draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        c = draw(entry.filter(bool))
        return Matrix.from_rows([[c if r == i else 0] for r in range(d)], 1)
    k = draw(st.integers(0, d))
    cols = [draw(st.tuples(*[entry] * d)) for _ in range(k)]
    lift = Matrix.from_rows([[c[r] for c in cols] for r in range(d)], k)
    assume(lift.rank() == k)
    return lift


@st.composite
def _rows_case(draw):
    """Nonzero functionals, and their rows rescaled out of lowest terms with zero rows mixed in."""
    dim = draw(st.integers(0, 4))
    funcs = draw(st.lists(st.tuples(*[entry] * dim).filter(any), max_size=6)) if dim else []
    ks = draw(st.lists(st.integers(1, 6), min_size=len(funcs), max_size=len(funcs)))
    loose = [([x * k for x in ia], s * k) for (ia, s), k in zip(map(_scale_to_int, funcs), ks)]
    zeros = draw(st.lists(st.integers(1, 6), max_size=2))
    return dim, funcs, loose + [([0] * dim, k) for k in zeros]


@settings(max_examples=150, deadline=None)
@given(_rows_case(), st.booleans())
def test_from_rows_is_from_functionals(case, reduce):
    dim, funcs, loose = case
    want = S(dim, funcs, reduce)
    _same(_from_rows(dim, [_scale_to_int(f) for f in funcs], reduce), want)
    _same(_from_rows(dim, loose, reduce), want)


def test_linf_matches_fraction_oracle():
    for dim in range(6):
        _same(PolyhedralSeminorm.linf(dim), fraction_linf(dim))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_and_quotient_match_fraction_oracles(data):
    s = data.draw(_seminorm(data.draw(st.integers(0, 4))))
    assert seminorm_kernel(s) == fraction_seminorm_kernel(s)
    _same(quotient_norm(s), fraction_quotient_norm(s))


@settings(max_examples=100, deadline=None)
@given(_space(), st.fractions(min_value=0, max_value=2, max_denominator=5))
def test_space_constructions_match_fraction_oracles(X, delta):
    closed = graded_closure(X)
    _same(closed, fraction_graded_closure(X))
    for Y in (X, closed):
        _same(extend_with_norm(Y), fraction_extend_with_norm(Y))
        _same(rescale_expansive(Y, delta), fraction_rescale_expansive(Y, delta))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pullback_space_matches_fraction_oracle(data):
    X = data.draw(_space())
    for Y in (X, graded_closure(X)):
        lift = data.draw(_lift(Y.dim))
        _same(pullback_space(Y, lift), fraction_pullback_space(Y, lift))


@settings(max_examples=60, deadline=None)
@given(st.lists(_space(dims=st.integers(0, 2), lengths=st.just(1)), min_size=1, max_size=3))
def test_product_space_matches_fraction_oracle(factors):
    _same(product_space(factors), fraction_product_space(factors))


@settings(max_examples=60, deadline=None)
@given(_space(lengths=st.just(1)), _space())
def test_quotient_lift_matches_fraction_oracles(X, Z):
    Xq, pi, padded, embed_pad, _ = quotient_lift(None, X, Z)
    q = fraction_quotient_norm(X.seminorms[0])
    _same(Xq, MultiSpace((q.norm,)))
    _same(pi.matrix, q.projection)
    _same(padded, fraction_padded(Z))
    assert embed_pad.codomain == padded


def _triple(seed, equal_lengths, graded=False, delta=F(0), extra=2):
    """A seeded block-embedding triple with Y no longer than Z; X may have dimension 0."""
    rng = random.Random(seed)
    lam_x = rng.randint(1, 3)
    if equal_lengths:
        lam_y = lam_z = lam_x
    else:
        lam_y = rng.randint(lam_x, 3)
        lam_z = rng.randint(lam_y, 4)
    return block_embedding_triple(rng, rng.randint(0, 2), rng.randint(0, extra), rng.randint(0, extra),
                                  lam_x, lam_y, lam_z, delta, graded)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_bands_match_fraction_oracle(seed, join):
    _, Y, Z, _, _ = _triple(seed, False)
    prev = None
    for n in range(Z.length):
        got = amalgam._band(Y, Z, n, prev)
        _same(got, fraction_band(Y, Z, n, prev))
        prev = got if join else None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((F(0), F(1, 4))))
def test_graded_pushout_bands_match_fraction_oracle(seed, delta):
    X, Y, Z, f, g = _triple(seed, False, graded=True, delta=delta, extra=1)
    W = pushout(X, Y, Z, f, g, delta, F(1, 8), graded=True).space
    assert W.graded
    for n in range(X.length, Z.length):
        _same(W.seminorms[n], fraction_band(Y, Z, n, W.seminorms[n - 1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((F(1, 8), F(1, 2))))
def test_n_preserving_levels_match_fraction_oracles(seed, eps):
    X, Y, Z, f, g = _triple(seed, True)
    fg = amalgam._stacked(f, g)
    for n in range(X.length + 1):
        W = pushout_n_preserving(X, Y, Z, f, g, n, eps).space
        for m in range(Z.length):
            want = fraction_coupled_level(Y, Z, X, fg, m, eps) if m < n else fraction_sum_level(Y, Z, m)
            _same(W.seminorms[m], want)
