import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msn import io
from msn.errors import ArityMismatch, BadLength
from msn.linalg import Matrix, _scale_to_int
from msn.lp import gauge_scale
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import (
    MultiSpace,
    _level_dominates,
    extend_with_norm,
    graded_closure,
    invariant_alpha,
    is_separated,
    line_space,
    product_space,
    pullback_space,
    truncate,
)

F = Fraction
S = PolyhedralSeminorm.from_functionals


def coords2():
    return MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)])))


def test_invariant_alpha_examples():
    a = invariant_alpha(coords2())
    assert a.alpha(()) == 2 and a.alpha((0,)) == 1 and a.alpha((1,)) == 1 and a.alpha((0, 1)) == 0

    norms = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1), (1, -1)])))
    b = invariant_alpha(norms)
    assert [b.alpha(s) for s in [(), (0,), (1,), (0, 1)]] == [2, 0, 0, 0]

    x = MultiSpace.make((S(3, [(1, 0, 0)]), S(3, [(1, 1, 0)])))
    c = invariant_alpha(x)
    assert [c.alpha(s) for s in [(), (0,), (1,), (0, 1)]] == [3, 2, 2, 1]


def test_separated_examples():
    assert is_separated(coords2())
    assert not is_separated(MultiSpace.make((S(2, [(1, 0)]),)))
    assert not is_separated(MultiSpace((PolyhedralSeminorm.zero(1),)))


@st.composite
def spaces_some_separated(draw):
    """Spaces of dimension 0-4 with zero levels, and functionals that often
    miss a direction, so that about half are not separated."""
    dim = draw(st.integers(0, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    off = draw(st.integers(-1, dim - 1))  # a coordinate no functional reads, or none
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        funcs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=4))
        funcs = [[0 if j == off else x for j, x in enumerate(f)] for f in funcs]
        levels.append(S(dim, [f for f in funcs if any(f)]))
    return MultiSpace(tuple(levels))


@settings(max_examples=150, deadline=None)
@given(spaces_some_separated())
@example(MultiSpace((PolyhedralSeminorm.zero(0),)))
@example(MultiSpace((PolyhedralSeminorm.zero(2), S(2, [(1, 1), (2, 2)], reduce=False), PolyhedralSeminorm.zero(2))))
@example(MultiSpace((S(3, [(1, 0, 0)]), PolyhedralSeminorm.zero(3), S(3, [(0, F(1, 2), 0), (0, 0, 3)]))))
def test_is_separated_is_full_rank(X):
    rows = [f for s in X.seminorms for f in s.functionals]
    assert is_separated(X) == (Matrix.from_rows(rows, X.dim).rank() == X.dim)


def test_extend_with_norm():
    x = MultiSpace.make((S(2, [(1, 0)]),))
    y = extend_with_norm(x)
    assert y.length == 2 and is_separated(y)
    assert y.seminorms[0] == x.seminorms[0]
    z = extend_with_norm(y)
    assert is_separated(z) and z.length == 3

    g = MultiSpace.make((S(2, [(1, 0)]),), graded=True)
    gg = extend_with_norm(g)
    assert gg.graded
    assert gg.eval(1, (3, -4)) == 4  # max(|x1|, linf)


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_appended_sup_norm_survives_save_and_load(dim, graded):
    """The sup-norm level is canonical, so ``load(save(E))`` is E and saves to the same bytes."""
    assert PolyhedralSeminorm.linf(dim) == S(dim, Matrix.identity(dim).entries)
    E = extend_with_norm(MultiSpace.make((S(dim, [(1,) * dim]),), graded=graded))
    doc = io.space_to_doc(E)
    back = io.space_from_doc(doc)
    assert back == E
    assert io.dumps(io.space_to_doc(back)) == io.dumps(doc)


def test_truncate():
    t = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)]), S(2, [(1, 1)])))
    assert truncate(t, 3) == t
    assert truncate(t, 1).length == 1 and truncate(t, 1).seminorms[0] == t.seminorms[0]
    assert not is_separated(truncate(coords2(), 1))
    with pytest.raises(BadLength):
        truncate(t, 0)
    with pytest.raises(BadLength):
        truncate(t, 4)


def test_graded_closure():
    x = MultiSpace.make((S(2, [(0, 1)]), S(2, [(1, 0)])))
    g = graded_closure(x)
    assert g.graded
    assert g.eval(1, (3, 5)) == 5
    assert g.eval(0, (3, 5)) == 5  # second functional only at level>=1? level0 = |x2|
    assert g.eval(0, (3, 0)) == 0
    rng = random.Random(5)
    for _ in range(20):
        v = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        for n in range(x.length):
            assert g.eval(n, v) >= x.eval(n, v)
        for n in range(x.length - 1):
            assert g.eval(n, v) <= g.eval(n + 1, v)


def test_graded_flag_validation():
    with pytest.raises(ValueError):
        MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 0)])), graded=True)


def test_product_space_modes():
    a = line_space(1)
    b = line_space(1)
    p = product_space([a, b])
    assert p.eval(0, (3, 5)) == 3 and p.eval(1, (3, 5)) == 5 and not p.graded
    g = graded_closure(p)
    assert g.eval(0, (3, 5)) == 3 and g.eval(1, (3, 5)) == 5 and g.graded
    assert product_space([a]) is a
    for factors in ([line_space(1, 2)], [a, line_space(1, 2)], []):
        with pytest.raises(ArityMismatch):
            product_space(factors)


def test_invariant_unchanged_under_invertible_image():
    rng = random.Random(3)
    for _ in range(15):
        dim, lam = rng.randint(1, 3), rng.randint(1, 3)
        sems = []
        for _ in range(lam):
            funcs = []
            for _ in range(rng.randint(0, 3)):
                f = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                if any(v != 0 for v in f):
                    funcs.append(f)
            sems.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        X = MultiSpace(tuple(sems))
        while True:
            T = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
            if T.rank() == dim:
                break
        from msn.linalg import inverse

        Tinv = inverse(T)
        # image space: functionals pulled back along T^{-1}
        ysems = []
        for s in sems:
            funcs = [tuple(Tinv.transpose().apply(f)) for f in s.functionals]
            funcs = [f for f in funcs if any(v != 0 for v in f)]
            ysems.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        Y = MultiSpace(tuple(ysems))
        assert invariant_alpha(X).entries == invariant_alpha(Y).entries


def test_truncate_graded_closure_commute():
    rng = random.Random(9)
    for _ in range(10):
        dim, lam = rng.randint(1, 3), rng.randint(2, 3)
        sems = []
        for _ in range(lam):
            funcs = [tuple(F(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(rng.randint(1, 2))]
            funcs = [f for f in funcs if any(v != 0 for v in f)]
            sems.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        X = MultiSpace(tuple(sems))
        k = rng.randint(1, lam)
        lhs = truncate(graded_closure(X), k)
        rhs = graded_closure(truncate(X, k))
        for _ in range(10):
            v = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            for n in range(k):
                assert lhs.eval(n, v) == rhs.eval(n, v)


def test_invariant_alpha_monotone_under_inclusion():
    rng = random.Random(77)
    from itertools import combinations

    for _ in range(20):
        dim, lam = rng.randint(1, 3), rng.randint(1, 3)
        sems = []
        for _ in range(lam):
            funcs = [tuple(F(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
            funcs = [f for f in funcs if any(v != 0 for v in f)]
            sems.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        X = MultiSpace(tuple(sems))
        inv = invariant_alpha(X)
        subsets = [c for r in range(lam + 1) for c in combinations(range(lam), r)]
        for s in subsets:
            for t in subsets:
                if set(s) <= set(t):
                    assert inv.alpha(s) >= inv.alpha(t)
        assert inv.alpha(()) == dim


def test_pullback_is_isometric_on_subspace():
    X = MultiSpace.make((S(2, [(1, 1), (1, F(1, 2))]),))
    L = Matrix.from_rows([[1], [2]])  # span{(1,2)}
    sub = pullback_space(X, L)
    assert sub.dim == 1
    for t in (F(1), F(-3), F(5, 2)):
        assert sub.eval(0, (t,)) == X.eval(0, (t, 2 * t))


def test_level_dominates_is_the_per_row_gauge_rule():
    """One gauge LP per pair of levels decides as one ``gauge_scale`` per row of ``lo`` did."""
    rng = random.Random(0x6A7)
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 3)

        def level(count):
            funcs = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)) for _ in range(count)]
            return S(dim, [f for f in funcs if any(f)])

        lo, hi = level(rng.randint(0, 4)), level(rng.randint(0, 4))
        if rng.random() < 0.3:
            # hi at least lo: lo's functionals, some scaled up, among hi's
            hi = S(dim, hi.functionals + tuple(tuple(x * rng.choice((1, 2)) for x in f) for f in lo.functionals))
        ball = [_scale_to_int(f) for f in hi.functionals]
        gauges = [gauge_scale(_scale_to_int(f), ball) for f in lo.functionals]
        want = all(g is not None and g <= 1 for g in gauges)
        assert _level_dominates(lo, hi) == want, (lo, hi)
        seen.add((want, not hi.functionals, not lo.functionals))
    assert {(True, True, True), (False, True, False), (True, False, False), (False, False, False)} <= seen, seen
