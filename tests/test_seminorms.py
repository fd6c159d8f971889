import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msn import lp
from msn.errors import DimensionMismatch
from msn.linalg import Matrix, _scale_to_int, dot, in_span, vec
from msn.lp import gauge_max
from msn.polytope import polytope_vertices
from msn.seminorms import (
    PolyhedralSeminorm,
    dual_ball_facets,
    quotient_norm,
    seminorm_kernel,
)

from oracles import fraction_front_end, fraction_seminorm

F = Fraction
S = PolyhedralSeminorm.from_functionals


def test_eval_examples():
    s = S(2, [(1, 0), (0, 1)])
    assert s((3, -4)) == 4
    assert S(2, [(1, 1)])((1, -1)) == 0
    assert S(2, [(2, 0), (1, 1)])((1, 2)) == 3


# ints and Fractions with mixed denominators, as inputs arrive
entry = st.one_of(st.integers(-40, 40), st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def _functionals_and_vector(draw):
    dim = draw(st.integers(1, 4))
    funcs = draw(st.lists(st.tuples(*[entry] * dim).filter(any), max_size=6))
    return dim, funcs, draw(st.tuples(*[entry] * dim))


@settings(max_examples=150, deadline=None)
@given(_functionals_and_vector())
def test_integer_eval_matches_fraction_oracle(case):
    dim, funcs, x = case
    raw = PolyhedralSeminorm(dim, tuple((tuple(ia), s) for ia, s in map(_scale_to_int, funcs)))
    canon = S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim)
    want = fraction_seminorm(funcs, x)
    for s in (raw, canon):
        got = s(x)
        assert type(got) is Fraction and got == want
        assert s(vec(x)) == want
        for bad in (x + (0,), x[:-1]):
            with pytest.raises(DimensionMismatch):
                s(bad)
    assert PolyhedralSeminorm.zero(dim)(x) == 0


@st.composite
def _redundant_lists(draw):
    """Functional lists with repeats, sign flips and positive rational multiples."""
    dim = draw(st.integers(0, 4))
    if dim == 0:  # no nonzero functional has arity 0
        return dim, []
    bases = draw(st.lists(st.tuples(*[entry] * dim).filter(any), min_size=1, max_size=4))
    multiple = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
    picks = draw(st.lists(st.tuples(st.sampled_from(bases), st.sampled_from((1, -1)), multiple),
                          max_size=8))
    return dim, [tuple(sign * c * x for x in b) for b, sign, c in picks]


@settings(max_examples=200, deadline=None)
@given(_redundant_lists())
def test_front_end_matches_fraction_oracle(case):
    dim, funcs = case
    got = S(dim, funcs, reduce=False).functionals
    assert list(got) == fraction_front_end(funcs)
    assert all(type(x) is Fraction for f in got for x in f)
    # reduction only drops functionals, so the list stays sorted
    reduced = S(dim, funcs).functionals
    assert set(reduced) <= set(got) and list(reduced) == sorted(reduced)


@settings(max_examples=200, deadline=None)
@given(_redundant_lists(), st.booleans())
def test_stored_rows_are_the_lowest_terms_rows_of_the_fraction_view(case, reduce):
    """The one stored form: each row ``_scale_to_int`` of its Fraction view, in
    lowest terms; and equal lists from different inputs are equal values."""
    dim, funcs = case
    s = S(dim, funcs, reduce=reduce)
    assert len(s.rows) == len(s.functionals)
    for (ia, t), phi in zip(s.rows, s.functionals):
        assert type(ia) is tuple and t > 0 and gcd(*ia, t) == 1
        assert (list(ia), t) == _scale_to_int(phi)
    if not reduce:
        assert list(s.functionals) == fraction_front_end(funcs)
    # Reversed, negated, with a smaller positive multiple of each and the
    # Fraction view itself: the same list.
    other = [tuple(-x for x in f) for f in reversed(funcs)] + [tuple(F(x) / 3 for x in f) for f in funcs]
    for t in (S(dim, other, reduce=reduce), S(dim, s.functionals, reduce=reduce)):
        assert t == s and hash(t) == hash(s)


def test_kernel_examples():
    assert seminorm_kernel(S(2, [(1, 0)])) == [(F(0), F(1))]
    assert seminorm_kernel(S(2, [(1, 0), (0, 1)])) == []
    assert seminorm_kernel(S(3, [(1, 1, 0)])) == [(F(1), F(-1), F(0)), (F(0), F(0), F(1))]


def test_reduce_examples():
    assert S(2, [(1, 0), (F(1, 2), 0)]).functionals == ((F(1), F(0)),)
    assert S(2, [(1, 0), (0, 1), (F(1, 2), F(1, 2))]).functionals == ((F(0), F(1)), (F(1), F(0)))
    assert S(2, [(1, 0)]).functionals == ((F(1), F(0)),)


def _leave_one_out(funcs):
    """The exact gauge of each member over the others' ball, by one ``gauge_max`` each."""
    rows = [_scale_to_int(f) for f in funcs]
    return [gauge_max([rows[i]], rows[:i] + rows[i + 1:])[0] for i in range(len(rows))]


def test_independent_lists_are_kept_whole_without_an_lp(monkeypatch):
    # Some lists get members on the hull of the others (gauge exactly 1,
    # redundant) or just past it (gauge 1 + 1/1000, kept): the reduced
    # list is the one the exact gauges give.
    rng = random.Random(31)
    calls = []
    real = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    seen = {True: 0, False: 0, "on": 0, "past": 0}
    for _ in range(400):
        dim = rng.randint(1, 4)
        funcs = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
                 for _ in range(rng.randint(2, dim + 1))]
        if not all(any(f) for f in funcs):
            continue
        for _ in range(rng.choice((0, 0, 1, 2))):
            # factor times a convex combination of +/- members: its gauge
            # is at most factor, and exactly that on a face of the hull.
            picks = rng.sample(funcs, rng.randint(1, min(len(funcs), 3)))
            w = [rng.choice((1, -1)) * F(rng.randint(1, 4)) for _ in picks]
            scale = rng.choice((1, F(1001, 1000))) / sum(map(abs, w))
            funcs.append(tuple(scale * sum(c * f[j] for c, f in zip(w, picks)) for j in range(dim)))
        funcs = [f for f in funcs if any(f)]
        front = S(dim, funcs, reduce=False).functionals
        independent = Matrix.from_rows(front).rank() == len(front)
        calls.clear()
        got = S(dim, funcs).functionals
        assert (not calls) == independent
        if independent:
            assert got == front
        gauges = _leave_one_out(front)
        assert got == tuple(f for f, g in zip(front, gauges) if g is None or g > 1)
        seen[independent] += 1
        seen["on"] += gauges.count(1)
        seen["past"] += sum(g is not None and 1 < g <= F(1001, 1000) for g in gauges)
    assert min(seen[True], seen[False]) >= 50 and min(seen["on"], seen["past"]) >= 20, seen


def test_membership_boundary_is_gauge_one():
    # Each membership LP may stop at the first ball point past 1, so only
    # the gauge's side of 1 is read: exactly 1 is inside, 1 + 1/1000 is not,
    # and a member outside the span of the others has no finite gauge.
    h = F(1, 2)
    assert S(2, [(1, 0), (0, 1), (h, h)]).functionals == ((0, 1), (1, 0))
    assert S(2, [(1, 0), (h, -h), (0, 1)]).functionals == ((0, 1), (1, 0))
    t = F(1001, 2000)
    assert S(2, [(1, 0), (0, 1), (t, t)]).functionals == ((0, 1), (t, t), (1, 0))
    assert S(3, [(1, 0, 0), (0, 1, 0), (h, h, 0), (0, 0, 1)]).functionals == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert S(3, [(1, 0, 0), (0, 1, 0), (t, t, 0), (0, 0, 5)]).functionals == (
        (0, 0, 5), (0, 1, 0), (t, t, 0), (1, 0, 0))


def test_quotient_examples():
    q = quotient_norm(S(2, [(1, 0)]))
    assert q.norm.dim == 1
    assert q.norm(q.projection.apply((F(5), F(7)))) == 5
    s = S(2, [(1, 1)])
    q = quotient_norm(s)
    x = (F(3), F(1))
    assert q.norm(q.projection.apply(x)) == s(x) == 4


def _dual_support(s, x):
    """max of x . phi over the vertices of the dual ball's facets."""
    return max(dot(v, x) for v in polytope_vertices(list(dual_ball_facets(s)), s.dim))


def _signed(funcs):
    return sorted({v for f in funcs for v in (f, tuple(-x for x in f))})


def test_dual_ball_support_examples():
    s = S(2, [(1, 0), (0, 1)])
    assert _dual_support(s, (F(3), F(-4))) == 4
    seg = S(2, [(1, 1)])
    assert polytope_vertices(list(dual_ball_facets(seg)), 2) == [(F(-1), F(-1)), (F(1), F(1))]
    hexn = S(2, [(1, 1), (1, F(1, 2)), (F(1, 2), 1)])
    assert _dual_support(hexn, (F(1), F(-1))) == F(1, 2)


def test_dual_ball_facets_vertices_are_the_signed_functionals():
    zero = PolyhedralSeminorm.zero(3)
    assert polytope_vertices(list(dual_ball_facets(zero)), 3) == [(F(0),) * 3]
    degenerate = S(3, [(1, 1, 0), (1, -1, 0), (F(1, 2), 0, 0)])
    assert seminorm_kernel(degenerate) == [(F(0), F(0), F(1))]
    full = S(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for s in (zero, degenerate, full, S(2, [(1, 1), (1, F(1, 2)), (F(1, 2), 1)])):
        facets = dual_ball_facets(s)
        # each facet c . phi <= c0 is the primitive integer row (c, c0)
        for c, c0 in facets:
            assert type(c) is tuple and len(c) == s.dim
            assert all(type(x) is int for x in (*c, c0)) and gcd(*c, c0) == 1
        if s is not zero:
            assert polytope_vertices(list(facets), s.dim) == _signed(s.functionals)


def test_unit_ball_vertices_hexagon():
    hexn = S(2, [(1, 1), (1, F(1, 2)), (F(1, 2), 1)])
    ball = [(f, F(1)) for f in _signed(hexn.functionals)]
    verts = set(polytope_vertices(ball, 2))
    assert verts == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)), (F(2), F(-2)), (F(-2), F(2))}


rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _rand_seminorm(draw_funcs, dim):
    funcs = [f for f in draw_funcs if any(x != 0 for x in f)]
    if not funcs:
        return PolyhedralSeminorm.zero(dim)
    return S(dim, funcs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(rat, rat, rat), min_size=0, max_size=4),
       st.tuples(rat, rat, rat), st.tuples(rat, rat, rat), rat)
def test_seminorm_axioms(funcs, x, y, c):
    s = _rand_seminorm(funcs, 3)
    x, y = vec(x), vec(y)
    assert s(tuple(a + b for a, b in zip(x, y))) <= s(x) + s(y)
    assert s(tuple(c * a for a in x)) == abs(c) * s(x)
    assert s(x) >= 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rat, rat, rat), min_size=1, max_size=4), st.tuples(rat, rat, rat))
def test_kernel_iff_zero_and_dual_support(funcs, x):
    s = _rand_seminorm(funcs, 3)
    x = vec(x)
    assert (s(x) == 0) == in_span(seminorm_kernel(s), x)
    assert _dual_support(s, x) == s(x)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(rat, rat), min_size=1, max_size=5), st.tuples(rat, rat))
def test_reduce_never_changes_eval(funcs, x):
    funcs = [f for f in funcs if any(v != 0 for v in f)]
    if not funcs:
        return
    raw = PolyhedralSeminorm(2, tuple((tuple(ia), s) for ia, s in map(_scale_to_int, funcs)))
    red = S(2, raw.functionals)
    assert red(vec(x)) == raw(vec(x))


def test_quotient_agreement_random():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randint(1, 3)
        funcs = []
        for _ in range(rng.randint(0, 3)):
            f = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(v != 0 for v in f):
                funcs.append(f)
        s = S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim)
        q = quotient_norm(s)
        assert not seminorm_kernel(q.norm) or q.norm.dim == 0
        for _ in range(5):
            x = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            assert q.norm(q.projection.apply(x)) == s(x)
