import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msn.amalgam import (
    multi_amalgam,
    primal_pushout_value,
    product_amalgam,
    pushout,
    pushout_n_preserving,
    rescale_expansive,
)
from msn import amalgam
from msn.errors import EpsNonPositive, NotAnEmbedding, ShapeMismatch
from msn.linalg import Matrix
from msn.maps import LinearMap, compose, distortion, identity_map, is_embedding, map_distance
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, graded_closure, is_separated, line_space, trivial_space

from genhelpers import block_embedding_triple
from oracles import fraction_coupled_level, piecewise_min_1d

F = Fraction
S = PolyhedralSeminorm.from_functionals


def line():
    return line_space(1)


def test_pushout_line_example():
    q = line()
    i = identity_map(q)
    res = pushout(q, q, q, i, i, 0, F(1, 2))
    W = res.space
    assert W.dim == 2 and W.length == 1
    assert set(W.seminorms[0].functionals) == {(F(1), F(1)), (F(1), F(1, 2)), (F(1, 2), F(1))}
    assert W.eval(0, (1, -1)) == F(1, 2)
    assert W.eval(0, (1, 0)) == 1
    assert res.bound_certificate == (F(1, 2),)
    assert map_distance(compose(res.leg_y, i), compose(res.leg_z, i), 0) == F(1, 2)
    # the infimum value matches the 1-D breakpoint oracle
    val, _ = piecewise_min_1d([(F(-1), F(1)), (F(1), F(-1)), (F(1, 2), F(0))])
    assert primal_pushout_value(q, q, q, i, i, 0, F(1, 2), (F(1),), (F(-1),)) == val == F(1, 2)


def test_pushout_over_trivial_space_is_jep():
    triv = trivial_space(1)
    a, b = line(), line()
    za = LinearMap(triv, a, Matrix.zero(a.dim, 0))
    zb = LinearMap(triv, b, Matrix.zero(b.dim, 0))
    res = pushout(triv, a, b, za, zb, 0, F(1, 2))
    assert res.bound_certificate == (F(0),)
    assert is_embedding(res.leg_y, 0)[0] and is_embedding(res.leg_z, 0)[0]


def test_pushout_rejects_bad_inputs():
    q = line()
    i = identity_map(q)
    with pytest.raises(EpsNonPositive):
        pushout(q, q, q, i, i, 0, 0)
    two = LinearMap(q, q, Matrix.from_rows([[2]]))
    with pytest.raises(NotAnEmbedding):
        pushout(q, q, q, two, i, 0, F(1, 2))


def test_rescale_expansive():
    q = line()
    assert rescale_expansive(q, 0) is q
    r = rescale_expansive(q, 1)
    assert r.eval(0, (1,)) == F(1, 2)
    dom = rescale_expansive(q, F(1, 2))
    f = LinearMap(dom, q, Matrix.from_rows([[1]]))
    rep = distortion(f)
    up, lo = rep.per_level[0]
    assert lo >= 1 and up == F(3, 2)
    assert up <= 1 + (2 * F(1, 2) + F(1, 4))


def _block_embedding_instance(rng, dim_x, extra_y, extra_z, lam_x, lam_y, lam_z, delta=F(0), graded=False):
    """X embeds into Y and Z by block inclusion scaled by (1 + delta)."""

    def rand_sem(dim, count):
        funcs = []
        for _ in range(count):
            f = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(v != 0 for v in f):
                funcs.append(f)
        return S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim)

    xs = [rand_sem(dim_x, rng.randint(1, 2)) for _ in range(lam_x)]
    X = MultiSpace(tuple(xs))

    def extend(base_sems, extra, lam):
        dim = dim_x + extra
        out = []
        for n in range(lam):
            funcs = []
            if n < len(base_sems):
                funcs.extend(tuple(f) + (F(0),) * extra for f in base_sems[n].functionals)
            for _ in range(rng.randint(0, 2)):
                tail = tuple(F(rng.randint(-2, 2)) for _ in range(extra))
                if any(v != 0 for v in tail):
                    funcs.append((F(0),) * dim_x + tail)
            out.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
        return MultiSpace(tuple(out))

    Y = extend(xs, extra_y, lam_y)
    Z = extend(xs, extra_z, lam_z)
    if graded:
        X, Y, Z = graded_closure(X), graded_closure(Y), graded_closure(Z)
    t = 1 + delta
    fm = Matrix.from_rows([[t if j == i else F(0) for j in range(dim_x)] for i in range(dim_x)]
                          + [[F(0)] * dim_x for _ in range(extra_y)])
    gm = Matrix.from_rows([[t if j == i else F(0) for j in range(dim_x)] for i in range(dim_x)]
                          + [[F(0)] * dim_x for _ in range(extra_z)])
    return X, Y, Z, LinearMap(X, Y, fm), LinearMap(X, Z, gm)


def test_pushout_random_certificates_and_legs():
    rng = random.Random(424)
    for trial in range(25):
        delta = F(0) if trial % 2 else F(1, 4)
        lam_x = rng.randint(1, 2)
        lam_y = rng.randint(lam_x, 3)
        lam_z = rng.randint(lam_x, 3)
        X, Y, Z, f, g = _block_embedding_instance(
            rng, rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1),
            lam_x, lam_y, lam_z, delta=delta)
        res = pushout(X, Y, Z, f, g, delta, F(1, 8))
        assert is_embedding(res.leg_y, 0)[0]
        assert is_embedding(res.leg_z, 0)[0]
        for n, bound in enumerate(res.bound_certificate):
            assert bound <= 2 * delta + F(1, 8)
        # dual/primal master check on random vectors (evaluate through the
        # legs: the block layout may be swapped internally)
        c = (2 * delta + delta * delta + F(1, 8)) / (1 + delta)
        from msn.linalg import vec_add

        for _ in range(10):
            y = tuple(F(rng.randint(-3, 3)) for _ in range(Y.dim))
            z = tuple(F(rng.randint(-3, 3)) for _ in range(Z.dim))
            n = rng.randrange(X.length)
            w = vec_add(res.leg_y(y), res.leg_z(z))
            assert res.space.eval(n, w) == primal_pushout_value(Y, Z, X, f, g, n, c, y, z)


def test_pushout_graded_mode():
    rng = random.Random(77)
    for _ in range(8):
        X, Y, Z, f, g = _block_embedding_instance(rng, 1, 1, 1, 2, 2, 3, graded=True)
        res = pushout(X, Y, Z, f, g, 0, F(1, 8), graded=True)
        assert res.space.graded  # make() validated containment exactly


def test_pushout_separated_variant():
    q = line()
    X = MultiSpace((PolyhedralSeminorm.zero(1),))
    f = LinearMap(X, MultiSpace((PolyhedralSeminorm.zero(1),)), Matrix.from_rows([[1]]))
    res = pushout(X, f.codomain, f.codomain, f, f, 0, F(1, 2), separated=True)
    assert is_separated(res.space)


def test_n_preserving_pushout_example():
    X = line_space(1, 1)
    i = identity_map(X)
    res = pushout_n_preserving(X, X, X, i, i, 1, F(1, 2))
    assert res.bound_certificate == (F(1, 2),)
    assert res.space.eval(1, (1, -1)) == 2  # sum seminorm above the cutoff
    assert is_embedding(res.leg_y, 0)[0] and is_embedding(res.leg_z, 0)[0]


def test_n_preserving_full_length_matches_nap_low_levels():
    X = line_space(1)
    i = identity_map(X)
    res = pushout_n_preserving(X, X, X, i, i, 1, F(1, 2))
    nap = pushout(X, X, X, i, i, 0, F(1, 2))
    assert res.space.eval(0, (1, -1)) == nap.space.eval(0, (1, -1)) == F(1, 2)


def test_n_preserving_pushout_rejects_maps_into_other_spaces():
    """Z2 agrees with Z below the cutoff, so only the codomain check catches g: X -> Z2."""
    X = line_space(1, 1)
    Z2 = line_space(1, 2)
    i = identity_map(X)
    g2 = LinearMap(X, Z2, Matrix.identity(1))
    with pytest.raises(ShapeMismatch):
        pushout_n_preserving(X, X, X, i, g2, 1, F(1, 2))
    with pytest.raises(ShapeMismatch):
        pushout_n_preserving(X, X, X, g2, i, 1, F(1, 2))
    res = pushout_n_preserving(X, X, Z2, i, g2, 1, F(1, 2))
    assert compose(res.leg_z, g2).codomain == res.space


@st.composite
def _coupled_inputs(draw):
    """A seeded block-embedding triple (X may be zero-dimensional) and a coupling constant."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lam_x = draw(st.integers(1, 2))
    delta = draw(st.sampled_from([F(0), F(1, 4)]))
    X, Y, Z, f, g = block_embedding_triple(
        rng, draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2)),
        lam_x, draw(st.integers(lam_x, 3)), draw(st.integers(lam_x, 3)), delta=delta)
    eps = draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
    return X, Y, Z, f, g, (2 * delta + delta * delta + eps) / (1 + delta)


def _over_trivial_space():
    """X of dimension 0, as in a tower's first pushouts: [f; -g] has no columns."""
    X, Y, Z = trivial_space(2), line_space(1, 2), line_space(3, 1)
    return X, Y, Z, LinearMap(X, Y, Matrix.zero(1, 0)), LinearMap(X, Z, Matrix.zero(1, 0)), F(1, 2)


_LEVELS = MultiSpace((PolyhedralSeminorm.zero(2), S(2, [(1, 0), (1, 1)])))


@settings(max_examples=80, deadline=None)
@given(_coupled_inputs())
@example(_over_trivial_space())
@example((line_space(0, 1), line_space(0, 1), line_space(0, 2, 1), identity_map(line_space(0, 1)),
          LinearMap(line_space(0, 1), line_space(0, 2, 1), Matrix.identity(1)), F(1)))
@example((_LEVELS, _LEVELS, _LEVELS, identity_map(_LEVELS), identity_map(_LEVELS), F(1, 8)))
@example((*block_embedding_triple(random.Random(5), 2, 1, 1, 2, 2, 3), F(1, 8)))
@example((*block_embedding_triple(random.Random(5), 2, 1, 1, 2, 2, 3, delta=F(1, 4)),
          (2 * F(1, 4) + F(1, 16) + F(1, 8)) / (1 + F(1, 4))))
@example((*block_embedding_triple(random.Random(9), 1, 2, 1, 1, 2, 2, delta=F(1, 4)), F(2, 3)))
def test_coupled_level_matches_fraction_oracle(case):
    """The integer coupled level against its Fraction form (``Matrix.apply``,
    ``polytope_vertices``, ``from_functionals``): zero-dimensional X, zero
    levels, delta 0 and 1/4 (f and g scaled by 5/4), and c with
    denominators 2, 3, 8 and 20 among the examples."""
    X, Y, Z, f, g, c = case
    fg = amalgam._stacked(f, g)
    coupling = amalgam._coupling(fg, c)
    for n in range(X.length):
        got = amalgam._coupled_level(Y, Z, X, coupling, n)
        assert got == fraction_coupled_level(Y, Z, X, fg, n, c), n
        assert all(type(x) is Fraction for phi in got.functionals for x in phi)
        # stored as from_functionals would store its Fraction view
        same = PolyhedralSeminorm.from_functionals(got.dim, got.functionals, reduce=False)
        assert got == same and hash(got) == hash(same)


def test_product_amalgam_one_dim_matches_pushout():
    q = line()
    i = identity_map(q)
    res = product_amalgam(q, q, q, i, i, 0, F(1, 2))
    ref = pushout(q, q, q, i, i, 0, F(1, 2))
    assert res.bound_certificate == ref.bound_certificate
    assert is_embedding(res.leg_y, 0)[0] and is_embedding(res.leg_z, 0)[0]


def test_product_amalgam_trivial_base():
    triv = trivial_space(1)
    a = MultiSpace.make((S(1, [(1,)]),))
    b = MultiSpace.make((S(1, [(2,)]),))
    za = LinearMap(triv, a, Matrix.zero(a.dim, 0))
    zb = LinearMap(triv, b, Matrix.zero(b.dim, 0))
    res = product_amalgam(triv, a, b, za, zb, 0, F(1, 2))
    assert res.space.dim == 2
    assert is_embedding(res.leg_y, 0)[0] and is_embedding(res.leg_z, 0)[0]


def _assert_product_amalgam_exact(X, Y, Z, f, g, delta, eps):
    res = product_amalgam(X, Y, Z, f, g, delta, eps)
    assert is_embedding(res.leg_y, 0)[0] and is_embedding(res.leg_z, 0)[0]
    assert len(res.bound_certificate) == X.length
    assert all(b is not None and b <= 2 * delta + eps for b in res.bound_certificate)
    return res


def test_product_amalgam_over_zero_levels():
    # Level 1 of X and Z and level 2 of Y and Z are zero: their quotients
    # are zero-dimensional, so the per-level legs have no columns.
    X = MultiSpace.make((S(1, [(1,)]), S(1, [])))
    Y = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 2)]), S(2, [])))
    Z = MultiSpace.make((S(1, [(1,)]), S(1, []), S(1, [])))
    f = LinearMap(X, Y, Matrix.from_rows([[1], [0]]))
    g = LinearMap(X, Z, Matrix.from_rows([[1]]))
    res = _assert_product_amalgam_exact(X, Y, Z, f, g, F(0), F(1, 2))
    assert res.space.length == 3


def _separated_triples(count):
    """Seeded separated block-embedding triples, many with zero levels."""
    rng = random.Random(0xA11)
    out = []
    while len(out) < count:
        dim_x = rng.randint(1, 2)
        lam_x = rng.randint(1, 2)
        lam_y, lam_z = rng.randint(lam_x, 3), rng.randint(lam_x, 3)
        extra_y, extra_z = rng.randint(0, 2), rng.randint(0, 2)
        delta = rng.choice((F(0), F(1, 4)))
        X, Y, Z, f, g = block_embedding_triple(rng, dim_x, extra_y, extra_z, lam_x, lam_y, lam_z, delta)
        if all(is_separated(T) for T in (X, Y, Z)):
            out.append((X, Y, Z, f, g, delta))
    return out


def test_product_amalgam_sweep_of_separated_triples():
    triples = _separated_triples(40)
    # most of them have a zero level in X or Y, the shape the legs used to fail on
    assert sum(any(s.is_zero() for T in t[:2] for s in T.seminorms) for t in triples) >= 20
    for X, Y, Z, f, g, delta in triples:
        _assert_product_amalgam_exact(X, Y, Z, f, g, delta, F(1, 2))


def test_product_amalgam_longer_z_levels_carry_quotients():
    rng = random.Random(5)
    X = MultiSpace.make((S(1, [(1,)]),))
    Y = MultiSpace.make((S(2, [(1, 0), (0, 1)]),))
    Z = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1), (1, -1)])))
    f = LinearMap(X, Y, Matrix.from_rows([[1], [0]]))
    g = LinearMap(X, Z, Matrix.from_rows([[1], [0]]))
    res = product_amalgam(X, Y, Z, f, g, 0, F(1, 4))
    assert res.space.length == 2
    assert is_embedding(res.leg_z, 0)[0]
    assert is_separated(res.space)
    for _ in range(10):
        z = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        assert res.space.eval(1, res.leg_z(z)) == Z.eval(1, z)


def test_product_amalgam_checks_inputs_before_any_pushout(monkeypatch):
    calls = []
    monkeypatch.setattr(amalgam, "pushout", lambda *a, **k: calls.append(a))
    q = line()
    two = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1), (1, -1)])))
    unseparated = MultiSpace.make((S(2, [(1, 0)]),))
    i = identity_map(q)
    g = LinearMap(q, two, Matrix.from_rows([[1], [0]]))
    # g lands in ``two``, not in the Z given, which is also not separated
    for Z in (q, unseparated, line_space(2)):
        with pytest.raises(ShapeMismatch):
            product_amalgam(q, q, Z, i, g, 0, F(1, 4))
    with pytest.raises(EpsNonPositive, match="amalgamation error"):
        product_amalgam(q, q, two, i, g, 0, 0)
    assert calls == []


def test_multi_amalgam_empty_and_single():
    q = line()
    i = identity_map(q)
    res = multi_amalgam(q, [], F(1, 2))
    assert res.space is q and res.legs == ()
    one = multi_amalgam(q, [(q, i, i, F(0))], F(1, 2))
    ref = pushout(q, q, q, i, i, 0, F(1, 2))
    assert one.bounds[0] == ref.bound_certificate


def test_multi_amalgam_two_pairs_recomposed():
    q = line()
    i = identity_map(q)
    res = multi_amalgam(q, [(q, i, i, F(0)), (q, i, i, F(0))], F(1, 2))
    assert is_embedding(res.into, 0)[0]
    for J, bounds in zip(res.legs, res.bounds):
        assert is_embedding(J, 0)[0]
        for b in bounds:
            assert b <= F(1, 2)
