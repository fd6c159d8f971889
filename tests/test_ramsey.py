import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from msn import ramsey
from msn.amalgam import pushout
from msn.errors import EmptyEmbeddingSet, MultiLevelInput
from msn.linalg import Matrix
from msn.maps import LinearMap, compose, identity_map, map_distance, sup_distance
from msn.ramsey import (
    Colouring,
    bad_colouring_from_discrete,
    build_net,
    continuous_table,
    discrete_table,
    discretize,
    grid_of,
    lipschitz_audit,
    oscillation,
    product_colouring,
    product_embedding,
    quotient_lift,
    sampled_net,
    search_monochromatic,
    sphere_points,
)
from msn.seminorms import PolyhedralSeminorm
from msn.spaces import MultiSpace, line_space, product_space
from msn.tower import build_tower

from genhelpers import random_space

F = Fraction
S = PolyhedralSeminorm.from_functionals


def line():
    return line_space(1)


def linf2():
    return MultiSpace.make((S(2, [(1, 0), (0, 1)]),))


def hexagon_space():
    q = line()
    i = identity_map(q)
    return pushout(q, q, q, i, i, 0, F(1, 2))


def test_build_net_square_vertices_and_midpoints():
    net = build_net(line(), linf2(), 1)
    pts = {tuple(r[0] for r in p.matrix.entries) for p in net.points}
    for v in [(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert tuple(map(F, v)) in pts
    # every net point lies exactly on the sup-norm unit sphere
    Y = linf2()
    for p in pts:
        assert Y.eval(0, p) == 1


def test_build_net_contains_plus_minus_identity():
    net = build_net(line(), line(), 1)
    mats = {p.matrix.entries for p in net.points}
    assert ((F(1),),) in mats and ((F(-1),),) in mats


def test_build_net_empty_set():
    X = MultiSpace.make((S(1, [(1,)]), PolyhedralSeminorm.zero(1)))
    Y = MultiSpace.make((S(1, [(1,)]), S(1, [(1,)])))
    with pytest.raises(EmptyEmbeddingSet):
        build_net(X, Y, 1)


def test_oscillation_examples():
    net = build_net(line(), line(), 1)
    const = discrete_table(net, [1, 1], 2)
    assert oscillation(const, net.points, eps=F(1, 2)) == 0
    cont_const = continuous_table(net, [F(1, 2), F(1, 2)], 1)
    assert oscillation(cont_const, net.points) == 0
    two = continuous_table(net, [F(0), F(1)], 1)
    assert oscillation(two, net.points) == 1


def test_discretize_bounds():
    net = build_net(line(), linf2(), F(1, 2))
    grid = grid_of(F(1, 4))
    assert grid == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    rng = random.Random(8)
    values = [F(rng.randint(0, 8), 8) for _ in net.points]
    cont = continuous_table(net, values, 1)
    disc, g = discretize(cont, F(1, 4))
    for p, v in zip(net.points, values):
        assert abs(g[disc(p)] - v) <= F(1, 4)
    const = continuous_table(net, [F(1, 2)] * len(net.points), 1)
    dc, g2 = discretize(const, F(1, 4))
    assert all(g2[dc(p)] == F(1, 2) for p in net.points)
    zero = continuous_table(net, [F(0)] * len(net.points), 1)
    dz, g3 = discretize(zero, F(1, 4))
    assert all(g3[dz(p)] == 0 for p in net.points)


def test_bad_colouring_from_discrete():
    net = build_net(line(), linf2(), 1)
    # nobody carries the top colour: constant 1
    c_empty = discrete_table(net, [0] * len(net.points), 2)
    bad = bad_colouring_from_discrete(c_empty, net, top_colour=1)
    assert all(bad(p) == 1 for p in net.points)
    # a point of the top colour evaluates to zero there
    values = [1 if i == 0 else 0 for i in range(len(net.points))]
    c_one = discrete_table(net, values, 2)
    bad2 = bad_colouring_from_discrete(c_one, net, top_colour=1)
    assert bad2(net.points[0]) == 0
    assert lipschitz_audit(bad2, net.points)
    # exact distance value at a specific point
    target = net.points[0]
    for p in net.points:
        d = sup_distance(p, target)
        assert bad2(p) == min(F(1), d)


def test_product_colouring_identity_exact():
    rng = random.Random(31)
    q = line()
    X = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1), (1, -1)])))
    blocks = [linf2(), linf2()]
    Z = product_space(blocks)
    ref = Matrix.from_rows([[0], [0], [0], [0]])

    def table_free(fm):
        # built-in style evaluator: clamp of a fixed entry
        val = fm.matrix.entries[0][0]
        return min(F(1), max(F(0), val))

    c = Colouring("continuous", None, 2, None, ("coordinate-clamp", 0))
    for _ in range(20):
        # per-level embeddings rho_j of (X, level j) into the blocks
        rho = []
        for j in range(2):
            sign = 1 if rng.randrange(2) else -1
            perm = rng.randrange(2)
            rows = [[0, 0], [0, 0]]
            rows[0][perm] = sign
            rows[1][1 - perm] = sign
            m = Matrix.from_rows([[F(rows[0][0]), F(rows[0][1])], [F(rows[1][0]), F(rows[1][1])]])
            rho.append(LinearMap(MultiSpace((X.seminorms[j],)), blocks[j], m))
        # eta: signed permutation preserving both levels of X
        eta_m = Matrix.from_rows([[F(0), F(1)], [F(1), F(0)]]) if rng.randrange(2) \
            else Matrix.identity(2)
        sgn = -1 if rng.randrange(2) else 1
        eta = LinearMap(X, X, eta_m.scale(sgn))
        _, induced = product_colouring(c, X, blocks)
        rho_full = product_embedding(rho, Z, X)
        lhs = c(compose(rho_full, eta))
        rhs = induced([compose(r, eta_level) for r, eta_level in
                       zip(rho, [LinearMap(MultiSpace((X.seminorms[j],)),
                                           MultiSpace((X.seminorms[j],)), eta.matrix)
                                 for j in range(2)])])
        assert lhs == rhs


def test_quotient_lift():
    X = MultiSpace.make((S(2, [(1, 0)]),))
    Z = linf2()
    Xq, pi, padded, embed_pad, lifted = quotient_lift(lambda f: sup_distance(f, f), X, Z)
    assert Xq.dim == 1
    rng = random.Random(4)
    for _ in range(10):
        z = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        assert padded.eval(0, z) == Z.eval(0, z[:2])
    # distance transfer through the quotient: exact inequality
    rho = LinearMap(Xq, Z, Matrix.from_rows([[1], [0]]))
    theta = LinearMap(Xq, Z, Matrix.from_rows([[0], [1]]))
    a = compose(rho, pi)
    b = compose(theta, pi)
    assert map_distance(a, b, 0) <= sup_distance(rho, theta)
    with pytest.raises(MultiLevelInput):
        quotient_lift(lambda f: 0, MultiSpace.make((S(1, [(1,)]), S(1, [(1,)]))), Z)


def test_search_monochromatic_constant_and_single_colour():
    q = line()
    res = hexagon_space()
    W = res.space
    net_xz = build_net(q, W, F(1, 8))
    net_xy = build_net(q, q, 2)
    c_const = discrete_table(net_xz, [0] * len(net_xz.points), 2)
    out = search_monochromatic(c_const, net_xz, net_xy, [res.leg_y, res.leg_z], F(1, 2))
    assert out is not None and out[0] is res.leg_y
    c_single = discrete_table(net_xz, [0] * len(net_xz.points), 1)
    assert search_monochromatic(c_single, net_xz, net_xy, [res.leg_y, res.leg_z], F(1, 2)) is not None


def test_search_monochromatic_sign_colouring_finds_witness():
    q = line()
    res = hexagon_space()
    W = res.space
    net_xz = build_net(q, W, F(1, 8))
    net_xy = build_net(q, q, 2)
    values = [1 if p.matrix.entries[0][0] > 0 else 0 for p in net_xz.points]
    c = discrete_table(net_xz, values, 2)
    out = search_monochromatic(c, net_xz, net_xy, [res.leg_y, res.leg_z], F(1, 2))
    assert out is not None
    gamma, colour = out
    # independent re-check of the coverage condition
    for eta in net_xy.points:
        h = compose(gamma, eta)
        assert any(c(p) == colour and sup_distance(h, p) <= F(1, 2) for p in net_xz.points)


def test_colour_coverage_matches_the_separate_loops():
    """Discrete ``oscillation`` and ``search_monochromatic`` against their loops as
    they were (``oracles``), on seeded nets and random 1-3 colour table colourings."""
    rng = random.Random(0xC01)
    q = line()
    net_xy = build_net(q, q, 2)
    osc, found = set(), set()
    for _ in range(40):
        Y = MultiSpace((S(2, [(F(rng.choice([-2, -1, 1, 2])), F(rng.randint(-2, 2))), (1, 0), (0, 1)]),))
        net = build_net(q, Y, rng.choice([F(1, 2), F(1)]))
        colours = rng.randint(1, 3)
        c = discrete_table(net, [rng.randrange(colours) for _ in net.points], colours)
        eps = rng.choice([F(1, 4), F(1, 2), F(1)])
        got = oscillation(c, net.points, eps)
        assert got == oracles.discrete_oscillation(c, net.points, eps)
        osc.add(got)
        candidates = rng.sample(net.points, min(3, len(net.points)))
        got = search_monochromatic(c, net, net_xy, candidates, eps)
        assert got == oracles.search_monochromatic(c, net, net_xy, candidates, eps)
        found.add(got is None)
    assert osc == {0, 1} and found == {False, True}


def test_sampled_net_filters_non_embeddings():
    q = line()
    good = identity_map(q)
    bad = LinearMap(q, q, Matrix.from_rows([[2]]))
    net = sampled_net(q, q, [good, bad])
    assert len(net.points) == 1 and net.resolution is None


entries = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def net_inputs(draw):
    """A line with 1-2 levels (zero scales too) and a 1-3 dimensional space with as many or more."""
    X = line_space(*draw(st.lists(st.sampled_from([F(0), F(1), F(2), F(1, 2)]), min_size=1, max_size=2)))
    d = draw(st.integers(1, 3))
    nonzero = st.lists(entries, min_size=d, max_size=d).filter(any)
    levels = [S(d, draw(st.lists(nonzero, max_size=3))) for _ in range(draw(st.integers(X.length, 2)))]
    return X, MultiSpace.make(levels), draw(st.sampled_from([F(1), F(2)]))


def _net_or_empty(build, X, Y, eps):
    try:
        return build(X, Y, eps)
    except EmptyEmbeddingSet as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(net_inputs())
@example((line_space(1, 0), MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1)]))), F(1)))
@example((line_space(1), MultiSpace.make((S(3, [(1, 0, 0), (1, 2, 0)]),)), F(1)))
@example((line_space(1, 2), MultiSpace.make((S(3, [(1, 0, 0)]), S(3, [(2, 0, 0), (1, 1, 0)]))), F(2)))
@example((line_space(2, 1), MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1), (1, -1)]))), F(1)))
@example((line_space(0, 1), MultiSpace.make((S(2, [(1, 1)]), S(2, [(1, 0), (0, 1)]))), F(1)))
@example((line_space(1, 0), MultiSpace.make((S(2, [(1, 0), (1, 1)]), PolyhedralSeminorm.zero(2))), F(1, 2)))
@example((line_space(1, 1), MultiSpace.make((S(2, [(1, 0), (0, 1)]), PolyhedralSeminorm.zero(2))), F(1)))
def test_build_net_reads_every_face_off_one_polytope(case):
    """Multi-level lines, zero-target levels, levels with no functionals
    and nontrivial joint kernels included."""
    X, Y, eps = case
    calls = []
    real = ramsey.vertex_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ramsey, "vertex_rows", lambda *a: calls.append(1) or real(*a))
        got = _net_or_empty(build_net, X, Y, eps)
    assert got == _net_or_empty(oracles.per_face_build_net, X, Y, eps)
    assert len(calls) <= 1


def _columns_or_empty(X, Y, eps):
    """The image columns of ``build_net``'s points, or the message it raises."""
    try:
        return [tuple(r[0] for r in p.matrix.entries) for p in build_net(X, Y, eps).points]
    except EmptyEmbeddingSet as e:
        return str(e)


def test_sphere_points_are_the_net_columns_in_order():
    """Tower stages a sampled eta draws from (at most 40 functionals),
    random two- and three-dimensional spaces, the all-zero-target branch
    and both empty-set raises."""
    cases = []
    for seed in (3, 12345):
        tower = build_tower([line_space(1), line_space(2)], [0, F(1, 4)], 5, seed=seed, dim_cap=8)
        stages = [Y for Y in tower.stages if sum(len(s.functionals) for s in Y.seminorms) <= 40]
        assert len(stages) == 2
        cases += [(line_space(c), Y, F(2)) for Y in stages for c in (1, 2)]
    rng = random.Random(0x5EED)
    cases += [(line_space(rng.choice((1, 2))), random_space(rng, rng.randint(2, 3), 1), rng.choice((F(1), F(2))))
              for _ in range(24)]
    zero_target = (line_space(0), MultiSpace.make((S(2, [(1, 1)]),)), F(1))
    no_kernel = (line_space(0), linf2(), F(1))
    empty_sphere = (MultiSpace.make((S(1, [(1,)]), PolyhedralSeminorm.zero(1))),
                    MultiSpace.make((S(1, [(1,)]), S(1, [(1,)]))), F(1))
    cases += [zero_target, no_kernel, empty_sphere]
    outcomes = Counter()
    for X, Y, eps in cases:
        want = _columns_or_empty(X, Y, eps)
        outcomes[isinstance(want, str)] += 1
        try:
            got = sphere_points(X, Y, eps)
        except EmptyEmbeddingSet as e:
            got = str(e)
        assert got == want
    assert sphere_points(*zero_target) == [(F(1), F(-1)), (F(-1), F(1))]
    for case, msg in ((no_kernel, "no nonzero vector"), (empty_sphere, "sphere system has no solutions")):
        with pytest.raises(EmptyEmbeddingSet, match=msg):
            sphere_points(*case)
    assert outcomes[False] >= 20 and outcomes[True] >= 2
