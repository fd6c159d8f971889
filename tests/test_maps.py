import random
from collections import Counter
from fractions import Fraction

import pytest

from msn import _kernel, io, maps
from msn.amalgam import pushout
from msn.errors import BadLevel
from msn.linalg import Matrix, _scale_to_int, in_span, inverse
from msn.lp import gauge_max
from msn.maps import (
    LinearMap,
    _is_identity_on_level,
    bm_upper_bound,
    build_iso_from_invariant,
    compose,
    distortion,
    identity_map,
    is_embedding,
    map_distance,
    lower_constant,
    lower_witness,
    map_sub,
    operator_seminorm,
    sup_distance,
    upper_witness,
)
from msn.seminorms import PolyhedralSeminorm, _pullbacks, seminorm_kernel
from msn.spaces import MultiSpace, invariant_alpha, line_space, trivial_space
from msn.tower import build_tower

from genhelpers import block_embedding_triple, image_space, random_invertible
from oracles import fraction_pullbacks

F = Fraction
S = PolyhedralSeminorm.from_functionals


def linf2():
    return MultiSpace.make((S(2, [(1, 0), (0, 1)]),))


def test_operator_seminorm_examples():
    q = line_space(1)
    two = LinearMap(q, q, Matrix.from_rows([[2]]))
    assert operator_seminorm(two, 0) == 2

    proj2 = LinearMap(MultiSpace.make((S(2, [(1, 0)]),)), q, Matrix.from_rows([[0, 1]]))
    assert operator_seminorm(proj2, 0) is None

    summ = LinearMap(linf2(), q, Matrix.from_rows([[1, 1]]))
    assert operator_seminorm(summ, 0) == 2


def test_distortion_examples():
    q = line_space(1)
    into = LinearMap(q, linf2(), Matrix.from_rows([[1], [1]]))
    rep = distortion(into)
    assert rep.minimal_delta == 0 and rep.injective

    two = LinearMap(q, q, Matrix.from_rows([[2]]))
    assert distortion(two).minimal_delta == 1

    degenerate = MultiSpace.make((S(2, [(0, 1)]),))
    into_kernel = LinearMap(q, degenerate, Matrix.from_rows([[1], [0]]))
    rep = distortion(into_kernel)
    assert rep.per_level[0][1] == 0 and rep.minimal_delta is None


def test_is_embedding_examples():
    q = line_space(1)
    ok, _ = is_embedding(identity_map(q), 0)
    assert ok
    two = LinearMap(q, q, Matrix.from_rows([[2]]))
    bad, wit = is_embedding(two, F(1, 2))
    assert not bad and wit["kind"] == "upper" and wit["level"] == 0
    good, _ = is_embedding(two, 1)
    assert good


def test_embedding_witness_kinds():
    q = line_space(1)
    degenerate = MultiSpace.make((S(2, [(0, 1)]),))
    into_kernel = LinearMap(q, degenerate, Matrix.from_rows([[1], [0]]))
    ok, wit = is_embedding(into_kernel, 0)
    assert not ok and wit["kind"] == "lower"
    # the witness is a unit vector whose image has small seminorm
    x = wit["vector"]
    assert q.eval(0, x) == 1 and degenerate.eval(0, into_kernel(x)) == 0

    proj = LinearMap(MultiSpace.make((S(2, [(1, 0)]),)), q, Matrix.from_rows([[0, 1]]))
    ok, wit = is_embedding(proj, 0)
    assert not ok and wit["kind"] in ("upper", "injectivity")


def test_map_distance_examples():
    q = line_space(1)
    i = identity_map(q)
    neg = LinearMap(q, q, Matrix.from_rows([[-1]]))
    assert map_distance(i, i, 0) == 0
    assert map_distance(i, neg, 0) == 2
    # sup_distance is the largest level distance, None when one is unbounded
    Y = line_space(1, 3)
    for X, want in ((line_space(1, 1), F(6)), (MultiSpace((S(1, [(1,)]), S(1, []))), None)):
        f = LinearMap(X, Y, Matrix.from_rows([[1]]))
        g = LinearMap(X, Y, Matrix.from_rows([[-1]]))
        assert map_distance(f, g, 0) == 2
        assert map_distance(f, g, 1) == want and sup_distance(f, g) == want


def test_map_distance_pseudometric_random():
    rng = random.Random(21)
    X = linf2()
    for _ in range(20):
        ms = [Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]) for _ in range(3)]
        f, g, h = (LinearMap(X, X, m) for m in ms)
        dfg = map_distance(f, g, 0)
        assert dfg == map_distance(g, f, 0)
        assert dfg <= map_distance(f, h, 0) + map_distance(h, g, 0)


def test_build_iso_identity_and_swap():
    X = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)])))
    h = build_iso_from_invariant(X, X)
    assert h is not None
    Y = MultiSpace.make((S(2, [(0, 1)]), S(2, [(1, 0)])))
    h2 = build_iso_from_invariant(X, Y)
    assert h2 is not None
    for k in range(2):
        kx = seminorm_kernel(X.seminorms[k])
        ky = seminorm_kernel(Y.seminorms[k])
        for v in kx:
            assert in_span(ky, h2(v))


def test_build_iso_refuses_differing_invariants():
    X = MultiSpace.make((S(2, [(1, 0)]), S(2, [(0, 1)])))  # separated
    Y = MultiSpace.make((S(2, [(1, 0)]), S(2, [(1, 0)])))  # not separated
    assert build_iso_from_invariant(X, Y) is None


def test_bm_upper_bound_examples():
    X = linf2()
    assert bm_upper_bound(X, X) == 1
    q = line_space(1)
    q2 = line_space(2)
    assert bm_upper_bound(q, q2) == 1
    Y = MultiSpace.make((S(2, [(1, 0)]),))  # same length, kernel dims differ
    assert bm_upper_bound(X, Y) is None


def test_minimal_delta_zero_iff_embedding_at_zero():
    rng = random.Random(33)
    q = line_space(1)
    X = linf2()
    for _ in range(20):
        m = Matrix.from_rows([[F(rng.randint(-2, 2))], [F(rng.randint(-2, 2))]])
        f = LinearMap(q, X, m)
        rep = distortion(f)
        emb, _ = is_embedding(f, 0)
        assert emb == (rep.minimal_delta == 0 and rep.injective)


def test_rescaled_embedding_arithmetic():
    # a delta-embedding against a 1/(1+delta)-rescaled domain becomes
    # expansive with distortion at most 2*delta + delta^2
    delta = F(1, 2)
    dom = line_space(Fraction(1, 1 + delta))
    f = LinearMap(dom, line_space(1), Matrix.from_rows([[1]]))
    rep = distortion(f)
    up, lo = rep.per_level[0]
    assert lo >= 1
    assert up == F(3, 2) <= 1 + 2 * delta + delta * delta


def _random_space(rng, dim, lam):
    sems = []
    for _ in range(lam):
        funcs = []
        for _ in range(rng.randint(0, 3)):
            f = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(v != 0 for v in f):
                funcs.append(f)
        sems.append(S(dim, funcs) if funcs else PolyhedralSeminorm.zero(dim))
    return MultiSpace(tuple(sems))


def _image_space(X, T):
    Tinv = inverse(T)
    sems = []
    for s in X.seminorms:
        funcs = [tuple(Tinv.transpose().apply(f)) for f in s.functionals]
        funcs = [f for f in funcs if any(v != 0 for v in f)]
        sems.append(S(X.dim, funcs) if funcs else PolyhedralSeminorm.zero(X.dim))
    return MultiSpace(tuple(sems))


def test_build_iso_succeeds_on_isomorphic_images():
    rng = random.Random(101)
    built = 0
    for _ in range(25):
        dim, lam = rng.randint(1, 3), rng.randint(1, 3)
        X = _random_space(rng, dim, lam)
        while True:
            T = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
            if dim == 0 or T.rank() == dim:
                break
        Y = _image_space(X, T)
        assert invariant_alpha(X).entries == invariant_alpha(Y).entries
        h = build_iso_from_invariant(X, Y)
        assert h is not None
        built += 1
        # kernel-intersection images match exactly at every level
        for k in range(lam):
            for v in seminorm_kernel(X.seminorms[k]):
                assert in_span(seminorm_kernel(Y.seminorms[k]), h(v))
        assert bm_upper_bound(X, Y) >= 1
    assert built == 25


def _raw_functionals(rng, dim, count):
    """A hand-written-style list: some members are midpoints or scaled copies."""
    funcs = []
    while len(funcs) < count:
        r = rng.random()
        if len(funcs) >= 2 and r < 0.25:
            a, b = rng.sample(funcs, 2)
            f = tuple((x + y) / 2 for x, y in zip(a, b))
        elif funcs and r < 0.35:
            f = tuple(-x / rng.randint(1, 3) for x in rng.choice(funcs))
        else:
            f = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
        if any(f):
            funcs.append(f)
    return funcs


def _level_maps():
    """(map, level) pairs: certify-style maps, pushout legs and their inputs,
    and rank-deficient maps with mixed denominators."""
    rng = random.Random(4242)
    out = []
    for trial in range(24):
        dim, lam = rng.randint(3, 4), rng.randint(1, 2)
        X = MultiSpace(tuple(S(dim, _raw_functionals(rng, dim, rng.randint(4, 9))) for _ in range(lam)))
        T = random_invertible(rng, dim)
        delta = F(trial % 3, 4)
        out += [(LinearMap(X, image_space(X, T), T.scale(1 + delta)), m) for m in range(lam)]
        # a domain with a kernel, so that some sups are infinite
        W = MultiSpace(tuple(S(dim, _raw_functionals(rng, dim, rng.randint(1, 3))) for _ in range(lam)))
        Y = MultiSpace(tuple(S(dim, _raw_functionals(rng, dim, rng.randint(2, 6))) for _ in range(lam)))
        M = Matrix.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 3)) * rng.randint(0, 1)
                               for _ in range(dim)] for _ in range(dim)])
        out += [(LinearMap(W, Y, M), m) for m in range(lam)]
    for trial in range(12):
        delta = F(trial % 2, 4)
        X, Y, Z, f, g = block_embedding_triple(rng, rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1),
                                               1, 2, 2, delta=delta)
        res = pushout(X, Y, Z, f, g, delta, F(1, 8))
        out += [(h, m) for h in (f, g, res.leg_y, res.leg_z) for m in range(h.domain.length)]
    return out


def _tower_maps():
    """(map, level) pairs into the dimension-8 stages of the seed-3 and
    seed-12345 towers: every map ``verify_tower`` checks there that reaches
    only some of the 8 coordinates (members, chains, discharge maps and
    certificate differences), a dense map and a map out of the zero space."""
    out = {}
    for seed in (3, 12345):
        t = build_tower([line_space(1), line_space(2)], [0, F(1, 4)], 5, seed=seed, dim_cap=8)
        found = [e for es in t.member_embeddings for e in es] + [r.j_map for r in t.discharges]
        found += [map_sub(compose(t.links[r.stage], r.gamma), compose(r.j_map, r.eta)) for r in t.discharges]
        for m in range(len(t.stages)):
            chain = identity_map(t.stages[m])
            for n in range(m + 1, len(t.stages)):
                chain = compose(t.links[n - 1], chain)
                found.append(chain)
        for f in found:
            if f.codomain.dim == 8 and not all(map(any, f.matrix.entries)):
                out[f] = None
    Y = t.stages[-1]
    dense = Matrix.from_rows([[F((-1) ** i * (i + 1), j + 2) + j for j in range(2)] for i in range(8)])
    out[LinearMap(t.stages[0], Y, dense)] = None
    out[LinearMap(trivial_space(1), Y, Matrix.zero(8, 0))] = None
    return [(f, m) for f in out for m in range(f.domain.length)]


def _rows(vectors):
    """The integer ``(ints, m)`` rows ``gauge_max`` takes."""
    return [_scale_to_int(v) for v in vectors]


def test_pullbacks_match_fraction_oracle_and_gauges():
    """Certify-style maps and pushout legs, and the tower maps into a
    dimension-8 stage that reach 0, 1, 2, 4 or all 8 coordinates."""
    tower = _tower_maps()
    supports = Counter(sum(map(any, f.matrix.entries)) for f, _ in tower)
    assert set(supports) == {0, 1, 2, 4, 8}, supports
    escapes = 0
    for f, m in _level_maps() + tower:
        rows = _pullbacks(f.codomain.seminorms[m], f.matrix)
        pulled = tuple(tuple(F(x, s) for x in ints) for ints, s in rows)
        assert pulled == fraction_pullbacks(f.matrix.entries, f.codomain.seminorms[m].functionals)
        # the rows are the lowest-terms scaling of the Fraction pullbacks
        assert rows == [(tuple(ia), s) for ia, s in _rows(pulled)]
        dom = f.domain.seminorms[m].functionals
        ups = [gauge_max([psi], _rows(dom))[0] for psi in _rows(pulled)]
        assert operator_seminorm(f, m) == (None if None in ups else max(ups, default=F(0)))
        if dom:
            downs = [gauge_max([phi], _rows(pulled))[0] for phi in _rows(dom)]
            assert lower_constant(f, m) == (F(0) if None in downs else 1 / max(downs))
        escapes += None in ups
    assert escapes >= 10, escapes


def test_upper_witness_attains_operator_seminorm():
    finite = 0
    for f, m in _level_maps():
        w = upper_witness(f, m)
        up = operator_seminorm(f, m)
        if up is None:
            # a kernel vector whose image is not in the kernel
            assert f.domain.eval(m, w) == 0 and f.codomain.eval(m, f(w)) != 0
            continue
        assert f.domain.eval(m, w) <= 1
        assert f.codomain.eval(m, f(w)) == up
        finite += 1
    assert finite >= 60, finite


def test_lower_witness_attains_lower_constant():
    seen = Counter()
    for f, m in _level_maps():
        w = lower_witness(f, m)
        lo = lower_constant(f, m)
        if lo is None:
            # a vacuous level: no unit sphere
            assert w == (F(0),) * f.domain.dim
            seen["vacuous"] += 1
            continue
        assert f.domain.eval(m, w) == 1
        assert f.codomain.eval(m, f(w)) == lo
        seen["escape" if lo == 0 else "finite"] += 1
    assert seen["finite"] >= 60 and seen["escape"] >= 5 and seen["vacuous"] >= 1, seen


def _space_doc(dim, levels):
    """A space file's document with the functional lists as written, not reduced."""
    return io.space_to_doc(MultiSpace(tuple(PolyhedralSeminorm(dim, tuple((tuple(ia), s) for ia, s in _rows(lev)))
                                            for lev in levels)))


def _certify_maps():
    """Certify-shaped maps ``T (1 + delta)`` from a space into its T-image.

    Also with extra functionals on either side, so that a level mixes
    rows parallel to the other side's with rows that are not, and from a
    domain of more than ``io.REDUCE_LOAD_LIMIT`` functionals loaded
    unreduced, into its reduced and its unreduced image.
    """
    rng = random.Random(1515)
    out = []
    for trial in range(12):
        dim, lam = rng.randint(2, 3), rng.randint(1, 3)
        levels = [_raw_functionals(rng, dim, rng.randint(2, 7)) for _ in range(lam)]
        more = [lev + _raw_functionals(rng, dim, rng.randint(1, 2)) for lev in levels]
        T = random_invertible(rng, dim)
        M = T.scale(1 + F(trial % 4, 8))
        X, Xm = (MultiSpace(tuple(S(dim, lev) for lev in ls)) for ls in (levels, more))
        out += [LinearMap(X, image_space(X, T), M), LinearMap(X, image_space(Xm, T), M),
                LinearMap(Xm, image_space(X, T), M)]
    dim = 3
    raw = _raw_functionals(rng, dim, io.REDUCE_LOAD_LIMIT + 6)
    big = io.space_from_doc(_space_doc(dim, [raw]))
    assert len(big.seminorms[0].functionals) > 2 * len(S(dim, raw).functionals)
    T = random_invertible(rng, dim)
    image = [[tuple(inverse(T).transpose().apply(f)) for f in raw]]
    for Y in (image_space(big, T), io.space_from_doc(_space_doc(dim, image))):
        out += [LinearMap(big, Y, T.scale(1 + F(k, 8))) for k in (0, 2)]
    return out


def _pass_maps():
    """Whole maps: the level maps, identity maps, maps with identity and zero
    levels, and certify-shaped maps."""
    out = list({id(f): f for f, _ in _level_maps()}.values())
    out += [identity_map(f.domain) for f in out[:8]]
    a, b = S(2, [(1, 0), (F(1, 2), 1)]), S(2, [(1, 1), (F(1, 3), -1)])
    zero = PolyhedralSeminorm.zero(2)
    eye, shear = Matrix.identity(2), Matrix.from_rows([[1, F(1, 2)], [0, 1]])
    spaces = [MultiSpace((a, b)), MultiSpace((a, a)), MultiSpace((zero, b)), MultiSpace((zero, zero))]
    out += [LinearMap(X, Y, M) for X in spaces for Y in spaces for M in (eye, shear)]
    return out + _certify_maps()


def _one_by_one(f, delta):
    """``is_embedding(f, delta)`` from the one-level functions, and the
    levels it pulls back: those it checks, less the identity ones."""
    if not f.is_injective():
        return (False, {"kind": "injectivity"}), []
    pulled = []
    for m in range(f.domain.length):
        if not _is_identity_on_level(f, m):
            pulled.append(m)
        up = operator_seminorm(f, m)
        if up is None or up > 1 + delta:
            return (False, {"kind": "upper", "level": m, "vector": upper_witness(f, m)}), pulled
        lo = lower_constant(f, m)
        if lo is not None and lo < 1 / (1 + delta):
            return (False, {"kind": "lower", "level": m, "vector": lower_witness(f, m)}), pulled
    return (True, {}), pulled


def test_level_check_pulls_back_once_per_level_and_distortion_matches_one_level_functions(monkeypatch):
    calls = []
    real = maps._pullbacks
    monkeypatch.setattr(maps, "_pullbacks", lambda s, mat: calls.append(s) or real(s, mat))
    seen = Counter()
    for f in _pass_maps():
        levels = range(f.domain.length)
        seen["identity levels"] += sum(_is_identity_on_level(f, m) for m in levels)
        seen["zero levels"] += sum(f.domain.seminorms[m].is_zero() for m in levels)
        for delta in (F(0), F(1, 8), F(1, 4), F(1, 2)):
            want, pulled = _one_by_one(f, delta)
            calls.clear()
            assert is_embedding(f, delta) == want
            assert calls == [f.codomain.seminorms[m] for m in pulled]
            kind = want[1].get("kind", "embedding")
            seen[kind] += 1
            if kind == "upper" and operator_seminorm(f, want[1]["level"]) is None:
                seen["kernel escape"] += 1
        rep = distortion(f)
        assert rep.per_level == tuple((operator_seminorm(f, m), lower_constant(f, m)) for m in levels)
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_level_check_certifies_parallel_rows_and_agrees_with_one_level_functions(monkeypatch):
    """Each check settles its rows by certificates alone, by certificates and
    LPs, or by LPs alone; every way gives the one-level functions' verdict and witness."""
    sides = []
    real = maps._uncertified

    def uncertified(rows, ball, hi):
        rest = real(rows, ball, hi)
        sides.append((len(rows) - len(rest), len(rest)))
        return rest

    monkeypatch.setattr(maps, "_uncertified", uncertified)
    seen = Counter()
    for f in _pass_maps():
        for delta in (F(0), F(1, 8), F(1, 4), F(1, 2)):
            sides.clear()
            got = is_embedding(f, delta)
            assert got == _one_by_one(f, delta)[0]
            certified, solved = map(sum, zip(*sides)) if sides else (0, 0)
            path = "LPs" if not certified else "both" if solved else "certificates"
            seen[path, got[1].get("kind", "embedding")] += certified + solved > 0
    for path in ("certificates", "both", "LPs"):
        assert sum(v for (p, _), v in seen.items() if p == path) >= 10, seen
    assert seen["both", "upper"] and seen["both", "lower"] and seen["LPs", "embedding"], seen


def test_certify_accept_check_solves_no_lp(monkeypatch):
    """The accept check of a certify-shaped map file certifies every row in integers."""
    rng = random.Random(15)
    calls = []
    real = _kernel.bland_min
    monkeypatch.setattr(_kernel, "bland_min", lambda *a: calls.append(1) or real(*a))
    for trial in range(12):
        dim, delta = rng.randint(3, 5), F(trial % 2, 4)
        levels = [_raw_functionals(rng, dim, rng.randint(6, 16)) for _ in range(rng.randint(1, 3))]
        T = random_invertible(rng, dim)
        back = inverse(T).transpose()
        f = io.map_from_doc({"format": io.FORMAT, "domain": _space_doc(dim, levels),
                             "codomain": _space_doc(dim, [[back.apply(v) for v in lev] for lev in levels]),
                             "matrix": io.matrix_to_doc(T.scale(1 + delta))})
        calls.clear()
        assert is_embedding(f, delta) == (True, {})
        assert not calls
        if delta:
            ok, wit = is_embedding(f, delta / 2)
            assert not ok and wit["kind"] == "upper" and calls


def test_identity_level_test_matches_the_identity_matrix():
    """``_is_identity_on_level`` against the comparison with
    ``Matrix.identity`` it replaced, on square and non-square matrices."""
    rng = random.Random(0x1D)
    X = MultiSpace.make((S(2, [(1, 0), (0, 1)]), S(2, [(1, 1)])))
    matrices = [Matrix.identity(2), Matrix.from_rows([[1, 0], [0, 1], [0, 0]]), Matrix.from_rows([[1, 0]]),
                Matrix.from_rows([[0, 1], [1, 0]]), Matrix.from_rows([[1, 0], [0, 2]]), Matrix.zero(2, 2),
                Matrix.from_rows([[1, F(1, 2)], [0, 1]])]
    matrices += [Matrix.from_rows([[rng.choice((0, 0, 1, 1, -1)) for _ in range(2)] for _ in range(rows)], 2)
                 for rows in (1, 2, 2, 2, 3) for _ in range(20)]
    seen = Counter()
    for M in matrices:
        for Y in (X, MultiSpace.make((X.seminorms[0], X.seminorms[0])), MultiSpace.make((S(M.rows, []),) * 2)):
            if Y.dim != M.rows:
                continue
            f = LinearMap(X, Y, M)
            for m in range(2):
                want = M.entries == Matrix.identity(2).entries and X.seminorms[m] == Y.seminorms[m]
                assert _is_identity_on_level(f, m) == want
                seen[want] += 1
    Z = trivial_space(1)
    for M in (Matrix.zero(0, 0), Matrix.zero(2, 0)):
        Y = MultiSpace.make((S(M.rows, []),))
        assert _is_identity_on_level(LinearMap(Z, Y, M), 0) == (M.rows == 0)
    assert seen[True] >= 3 and seen[False] >= 100


def test_maps_out_of_the_zero_space():
    triv = trivial_space(1)
    Y = linf2()
    f = LinearMap(triv, Y, Matrix.zero(Y.dim, 0))
    assert f(()) == (F(0), F(0))
    assert is_embedding(f, 0) == (True, {})
    g = LinearMap(Y, line_space(1), Matrix.from_rows([[1, 2]]))
    gf = compose(g, f)
    assert gf.domain == triv and gf.matrix == Matrix.zero(1, 0)
    assert gf(()) == (F(0),)
    # into the zero space and back: the zero map of Y, a 2x0 times 0x2 product
    h = LinearMap(Y, triv, Matrix.zero(0, Y.dim))
    fh = compose(f, h)
    assert fh.matrix == Matrix.zero(2, 2)
    assert fh((F(1), F(-3))) == (F(0), F(0))
    assert compose(h, f).matrix == Matrix.zero(0, 0)
    assert bm_upper_bound(triv, triv) == 1


def test_one_level_functions_reject_levels_outside_the_domain():
    # X has levels 0 and 1; Y has a level 2, so an unchecked level -1 would
    # read X's level 1 against Y's level 2, and level 2 would overrun X.
    f = LinearMap(line_space(1, 2), line_space(1, 3, 5), Matrix.from_rows([[1]]))
    for fn in (operator_seminorm, lower_constant, upper_witness, lower_witness):
        for m in (-1, 2):
            with pytest.raises(BadLevel):
                fn(f, m)
        fn(f, 1)
