import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from msn import _kernel
from msn.errors import DimensionMismatch, Infeasible, Unbounded
from msn.linalg import _scale_to_int, dot, vec
from msn.lp import _ball_rows, gauge_max, gauge_scale, solve_lp

from oracles import brute_lp_min, brute_vertices, expand_tableau, gauss_rank, piecewise_min_1d

F = Fraction


def test_absolute_value_epigraph():
    # minimise t subject to -t <= x <= t, x = 3
    res = solve_lp(
        [0, 1],
        [
            ((F(1), F(-1)), F(0)),   # x - t <= 0
            ((F(-1), F(-1)), F(0)),  # -x - t <= 0
            ((F(1), F(0)), F(3)),    # x <= 3
            ((F(-1), F(0)), F(-3)),  # -x <= -3
        ],
    )
    assert res.value == 3
    assert res.point[0] == 3


def test_simple_nonnegative_min():
    res = solve_lp([1], [((F(-1),), F(0))])
    assert res.value == 0


def test_piecewise_linear_epigraph_matches_breakpoint_oracle():
    # minimise |1-x| + |-1+x| + (1/2)|x| in epigraph form.
    pieces = [(F(-1), F(1)), (F(1), F(-1)), (F(1, 2), F(0))]
    expected, argmin = piecewise_min_1d(pieces)
    assert (expected, argmin) == (F(1, 2), F(1))
    # epigraph variables t1,t2,t3 for the three terms, variable x first
    cons = []
    for k, (a, b) in enumerate(pieces):
        for sgn in (1, -1):
            row = [F(0)] * 4
            row[0] = F(sgn) * a
            row[1 + k] = F(-1)
            cons.append((tuple(row), -F(sgn) * b))
    res = solve_lp([F(0), F(1), F(1), F(1)], cons)
    assert res.value == expected


def test_infeasible_and_unbounded_are_distinct():
    with pytest.raises(Infeasible):
        solve_lp([1], [((F(1),), F(0)), ((F(-1),), F(-1))])  # x<=0, x>=1
    with pytest.raises(Unbounded):
        solve_lp([1], [((F(1),), F(1))])  # x <= 1, min x unbounded


def test_active_set_reported():
    res = solve_lp([F(-1), F(-1)], [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1)),
                                    ((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))])
    assert res.point == (F(1), F(1))
    assert set(res.active) == {0, 1}


def _random_bounded_instance(rng, dim):
    # Box plus random cuts keeps the feasible set bounded and nonempty near 0.
    cons = []
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        cons.append((tuple(e), F(rng.randint(1, 4))))
        e2 = [F(0)] * dim
        e2[i] = F(-1)
        cons.append((tuple(e2), F(rng.randint(1, 4))))
    for _ in range(rng.randint(0, 3)):
        row = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        cons.append((row, F(rng.randint(0, 5))))
    obj = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
    return obj, cons


def test_lp_matches_vertex_enumeration_oracle():
    rng = random.Random(20240817)
    for trial in range(60):
        dim = rng.randint(1, 3)
        obj, cons = _random_bounded_instance(rng, dim)
        try:
            res = solve_lp(obj, cons)
        except Infeasible:
            continue
        assert brute_lp_min(obj, cons) == res.value
        assert dot(tuple(obj), res.point) == res.value
        for a, b in cons:
            assert dot(a, res.point) <= b


def _rows(vectors):
    """The integer ``(ints, m)`` rows ``gauge_scale`` and ``gauge_max`` take."""
    return [_scale_to_int(v) for v in vectors]


def _gauge(psi, funcs, cap=None):
    """sup psi . x over the ball of ``funcs`` by one ``solve_lp``, stopped past ``cap`` if given; None if unbounded."""
    pi, pm = _scale_to_int(psi)
    try:
        res = solve_lp([-x for x in pi], _ball_rows(_rows(funcs)), floor=None if cap is None else -cap * pm)
    except Unbounded:
        return None
    return -res.value / pm


def _capped(got, exact, cap):
    """A gauge read with a cap: ``exact`` up to the cap, past it a larger value or None."""
    if exact is not None and exact <= cap:
        assert got == exact, cap
    else:
        assert got is None or got > cap, cap
    return got != exact


def test_gauge_scale_matches_vertex_oracle():
    # The gauge LP without a floor is exact (the oracle's gauge, or None
    # outside the span).  With a floor -cap it returns the exact gauge when
    # that is at most the cap, and otherwise a value past the cap or None:
    # the LP may stop early.  gauge_scale is the cap 1.
    rng = random.Random(7103)
    spans = full = early = 0
    for _ in range(80):
        dim = rng.randint(1, 3)
        funcs = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
                 for _ in range(rng.randint(1, 5))]
        psi = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
        rank = gauss_rank(funcs)
        exact = _gauge(psi, funcs)
        if any(psi) and gauss_rank(funcs + [psi]) > rank:
            assert exact is None
            spans += 1
        elif rank == dim:
            ball = [(f, F(1)) for f in funcs] + [(tuple(-x for x in f), F(1)) for f in funcs]
            verts = brute_vertices(ball, dim)
            assert exact == max(dot(psi, v) for v in verts)
            full += 1
        early += _capped(gauge_scale(_scale_to_int(psi), _rows(funcs)), exact, 1)
        caps = [F(0), F(1, 2), F(3)]
        if exact is not None:
            caps += [exact, exact - F(1, 3), exact + F(1, 7)]
        early += sum(_capped(_gauge(psi, funcs, cap), exact, cap) for cap in caps)
        assert gauge_scale(_scale_to_int((F(0),) * dim), _rows(funcs)) == 0
        assert _gauge((F(0),) * dim, funcs, F(0)) == 0
    assert spans >= 10 and full >= 40 and early >= 100, (spans, full, early)
    assert gauge_scale(_scale_to_int((F(0), F(0))), []) == 0
    assert gauge_scale(_scale_to_int((F(1), F(0))), []) is None


def test_gauge_max_matches_gauge_scale_and_vertex_oracle():
    rng = random.Random(5581)
    unbounded = bounded = 0
    for _ in range(120):
        dim = rng.randint(1, 4)
        funcs = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
                 for _ in range(rng.randint(0, 6))]
        funcs = [f for f in funcs if any(f)]
        objs = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
                for _ in range(rng.randint(0, 5))]
        if objs and rng.random() < 0.2:
            objs.insert(rng.randrange(len(objs)), (F(0),) * dim)
        # max over objectives of the one-objective gauges; None if any is infinite
        singles = [_gauge(psi, funcs) for psi in objs]
        for psi, single in zip(_rows(objs), singles):
            _capped(gauge_scale(psi, _rows(funcs)), single, 1)
        want = None if None in singles else max(singles, default=F(0))
        value, point = gauge_max(_rows(objs), _rows(funcs))
        assert value == want
        if value is None:
            assert point is None
            unbounded += 1
            continue
        bounded += 1
        assert len(point) == dim if funcs or objs else point == ()
        assert all(abs(dot(f, point)) <= 1 for f in funcs)
        assert max((dot(psi, point) for psi in objs), default=F(0)) == value
        if funcs and gauss_rank(funcs) == dim and objs:
            ball = [(f, F(1)) for f in funcs] + [(tuple(-x for x in f), F(1)) for f in funcs]
            verts = brute_vertices(ball, dim)
            assert value == max(dot(psi, v) for psi in objs for v in verts)
    assert unbounded >= 20 and bounded >= 40, (unbounded, bounded)
    assert gauge_max([], []) == (0, ())
    assert gauge_max(_rows([(F(0), F(0))]), []) == (0, (0, 0))
    assert gauge_max(_rows([(F(1), F(0))]), []) == (None, None)
    # psi escapes the span of the functionals (it is nonzero on their kernel)
    assert gauge_max(_rows([(F(1), F(1)), (F(0), F(1))]), _rows([(F(1), F(0))])) == (None, None)
    with pytest.raises(DimensionMismatch):
        gauge_max(_rows([(F(1),)]), _rows([(F(1), F(0))]))


def test_gauge_max_tableau_is_the_one_the_fractions_give(monkeypatch):
    # Integer input must not change a single tableau entry: the slack rows
    # are each functional f times the lcm of its denominators, then -f,
    # in input order, and the cost row is -psi times its own lcm.  The
    # one-objective gauge_scale, through solve_lp, hands bland_min the
    # same tableau.  It is compressed: one stored row f . x <= m per pair,
    # the row -f . x <= m (its twin) None, and one column per coordinate
    # (u_j; v_j mirrors it).  Written out, with its nonbasic columns, it
    # is the condensed tableau that held every row and column.
    seen, full = [], []
    real = _kernel.bland_min

    def record(tab, den, basis, cols, mates, *rest):
        seen.append([r if r is None else r[:] for r in tab])
        full.append([[x for v, x in enumerate(row[:-1]) if v not in basis] + row[-1:]
                     for row in expand_tableau(tab, den, basis, cols, mates)])
        return real(tab, den, basis, cols, mates, *rest)

    monkeypatch.setattr(_kernel, "bland_min", record)

    def scaled(v):
        m = lcm(*[x.denominator for x in v])
        return [int(x * m) for x in v], m

    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        funcs = [tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim))
                 for _ in range(rng.randint(1, 4))]
        funcs = [f for f in funcs if any(f)]
        objs = [tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim)) for _ in range(3)]
        slack, stored = [], []
        for f in funcs:
            ia, m = scaled(f)
            neg = [-x for x in ia]
            slack += [ia + neg + [m], neg + ia + [m]]
            stored += [ia + [m], None]
        expect = [slack + [[-x for x in pi] + pi + [0]] for pi, _ in map(scaled, objs)]
        compressed = [stored + [[-x for x in pi] + [0]] for pi, _ in map(scaled, objs)]
        seen.clear()
        full.clear()
        gauge_max(_rows(objs), _rows(funcs))
        assert seen == compressed[:len(seen)]
        assert full == expect[:len(seen)]
        checked += len(seen)
        for psi, want, want_full in zip(_rows(objs), compressed, expect):
            seen.clear()
            full.clear()
            gauge_scale(psi, _rows(funcs))
            assert seen == [want]
            assert full == [want_full]
            checked += len(seen)
    assert checked >= 120, checked


# --- golden records ---------------------------------------------------
#
# ``lp_golden.json`` holds the exact outcome of ``solve_lp`` on the seeded
# instances below, recorded with the Fraction-based solver that preceded
# the integer-native result read-out.  A change to the reported point,
# value or active set shows up here, and so does a change to the pivot
# rules: on the degenerate instances the point depends on every pivot
# choice.  Regenerate only when a change is meant to alter results:
#
#     PYTHONPATH=src:tests python -c "import test_lp; test_lp.write_golden()"

GOLDEN = Path(__file__).with_name("lp_golden.json")
GOLDEN_KINDS = ("bounded", "phase1", "degenerate", "redundant", "infeasible", "unbounded", "ints")


def _q(rng, lo=-4, hi=4, dens=(1, 2, 3, 5, 6)):
    return F(rng.randint(lo, hi), rng.choice(dens))


def _qvec(rng, dim, **kw):
    return tuple(_q(rng, **kw) for _ in range(dim))


def _box(rng, p):
    """Bounds l_i <= x_i <= u_i around p; l_i > 0 gives a negative rhs."""
    cons = []
    for i, pi in enumerate(p):
        e = [F(0)] * len(p)
        e[i] = F(1)
        cons.append((tuple(e), pi + _q(rng, 0, 3)))
        cons.append((tuple(-x for x in e), -(pi - _q(rng, 0, 3))))
    return cons


def _golden_instance(rng, kind):
    dim = rng.randint(1, 4)
    p = _qvec(rng, dim, lo=-3, hi=3)
    obj = list(_qvec(rng, dim))
    if kind == "bounded":
        # Box plus cuts with mixed denominators; optimal or infeasible.
        cons = _box(rng, p)
        cons += [(_qvec(rng, dim), _q(rng, -3, 3)) for _ in range(rng.randint(0, 4))]
    elif kind == "phase1":
        # Rows through or near a known point; many negative right-hand
        # sides and degenerate vertices, always feasible and bounded.
        cons = []
        for _ in range(rng.randint(1, 5)):
            a = _qvec(rng, dim)
            cons.append((a, dot(a, p) + rng.choice((F(0), F(0), F(1, 2), F(2)))))
        cons += _box(rng, p)
        rng.shuffle(cons)
    elif kind == "degenerate":
        # Many rows tight at one vertex and an objective that is zero or
        # parallel to a row: ratio-test ties and whole optimal faces, so
        # the reported point depends on every pivot choice.
        cons = []
        for _ in range(rng.randint(dim + 1, dim + 4)):
            a = _qvec(rng, dim, lo=-2, hi=2)
            cons.append((a, dot(a, p)))
        cons += _box(rng, p)
        rng.shuffle(cons)
        obj = [F(0)] * dim if rng.random() < 0.4 else [-x for x in rng.choice(cons)[0]]
    elif kind == "redundant":
        # Equalities as opposite row pairs, exact and scaled duplicates and
        # a sum of two rows: dependent rows leave artificial variables basic
        # at zero after phase 1, to be pivoted out.
        cons = []
        eqs = [_qvec(rng, dim) for _ in range(rng.randint(1, dim))]
        for a in eqs:
            b = dot(a, p)
            cons.append((a, b))
            cons.append((tuple(-x for x in a), -b))
            if rng.random() < 0.7:
                cons.append((a, b))
            if rng.random() < 0.5:
                s = rng.choice((F(2), F(1, 3), F(-1)))
                cons.append((tuple(s * x for x in a), s * b))
        if len(eqs) > 1:
            a = tuple(x + y for x, y in zip(eqs[0], eqs[1]))
            cons.append((a, dot(a, p)))
        if rng.random() < 0.6:
            cons += _box(rng, p)
        rng.shuffle(cons)
    elif kind == "infeasible":
        # A row and a strictly contradicting opposite row among others.
        cons = _box(rng, p) if rng.random() < 0.5 else []
        a = _qvec(rng, dim)
        if all(x == 0 for x in a):
            a = (F(1),) + a[1:]
        b = _q(rng, -3, 3)
        cons += [(a, b), (tuple(-x for x in a), -b - _q(rng, 1, 3))]
        cons += [(_qvec(rng, dim), dot(p, p)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(cons)
    elif kind == "unbounded":
        # Few rows, no box: usually unbounded, sometimes optimal.
        cons = []
        for _ in range(rng.randint(0, dim)):
            a = _qvec(rng, dim)
            cons.append((a, dot(a, p) + _q(rng, 0, 2)))
    else:
        # Python ints, or ints mixed with Fractions, as inputs.
        pi = [rng.randint(-3, 3) for _ in range(dim)]
        obj = [rng.randint(-3, 3) for _ in range(dim)]
        cons = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            cons.append((e, pi[i] + rng.randint(0, 2)))
            cons.append(([-x for x in e], -pi[i] + rng.randint(-1, 2)))
        for _ in range(rng.randint(0, 3)):
            a = [rng.randint(-3, 3) for _ in range(dim)]
            if rng.random() < 0.5:
                a[0] = F(a[0], rng.choice((1, 2, 4)))
            cons.append((a, sum(x * y for x, y in zip(a, pi)) + rng.randint(-1, 2)))
    return obj, cons


def golden_instances():
    rng = random.Random(0x601D)
    out = [(kind, *_golden_instance(rng, kind)) for _ in range(100) for kind in GOLDEN_KINDS]
    # Degenerate shapes: no variables, no rows, zero objective.
    out += [
        ("edge", [], [((), F(1)), ((), 0)]),
        ("edge", [], [((), F(-1))]),
        ("edge", [], []),
        ("edge", [F(1), F(0)], []),
        ("edge", [0, 0], []),
        ("edge", [F(0)], [((F(1),), F(-1)), ((F(-1),), F(2))]),
        ("edge", [F(0), F(0)], [((F(1), F(1)), F(-2)), ((F(-1), F(-1)), F(2))]),
    ]
    return out


def _outcome(objective, constraints):
    """``(result, record)`` of one solve; the result is None on a raise."""
    try:
        res = solve_lp(objective, constraints)
    except (Infeasible, Unbounded) as e:
        return None, type(e).__name__
    return res, [str(res.value), [str(x) for x in res.point], list(res.active)]


def write_golden():
    recs = [_outcome(obj, cons)[1] for _, obj, cons in golden_instances()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in recs) + "\n]\n")


def test_golden_outcomes_and_exact_invariants():
    instances = golden_instances()
    recorded = json.loads(GOLDEN.read_text())
    assert len(recorded) == len(instances) >= 500
    seen = Counter()
    for (kind, obj, cons), want in zip(instances, recorded, strict=True):
        res, got = _outcome(obj, cons)
        assert got == want, (kind, obj, cons)
        seen[got if res is None else "optimal"] += 1
        if res is None:
            continue
        assert isinstance(res.value, Fraction) and isinstance(res.active, tuple)
        assert all(isinstance(x, Fraction) for x in res.point)
        assert res.value == dot(vec(obj), res.point)
        slack = [b - dot(vec(a), res.point) for a, b in cons]
        assert all(s >= 0 for s in slack)
        assert res.active == tuple(i for i, s in enumerate(slack) if s == 0)
    assert min(seen["optimal"], seen["Infeasible"], seen["Unbounded"]) >= 100, seen


def test_floor_stops_below_it_and_changes_nothing_above_it():
    # On the golden instances, with floors around the optimum: an optimum
    # at or above the floor is the unfloored result, field for field, and
    # otherwise the result is a feasible basis strictly below the floor,
    # with its value, point and active set exact.  An unbounded objective
    # stops below the floor or is still found unbounded.
    stopped = same = 0
    for kind, obj, cons in golden_instances():
        res, _ = _outcome(obj, cons)
        if res is None:
            if kind == "unbounded":
                for floor in (F(-3, 2), F(0), F(7, 3)):
                    try:
                        got = solve_lp(obj, cons, floor=floor)
                    except Unbounded:
                        continue
                    assert got.value < floor and got.value == dot(vec(obj), got.point)
                    stopped += 1
            continue
        for floor in (res.value, res.value + F(1, 3), res.value - F(1, 2), F(0)):
            got = solve_lp(obj, cons, floor=floor)
            if res.value >= floor:
                assert (got.value, got.point, got.active) == (res.value, res.point, res.active)
                same += 1
                continue
            assert got.value < floor and got.value == dot(vec(obj), got.point)
            slack = [b - dot(vec(a), got.point) for a, b in cons]
            assert all(s >= 0 for s in slack)
            assert got.active == tuple(i for i, s in enumerate(slack) if s == 0)
            stopped += 1
    assert stopped >= 300 and same >= 500, (stopped, same)
