import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from msn.errors import Infeasible, Unbounded
from msn.linalg import dot, vec
from msn.lp import gauge_scale, solve_lp

from oracles import brute_lp_min, brute_vertices, gauss_rank, piecewise_min_1d

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


def test_gauge_scale_matches_vertex_oracle():
    rng = random.Random(7103)
    spans = full = 0
    for _ in range(80):
        dim = rng.randint(1, 3)
        funcs = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
                 for _ in range(rng.randint(1, 5))]
        psi = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
        rank = gauss_rank(funcs)
        if any(psi) and gauss_rank(funcs + [psi]) > rank:
            assert gauge_scale(psi, funcs) is None
            spans += 1
        elif rank == dim:
            ball = [(f, F(1)) for f in funcs] + [(tuple(-x for x in f), F(1)) for f in funcs]
            verts = brute_vertices(ball, dim)
            assert gauge_scale(psi, funcs) == max(dot(psi, v) for v in verts)
            full += 1
        assert gauge_scale((F(0),) * dim, funcs) == 0
    assert spans >= 10 and full >= 40, (spans, full)
    assert gauge_scale((F(0), F(0)), []) == 0
    assert gauge_scale((F(1), F(0)), []) is None


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
