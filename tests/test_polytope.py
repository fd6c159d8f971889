import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msn import _kernel
from msn.amalgam import pushout
from msn.errors import UnboundedPolyhedron
from msn.linalg import _scale_to_int, int_rows, vec
from msn.polytope import _cone_rays, polytope_facets, polytope_vertices, vertex_rows
from msn.spaces import line_space
from msn.tower import build_tower

from genhelpers import block_embedding_triple
from oracles import brute_cone_rays, brute_vertices, canon_rep, full_lp, gauss_rank, primitive_ineq, scan_cone_rays

F = Fraction


def _box(dim, r=1):
    out = []
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        out.append((tuple(e), F(r)))
        out.append((tuple(-x for x in e), F(r)))
    return out


def test_square_h_to_v():
    verts = polytope_vertices(_box(2), 2)
    assert verts == sorted({(F(s), F(t)) for s in (-1, 1) for t in (-1, 1)})


def test_hexagon_strip_example():
    ineqs = _box(2) + [((F(1), F(-1)), F(1, 2)), ((F(-1), F(1)), F(1, 2))]
    verts = polytope_vertices(ineqs, 2)
    expect = set()
    for s in (1, -1):
        expect.update({(F(s), F(s)), (F(s), F(s, 2)), (F(s, 2), F(s))})
    assert set(verts) == expect


def test_cross_polytope_v_to_h():
    pts = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]
    facets = polytope_facets(pts, 2)
    expect = {((1, 1), 1), ((-1, -1), 1), ((1, -1), 1), ((-1, 1), 1)}
    assert set(facets) == expect


def test_unbounded_raises():
    with pytest.raises(UnboundedPolyhedron):
        polytope_vertices([((F(1),), F(1))], 1)


def test_lower_dimensional_segment_roundtrip():
    # conv{(1,1), (-1,-1)}: implicit equality x1 = x2 plus endpoints.
    facets = polytope_facets([(F(1), F(1)), (F(-1), F(-1))], 2)
    assert {((1, -1), 0), ((-1, 1), 0)} <= set(facets)
    verts = polytope_vertices(facets, 2)
    assert verts == [(F(-1), F(-1)), (F(1), F(1))]
    assert polytope_facets(verts, 2) == facets


def test_point_polytope():
    facets = polytope_facets([(F(0), F(0))], 2)
    assert polytope_vertices(facets, 2) == [(F(0), F(0))]


def test_involution_and_oracle_agreement_random():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 3)
        ineqs = _box(dim, rng.randint(1, 3))
        for _ in range(rng.randint(0, 4)):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if all(x == 0 for x in a):
                continue
            ineqs.append((a, F(rng.randint(1, 4))))
        verts = polytope_vertices(ineqs, dim)
        assert verts == brute_vertices(ineqs, dim)
        # the vertices of the vertices' facets are the vertices again
        assert polytope_vertices(polytope_facets(verts, dim), dim) == verts
        # every vertex satisfies all constraints, at least dim of them tight
        for v in verts:
            tight = 0
            for a, b in ineqs:
                s = sum(x * y for x, y in zip(a, v))
                assert s <= b
                tight += s == b
            assert tight >= dim


def test_symmetric_storage_and_support():
    # The hull of one representative per +/- pair and its negatives.
    pts = [(F(1), F(0)), (F(0), F(1))]
    full = sorted({v for p in pts for v in (p, tuple(-x for x in p))})
    verts = polytope_vertices(polytope_facets(full, 2), 2)
    assert verts == full
    assert sorted({canon_rep(v) for v in verts}) == sorted(pts)
    assert max(sum(x * y for x, y in zip(v, (F(3), F(-4)))) for v in verts) == 4


# --- oracle properties of double description ---------------------------

small = st.integers(-3, 3)


@st.composite
def degenerate_rows(draw, dim, count):
    """Integer rows with repeats, multiples and sums of earlier rows, so
    that many rows meet at one ray and adjacency needs more than counting."""
    rows = [draw(st.lists(small, min_size=dim, max_size=dim)) for _ in range(count)]
    for kind, i, j, s in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99),
                                                 st.integers(0, 99), st.integers(1, 3)), max_size=6)):
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        rows.append(list(a) if kind == 0 else [s * x for x in a] if kind == 1 else
                    [x + s * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@st.composite
def pointed_cones(draw):
    dim = draw(st.integers(1, 5))
    rows = draw(degenerate_rows(dim, draw(st.integers(dim, dim + 3))))
    if draw(st.booleans()):
        # Some ray meets many rows: make rows vanish on a fixed integer ray.
        y = draw(st.lists(small, min_size=dim, max_size=dim))
        for r in rows[: len(rows) // 2]:
            d = sum(a * x for a, x in zip(r, y))
            k = next((i for i, x in enumerate(y) if x != 0), None)
            if k is not None and d % y[k] == 0:
                r[k] -= d // y[k]
    return rows, dim


@settings(max_examples=150)
@given(pointed_cones())
def test_cone_rays_are_primitive_distinct_and_extreme(cone):
    rows, dim = cone
    assume(gauss_rank(rows) == dim)
    rays = _cone_rays(rows, dim)
    assert len(set(rays)) == len(rays)
    for r in rays:
        assert gcd(*r) == 1
        vals = [sum(a * x for a, x in zip(row, r)) for row in rows]
        assert min(vals) >= 0
        assert gauss_rank([row for row, v in zip(rows, vals) if v == 0]) == dim - 1
    assert set(rays) == brute_cone_rays(rows, dim)
    assert rays == scan_cone_rays(rows, dim)


def test_cone_rays_match_the_tight_set_scan_past_a_machine_word():
    """Seeded cones of dimension 6-9 with more than 64 rays, so the
    per-row ray masks are wider than 64 bits."""
    rng = random.Random(0xC0DE)
    seen = Counter()
    while len(seen) < 4 or min(seen.values()) < 5:
        dim = rng.randint(6, 9)
        lo = rng.choice((1, 3))
        rows = [[1] + [rng.randint(-lo, lo) for _ in range(dim - 1)] for _ in range(dim + rng.randint(5, 8))]
        rays = _cone_rays(rows, dim)
        if rays is None or len(rays) <= 64:
            continue
        assert rays == scan_cone_rays(rows, dim)
        seen[dim] += 1


def test_cone_rays_match_the_tight_set_scan_when_rows_outnumber_rays():
    """The polar cone of the 832-point symmetric hull of the seed-3
    tower's dimension-8 stage, where a few rays meet hundreds of rows."""
    stage = build_tower([line_space(1), line_space(2)], [0, F(1, 4)], 3, seed=3, dim_cap=8).stages[2]
    funcs = stage.seminorms[0].functionals
    assert (stage.dim, len(funcs)) == (8, 416)
    rows = int_rows([(1, *f) for f in funcs] + [(1, *(-x for x in f)) for f in funcs])
    assert _cone_rays(rows, 9) == scan_cone_rays(rows, 9)


def test_cone_rays_none_without_full_rank():
    assert _cone_rays([[1, 2, 0], [2, 4, 0], [-1, 0, 0]], 3) is None
    assert _cone_rays([[1, -1], [-1, 1]], 2) is None


@pytest.mark.parametrize("rows, dim", [
    # dependent leading rows: the start cone skips rows 1, 2 and 4
    ([[1, 2, 0], [2, 4, 0], [-1, -2, 0], [0, 0, 1], [0, 0, 3], [1, 0, 0], [0, 1, 1], [1, -1, 2]], 3),
    # duplicate rows, before and after the start cone is complete
    ([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [1, 1, -1], [1, 1, -1], [0, 0, 1]], 3),
    # a zero row, first and among the inserted rows
    ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [1, 1, -1, -1]], 4),
    # a row that cuts off every ray, after the cone has grown new rays
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1], [1, -1, 1], [-1, -1, -1]], 3),
    ([[1, 0], [0, 1], [-1, -1]], 2),
    # rank below dim: not pointed
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1], [0, -1, -1], [1, 3, 4]], 3),
    ([[0, 0], [0, 0]], 2),
])
def test_cone_rays_of_explicit_cones_match_both_oracles(rows, dim):
    rays = _cone_rays(rows, dim)
    assert rays == scan_cone_rays(rows, dim)
    if gauss_rank(rows) < dim:
        assert rays is None
    else:
        assert set(rays) == brute_cone_rays(rows, dim)
        assert len(set(rays)) == len(rays)


def test_cone_rays_start_from_one_leading_basis(monkeypatch):
    """The start cone comes from one ``leading_basis`` pass and no ``echelon_int`` call."""
    calls = Counter()
    for name in ("echelon_int", "leading_basis"):
        real = getattr(_kernel, name)
        monkeypatch.setattr(_kernel, name, lambda *a, _f=real, _n=name: calls.update([_n]) or _f(*a))
    assert _cone_rays([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, -1, 1]], 3) is not None
    assert calls == Counter(leading_basis=1)


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_polytope_vertices_match_brute_force(dim, r, data):
    ineqs = _box(dim, r)
    corner = tuple(F(r * data.draw(st.sampled_from((1, -1)))) for _ in range(dim))
    for a in data.draw(degenerate_rows(dim, data.draw(st.integers(1, 3)))):
        if not any(a):
            continue
        a = tuple(F(x) for x in a)
        # Half the cuts pass through a box corner: degenerate vertices.
        b = sum(x * y for x, y in zip(a, corner)) if data.draw(st.booleans()) else F(data.draw(st.integers(0, 4)))
        ineqs.append((a, b))
    assert polytope_vertices(ineqs, dim) == brute_vertices(ineqs, dim)


def test_empty_system_with_a_recession_direction_has_no_vertices():
    # {x <= -1, x >= 1, y >= 0} is empty, but its homogenised cone is
    # pointed and holds the ray t = x = 0, y > 0.
    assert polytope_vertices([((1, 0), -1), ((-1, 0), -1), ((0, -1), 0)], 2) == []


def _random_systems():
    """``(dim, rows)``: 3000 seeded integer systems, empty, unbounded and bounded alike."""
    rng = random.Random(0x5E7)
    for _ in range(3000):
        dim = rng.randint(1, 3)
        yield dim, [(tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 5))]


def test_vertices_agree_with_lp_outcomes_on_random_systems():
    """[] iff the system is infeasible, UnboundedPolyhedron iff it is feasible
    and some coordinate is unbounded on it, else the brute-force vertices."""
    seen = Counter()
    for dim, rows in _random_systems():
        units = [tuple(s * (i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
        if full_lp([0] * dim, rows) == "infeasible":
            want, kind = [], "empty"
        elif any(full_lp(e, rows) == "unbounded" for e in units):
            want = kind = "UnboundedPolyhedron"
        else:
            want, kind = brute_vertices(rows, dim), "bounded"
        try:
            got = polytope_vertices(rows, dim)
        except UnboundedPolyhedron:
            got = "UnboundedPolyhedron"
        assert got == want, (dim, rows)
        seen[kind] += 1
    assert min(seen.values()) >= 100, seen


def test_vertex_rows_are_the_scaled_vertices_on_random_systems():
    """The ``_scale_to_int`` rows of ``polytope_vertices``, in its order, with
    t > 0; the same [] for empty systems and the same raise for unbounded ones."""
    seen = Counter()
    for dim, rows in _random_systems():
        try:
            want = [_scale_to_int(v) for v in polytope_vertices(rows, dim)]
        except UnboundedPolyhedron as e:
            with pytest.raises(UnboundedPolyhedron, match=f"^{e}$"):
                vertex_rows(rows, dim)
            seen["unbounded"] += 1
            continue
        got = vertex_rows(rows, dim)
        assert got == want, (dim, rows)
        assert all(t > 0 for _, t in got)
        seen["bounded" if got else "empty"] += 1
    assert min(seen.values()) >= 100, seen


# --- golden records ---------------------------------------------------
#
# ``polytope_golden.json`` holds the exact outcome of the seeded
# conversions below, recorded with the double description that tested
# every candidate ray pair by an ``echelon_int`` rank computation and
# rebuilt all tight sets after each insertion.  The instances run
# through both directions (H to V, V to H, and both in turn for ``dd``,
# once without and once with +/- pairs folded) at dims 1-6,
# with many more tight rows than ``dim`` at a vertex, duplicate and
# opposite rows, lower-dimensional hulls and the empty and unbounded
# cases, and through ``amalgam.pushout``, whose functional lists are
# vertex lists of dual polytopes.  Regenerate only when a change is meant
# to alter results:
#
#     PYTHONPATH=src:tests python -c "import test_polytope; test_polytope.write_golden()"

GOLDEN = Path(__file__).with_name("polytope_golden.json")
GOLDEN_KINDS = ("cuts", "symmetric", "cross", "pyramid", "repeated", "empty", "unbounded",
                "facets", "flat", "dd", "dd_symmetric")


def _rows_through(rng, dim, p, count, lo=-2, hi=2):
    rows = []
    for _ in range(count):
        a = tuple(F(rng.randint(lo, hi)) for _ in range(dim))
        if any(a):
            rows.append((a, sum(x * y for x, y in zip(a, p))))
    return rows


def _golden_instance(rng, kind):
    dim = rng.randint(1, 6 if kind in ("cuts", "cross", "pyramid", "facets", "flat") else 4)
    if kind == "cuts":
        # Box plus cuts with mixed denominators, up to twice the box size
        # at low dims and a few cuts at dims 5-6.
        ineqs = _box(dim, rng.randint(1, 3))
        for _ in range(rng.randint(0, 6 if dim <= 3 else 2)):
            a = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
            if any(a):
                ineqs.append((a, F(rng.randint(1, 6), rng.choice((1, 2)))))
        return "vertices", ineqs, dim
    if kind == "symmetric":
        # Centrally symmetric: opposite rows with equal bounds; unbounded
        # when the rows do not span.
        ineqs = []
        for _ in range(rng.randint(1, dim + 3)):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            b = F(rng.randint(1, 3), rng.choice((1, 2)))
            ineqs += [(a, b), (tuple(-x for x in a), b)]
        return "vertices", ineqs, dim
    if kind == "cross":
        # Cross-polytope: 2^dim rows, 2^(dim-1) of them tight at a vertex.
        dim = max(dim, 2)
        r = F(rng.randint(1, 3))
        ineqs = [(tuple(F(1 - 2 * ((s >> i) & 1)) for i in range(dim)), r) for s in range(2 ** dim)]
        rng.shuffle(ineqs)
        return "vertices", ineqs, dim
    if kind == "pyramid":
        # Pyramid over a box: the apex lies on 2(dim - 1) facets.
        dim = max(dim, 2)
        h = F(rng.randint(1, 4))
        ineqs = [((F(0),) * (dim - 1) + (F(-1),), F(0))]
        for i in range(dim - 1):
            for s in (1, -1):
                a = [F(0)] * dim
                a[i] = s * h
                a[-1] = F(1)
                ineqs.append((tuple(a), h))
        rng.shuffle(ineqs)
        return "vertices", ineqs, dim
    if kind == "repeated":
        # Duplicate, scaled and opposite rows (implicit equalities) and
        # rows through one point of a box.
        p = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
        ineqs = _box(dim, 2) + _rows_through(rng, dim, p, rng.randint(1, dim + 2))
        for a, b in list(ineqs):
            u = rng.random()
            if u < 0.15:
                ineqs.append((a, b))
            elif u < 0.25:
                ineqs.append((tuple(2 * x for x in a), 2 * b))
            elif u < 0.3 and b >= 0:
                ineqs.append((tuple(-x for x in a), -b))
        rng.shuffle(ineqs)
        return "vertices", ineqs, dim
    if kind == "empty":
        # A row and a strictly contradicting opposite row, with or without
        # a box (without one the homogenising cone may have lineality).
        ineqs = _box(dim, 2) if rng.random() < 0.5 else []
        a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if not any(a):
            a = (F(1),) + a[1:]
        b = F(rng.randint(-2, 2))
        ineqs += [(a, b), (tuple(-x for x in a), -b - F(rng.randint(1, 2)))]
        rng.shuffle(ineqs)
        return "vertices", ineqs, dim
    if kind == "unbounded":
        # Half a box plus cuts: bounded, unbounded with a recession ray, or
        # a line when the rows do not span.
        ineqs = [(a, b) for a, b in _box(dim, 2) if rng.random() < 0.6]
        for _ in range(rng.randint(0, 2)):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(a):
                ineqs.append((a, F(rng.randint(0, 3))))
        return "vertices", ineqs, dim
    if kind == "facets":
        # Random points with repeats; full-dimensional or not.
        pts = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
               for _ in range(rng.randint(1, dim + 5))]
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        return "facets", pts, dim
    if kind == "flat":
        # Points in an affine subspace: implicit equalities as opposite pairs.
        k = rng.randint(0, dim - 1)
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
        shift = [F(rng.randint(-2, 2)) for _ in range(dim)]
        pts = []
        for _ in range(rng.randint(1, k + 4)):
            t = [F(rng.randint(-2, 2)) for _ in range(k)]
            pts.append(tuple(shift[j] + sum(t[i] * basis[i][j] for i in range(k)) for j in range(dim)))
        return "facets", pts, dim
    symmetric = kind == "dd_symmetric"
    if rng.random() < 0.5:
        pts = [tuple(F(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(rng.randint(1, dim + 4))]
        return "dd", ("v", pts, symmetric), dim
    ineqs = _box(dim, rng.randint(1, 2))
    for _ in range(rng.randint(0, 3)):
        a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(a):
            b = F(rng.randint(1, 3))
            ineqs.append((a, b))
            if symmetric:
                ineqs.append((tuple(-x for x in a), b))
    return "dd", ("h", ineqs, symmetric), dim


def golden_instances():
    rng = random.Random(0xDD96)
    return [(kind, *_golden_instance(rng, kind)) for _ in range(40) for kind in GOLDEN_KINDS]


def golden_pushouts():
    rng = random.Random(0xA3A6)
    out = []
    for i in range(50):
        dim_x = rng.randint(1, 2)
        lam_x = rng.randint(1, 2)
        triple = block_embedding_triple(
            rng, dim_x, rng.randint(0, 3 - dim_x), rng.randint(0, 3 - dim_x), lam_x,
            rng.randint(lam_x, 3), rng.randint(lam_x, 3), delta=F(i % 2, 4), graded=i % 5 == 4)
        out.append((triple, F(i % 2, 4), i % 5 == 4))
    return out


def _strs(vectors):
    return [[str(x) for x in v] for v in vectors]


def _ineq_strs(ineqs):
    return [[[str(x) for x in a], str(b)] for a, b in ineqs]


def _dd(rep, items, symmetric, dim):
    """Facets and vertices of a point hull or an inequality system.

    With ``symmetric`` the points stand for themselves and their
    negatives, and the vertices come back one per +/- pair.  An infeasible
    inequality system keeps its own canonical inequalities as facets.
    """
    if rep == "v":
        pts = {vec(p) for p in items}
        if symmetric:
            pts |= {tuple(-x for x in p) for p in pts}
        facets = polytope_facets(sorted(pts), dim)
        verts = polytope_vertices(facets, dim)
    else:
        ineqs = sorted({primitive_ineq(a, b) for a, b in items})
        verts = polytope_vertices(ineqs, dim)
        facets = polytope_facets(verts, dim) if verts else ineqs
    if symmetric:
        verts = sorted({canon_rep(v) for v in verts})
    return facets, verts


def _outcome(op, arg, dim):
    try:
        if op == "vertices":
            return _strs(polytope_vertices(arg, dim))
        if op == "facets":
            return _ineq_strs(polytope_facets(arg, dim))
        facets, verts = _dd(*arg, dim)
        return [_ineq_strs(facets), _strs(verts)]
    except (UnboundedPolyhedron, ValueError) as e:
        return type(e).__name__


def _pushout_record(triple, delta, graded):
    X, Y, Z, f, g = triple
    res = pushout(X, Y, Z, f, g, delta, F(1, 8), graded=graded)
    return [[_strs(s.functionals) for s in res.space.seminorms], [str(c) for c in res.bound_certificate]]


def golden_records():
    recs = [_outcome(op, arg, dim) for _, op, arg, dim in golden_instances()]
    return recs + [_pushout_record(*p) for p in golden_pushouts()]


def write_golden():
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in golden_records()) + "\n]\n")


def test_golden_conversions_and_pushouts():
    instances = golden_instances()
    pushouts = golden_pushouts()
    recorded = json.loads(GOLDEN.read_text())
    assert len(recorded) == len(instances) + len(pushouts)
    seen = Counter()
    for (kind, op, arg, dim), want in zip(instances, recorded):
        got = _outcome(op, arg, dim)
        assert got == want, (kind, op, arg, dim)
        seen[got if isinstance(got, str) else kind] += 1
    for p, want in zip(pushouts, recorded[len(instances):], strict=True):
        assert _pushout_record(*p) == want, p
    assert seen["UnboundedPolyhedron"] >= 10 and seen["empty"] >= 10, seen
