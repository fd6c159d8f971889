from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from msn import _kernel
from msn.errors import DimensionMismatch
from msn.linalg import (
    Matrix,
    _int_nullspace,
    _scale_to_int,
    coordinate_complement,
    in_span,
    intersect_spans,
    nullspace,
    row_space_basis,
    sum_span,
    inverse,
)

F = Fraction


def fr(n, d=1):
    return Fraction(n, d)


def test_kernel_of_sum_functional():
    ker = nullspace(Matrix.from_rows([[1, 1]]))
    assert ker == [(F(1), F(-1))]


def test_trivial_intersection():
    assert intersect_spans([(F(1), F(0))], [(F(0), F(1))]) == []


def test_two_plane_kernel_intersection():
    k1 = nullspace(Matrix.from_rows([[1, 0, 0]]))
    k2 = nullspace(Matrix.from_rows([[1, 1, 0]]))
    inter = intersect_spans(k1, k2)
    assert inter == [(F(0), F(0), F(1))]


def test_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = inverse(m)
    assert inv.mul(m).entries == Matrix.identity(2).entries


def test_coordinate_complement_is_lex_first():
    # span{(1,1,0)}: e0 joins, e1 is then dependent ((0,1,0) = (1,1,0)-(1,0,0)),
    # so the greedy lex-first complement is {0,2}.
    idx = coordinate_complement([(F(1), F(1), F(0))], 3)
    assert idx == [0, 2]


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_nullity_and_modularity(arows, brows):
    a = Matrix.from_rows(arows)
    b = Matrix.from_rows(brows)
    ua, ub = list(a.entries), list(b.entries)
    # rank-nullity on a: kernel plus image (the column span) fill the domain
    assert len(nullspace(a)) + len(row_space_basis(list(a.transpose().entries))) == a.cols
    # modular law on the two row spans
    inter = intersect_spans(ua, ub)
    assert len(inter) + len(sum_span(ua, ub)) == len(row_space_basis(ua)) + len(row_space_basis(ub))
    for v in inter:
        assert in_span(ua, v) and in_span(ub, v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=3))
def test_nullspace_vectors_annihilated(rows):
    m = Matrix.from_rows(rows)
    for v in nullspace(m):
        assert m.apply(v) == tuple([F(0)] * m.rows)


def test_row_space_basis_canonical():
    b1 = row_space_basis([(F(2), F(4)), (F(1), F(2))])
    b2 = row_space_basis([(F(-3), F(-6))])
    assert b1 == b2 == [(F(1), F(2))]


def test_product_through_the_zero_space_is_the_zero_matrix():
    prod = Matrix.zero(3, 0).mul(Matrix.zero(0, 2))
    assert (prod.rows, prod.cols) == (3, 2)
    assert prod == Matrix.zero(3, 2)
    back = Matrix.zero(0, 2).mul(Matrix.zero(2, 3))
    assert (back.rows, back.cols) == (0, 3)
    with pytest.raises(DimensionMismatch):
        Matrix.zero(3, 0).mul(Matrix.zero(1, 2))


def test_transpose_of_a_matrix_without_rows():
    t = Matrix.zero(0, 4).transpose()
    assert (t.rows, t.cols) == (4, 0)
    assert t.entries == ((),) * 4
    assert t.transpose() == Matrix.zero(0, 4)
    assert t.apply(()) == (F(0),) * 4
    assert Matrix.zero(0, 4).apply((1, 2, 3, 4)) == ()
    with pytest.raises(DimensionMismatch):
        Matrix.zero(0, 4).apply((1,))
    assert t.rank() == Matrix.zero(0, 4).rank() == 0
    assert nullspace(Matrix.zero(0, 2)) == [(F(1), F(0)), (F(0), F(1))]


def test_from_rows_needs_a_width():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([])
    assert Matrix.from_rows([], 3) == Matrix.zero(0, 3)
    assert Matrix.from_rows([[1, 2]]).cols == 2
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [1]])
    with pytest.raises(DimensionMismatch):
        Matrix.stack((Matrix.zero(0, 3), Matrix.zero(1, 2)), 3)
    assert Matrix.stack((), 3) == Matrix.zero(0, 3)


entries = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))


def _rows(draw, rows, cols):
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and draw(st.booleans()):
        # A multiple of a row: a zero row when c == 0, a singular matrix when i != j.
        i, j, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1)), draw(entries)
        m[i] = [c * x for x in m[j]]
    return Matrix.from_rows(m, cols)


@st.composite
def subspace_questions(draw):
    """Two matrices of one width (0 to 4 rows and columns), a square one and a vector."""
    cols = draw(st.integers(0, 4))
    a = _rows(draw, draw(st.integers(0, 4)), cols)
    b = _rows(draw, draw(st.integers(0, 4)), cols)
    n = draw(st.integers(0, 4))
    sq = _rows(draw, n, n)
    v = tuple(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return a, b, sq, v


Z = Matrix.zero
R = Matrix.from_rows


@settings(max_examples=200, deadline=None)
@given(subspace_questions())
@example((Z(0, 3), Z(2, 3), Z(0, 0), (F(0),) * 3))
@example((Z(3, 0), Z(0, 0), Z(2, 2), ()))
@example((R([[F(1, 2), 1], [0, 0]]), R([[1, 0], [0, F(1, 3)]]), R([[F(1, 2), 1], [0, F(1, 3)]]),
          (F(1), F(2))))
@example((R([[1, 2], [2, 4]]), R([[2, 4]]), R([[1, 2], [2, 4]]), (F(-1), F(-2))))
@example((R([[1, 2, 0], [0, F(1, 2), 1]]), R([[1, 2, 0], [0, F(1, 2), 1]]), Z(0, 0), (F(0),) * 3))
@example((R([[2, 4, 0]]), R([[1, 2, 0], [0, 0, F(1, 3)], [1, 2, 1]]), Z(0, 0), (F(2), F(4), F(0))))
def test_subspace_calculus_matches_the_fraction_front_ends(case):
    """Zero rows, 0 x n and n x 0 matrices and singular ones included."""
    a, b, sq, v = case
    ua, ub = list(a.entries), list(b.entries)
    got = [nullspace(a), row_space_basis(ua), intersect_spans(ua, ub)]
    assert got == [oracles.nullspace(a), oracles.row_space_basis(ua), oracles.intersect_spans(ua, ub)]
    assert all(type(x) is F for vs in got for w in vs for x in w)
    assert coordinate_complement(ua, a.cols) == oracles.coordinate_complement(ua, a.cols)
    assert in_span(ua, v) == oracles.in_span(ua, v)
    inv = inverse(sq)
    assert inv == oracles.inverse(sq)
    assert inv is None or all(type(x) is F for r in inv.entries for x in r)


def test_intersect_spans_is_one_reduction(monkeypatch):
    """The intersection is read off one ``echelon_int`` call, with no second reduction."""
    calls, real = [], _kernel.echelon_int

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(_kernel, "echelon_int", counted)
    k1 = nullspace(Matrix.from_rows([[1, 0, 0]]))
    k2 = nullspace(Matrix.from_rows([[1, 1, 0]]))
    calls.clear()
    assert intersect_spans(k1, k2) == [(F(0), F(0), F(1))]
    assert len(calls) == 1


@st.composite
def tall_or_wide(draw):
    """A matrix with up to 8 rows and columns: tall, wide or square, with dependent rows."""
    return _rows(draw, draw(st.integers(0, 8)), draw(st.integers(0, 8)))


@settings(max_examples=100, deadline=None)
@given(tall_or_wide())
@example(Z(6, 0))
@example(Z(0, 6))
@example(R([[1, 2], [2, 4], [F(1, 2), 1], [0, 0]]))
@example(R([[1, 2, 0, F(1, 3), 5], [2, 4, 0, F(2, 3), 10]]))
def test_rank_takes_the_shorter_side(m):
    r = m.rank()
    assert r == len(row_space_basis(list(m.entries))) == m.cols - len(nullspace(m))
    assert r == m.transpose().rank()


# Int and Fraction entries, with denominators up to 10^6.
big = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6),
                st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6))


@st.composite
def products(draw):
    """``(A, B, C, S, x, c)``: a k x m, two m x n and a k x k matrix, an
    m-vector and a scalar, 0 to 4 of each, with int and Fraction entries; a
    row of each matrix may be zero, and ``c`` may be 0."""
    def mat(rows, cols):
        m = [draw(st.lists(big, min_size=cols, max_size=cols)) for _ in range(rows)]
        if rows and draw(st.booleans()):
            m[draw(st.integers(0, rows - 1))] = [0] * cols
        return Matrix.from_rows(m, cols)

    k, m, n = (draw(st.integers(0, 4)) for _ in range(3))
    return (mat(k, m), mat(m, n), mat(m, n), mat(k, k), tuple(draw(st.lists(big, min_size=m, max_size=m))),
            draw(big))


@settings(max_examples=200, deadline=None)
@given(products())
@example((Z(3, 0), Z(0, 2), Z(0, 2), Z(3, 3), (), 0))
@example((Z(0, 3), Z(3, 2), R([[1, 0], [0, F(1, 2)], [5, 5]]), Z(0, 0), (1, F(-1, 10**6), 0), F(1, 3)))
@example((Z(2, 3), Z(3, 0), Z(3, 0), R([[2, 0], [0, 2]]), (0, 0, 0), -1))
@example((R([[1, 0], [0, 0]]), R([[F(1, 999983), 2], [3, F(-7, 10**6)]]), R([[F(1, 999983), 2], [0, 1]]),
          R([[1, 2], [3, 5]]), (F(1, 3), -2), F(-7, 2)))
def test_products_match_the_fraction_loops(case):
    a, b, c, sq, x, s = case
    prod = a.mul(b)
    assert prod == oracles.fraction_mul(a, b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    image = a.apply(x)
    assert image == oracles.fraction_apply(a, x)
    assert all(type(v) is Fraction for v in image) and all(type(v) is Fraction for r in prod.entries for v in r)
    blocks = (b, c, Matrix.zero(1, b.cols), b.scale(F(1, 6)))
    assert Matrix.stack(blocks, b.cols) == oracles.fraction_stack(blocks, b.cols)
    assert b.sub(c) == oracles.fraction_sub(b, c)
    assert b.scale(s) == oracles.fraction_scale(b, s)
    assert b.scale(0) == oracles.fraction_scale(b, 0) == Matrix.zero(b.rows, b.cols)
    assert a.transpose() == oracles.fraction_transpose(a)
    assert (a.rank(), b.rank()) == (oracles.fraction_rank(a), oracles.fraction_rank(b))
    assert inverse(sq) == oracles.inverse(sq)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.lists(big, min_size=n, max_size=n),
                                                                         max_size=4))),
       st.integers(1, 12))
@example((0, [[], []]), 3)
@example((2, [[0, 0], [4, 6]]), 2)
@example((2, [[F(1, 2), F(3, 4)], [F(-1, 4), 2]]), 12)
def test_equal_grids_are_equal_matrices_in_lowest_terms(case, k):
    """Int against Fraction entries, and the same values built with a common
    factor ``k`` that ``scale`` then pulls out, give one stored form."""
    n, rows = case
    grids = [Matrix.from_rows(rows, n),
             Matrix.from_rows([[F(x) for x in r] for r in rows], n),
             Matrix.from_rows([[x * k for x in r] for r in rows], n).scale(F(1, k)),
             Matrix.from_rows([[F(x, k) for x in r] for r in rows], n).scale(k)]
    m = grids[0]
    assert all(g == m and hash(g) == hash(m) for g in grids)
    assert m.den > 0 and gcd(m.den, *(x for r in m.ints for x in r)) == 1
    assert m.entries == tuple(tuple(F(x) for x in r) for r in rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12), st.booleans()), max_size=7))
@example([])
@example([3, -1, 0, 7, 2, 5])
@example([3, F(1, 2), -1])
@example([True, 2, False])
def test_scale_to_int_reads_int_rows_as_the_fraction_route(row):
    """Int, Fraction and mixed rows (bools too, which go the general way)
    give the ``(ints, m)`` of the same values as Fractions; a row of plain
    ints comes back as a copy over ``m == 1``."""
    ints, m = _scale_to_int(row)
    assert (ints, m) == _scale_to_int([F(x) for x in row])
    assert all(type(x) is int for x in ints)
    assert [F(x, m) for x in ints] == [F(x) for x in row]
    if all(type(x) is int for x in row):
        assert m == 1 and ints == row and ints is not row


@st.composite
def square_width_rows(draw):
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=9))
    # Repeats and multiples of earlier rows, so that leading rows are dependent.
    for i, s in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(-2, 2)), max_size=4)):
        if rows:
            rows.insert(i % (len(rows) + 1), [s * x for x in rows[i % len(rows)]])
    return n, rows


@settings(max_examples=150, deadline=None)
@given(square_width_rows())
@example((0, [[], []]))
@example((2, [[0, 0], [1, 2], [2, 4], [0, 1], [1, 1]]))
def test_leading_basis_keeps_the_lex_first_rows_and_inverts_them(case):
    """The kept rows are the transpose's pivot columns, each reduced row is
    its coefficients times the kept rows, and a square basis is inverted."""
    n, rows = case
    it = iter(rows)
    chosen, pivcols, red = _kernel.leading_basis(it, n)
    assert chosen == _kernel.echelon_int([list(c) for c in zip(*rows)])[1][:n]
    if len(chosen) == n and n:
        assert len(list(it)) == len(rows) - chosen[-1] - 1
    basis = [rows[i] for i in chosen]
    for c, r in zip(pivcols, red):
        assert gcd(*r) == 1 and r[c] > 0
        assert all(r[p] == 0 for p in pivcols if p != c)
        assert r[:n] == [sum(k * b[j] for k, b in zip(r[n:], basis)) for j in range(n)]
    if len(chosen) == n:
        inv = [[Fraction(r[n + j], r[c]) for j in range(n)] for c, r in sorted(zip(pivcols, red))]
        assert [[sum(b[i] * inv[i][j] for i in range(n)) for j in range(n)] for b in basis] == \
            [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def tall_rows(draw):
    """More rows than columns, spanning a random subspace: combinations of ``rank`` rows."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n))
    coefs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)),
                          min_size=n + 1, max_size=30))
    return n, [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)] for cs in coefs]


@settings(max_examples=150, deadline=None)
@given(tall_rows())
@example((2, [[0, 0], [0, 0], [0, 0]]))
@example((3, [[1, 2, 3]] * 5 + [[0, 1, 0]]))
def test_tall_kernel_is_the_echelon_kernel_of_all_rows(case):
    """A tall matrix is cut to at most ``n`` leading independent rows
    before its echelon form, and the canonical kernel basis is the one the
    echelon form of all its rows gives."""
    n, rows = case
    sizes = []
    real = _kernel.echelon_int
    _kernel.echelon_int = lambda r: sizes.append(len(r)) or real(r)
    try:
        got = _int_nullspace(rows, n)
    finally:
        _kernel.echelon_int = real
    assert sizes == [real(rows)[0]]
    assert [tuple(map(Fraction, v)) for v in got] == oracles.nullspace(Matrix.from_rows(rows, n))
