"""Exact linear algebra and the quadratic extension field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import linalg, quadext
from nijcalc.quadext import QuadExt, sqrt_exact
from reference import mat_mul, solve_affine

F = Fraction


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert linalg.rank(m) == 1
    assert linalg.rank(linalg.identity(3)) == 3


def test_nullspace_is_deterministic_and_correct():
    m = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    ns = linalg.nullspace(m)
    assert ns == [[F(-1), F(1), F(0)]]
    for v in ns:
        assert linalg.vec_is_zero(linalg.mat_vec(m, v))


def test_solve_branches():
    # full line: 0*x = 0
    sol = solve_affine([[F(0)]], [F(0)])
    assert sol is not None and sol[1] == [[F(1)]]
    # inconsistent
    assert linalg.solve([[F(1)], [F(1)]], [F(0), F(1)]) is None
    # unique
    assert linalg.solve([[F(2), F(0)], [F(0), F(4)]], [F(1), F(1)]) == [F(1, 2), F(1, 4)]


def test_det_and_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.det(m) == F(-2)
    inv = linalg.inverse(m)
    assert mat_mul(m, inv) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def _anti_diagonal(n):
    return [[F(1) if i + k == n - 1 else F(0) for k in range(n)] for i in range(n)]


@pytest.mark.parametrize("m, want", [
    ([], F(1)),
    (_anti_diagonal(3), F(-1)),  # pivot columns 2, 1, 0: one transposition
    (_anti_diagonal(4), F(1)),   # 3, 2, 1, 0: two transpositions
    ([[F(0), F(2), F(0)], [F(0), F(0), F(3)], [F(5), F(0), F(0)]], F(30)),
    ([[F(1), F(2), F(3)], [F(0), F(1), F(4)], [F(1), F(3), F(7)]], F(0)),
])
def test_det_signs_the_pivot_permutation(m, want):
    """det multiplies Echelon's pivots and signs them by the permutation
    taking row i to its pivot column; a last row in the span of the others
    (row 3 = row 1 + row 2) gives 0."""
    got = linalg.det(m)
    assert got == want and type(got) is F


def test_det_over_quadext_keeps_the_elimination_value():
    """The pivots differ from those of a column-by-column elimination, but
    the value is the same: 9 - 2 sqrt 5, by cofactors along the first row."""
    r5 = sqrt_exact(5)
    m = [[F(0), r5, F(2)], [r5, F(1), 1 + r5], [F(3), F(0), r5]]
    assert linalg.det(m) == QuadExt(9, -2, 5)
    assert linalg.det([[r5, F(1)], [F(5), r5]]) == 0


def test_echelon_insert_returns_the_pivot_or_zero():
    ech = linalg.Echelon()
    assert ech.insert([F(0), F(3), F(1)]) == F(3)
    assert ech.insert([F(2), F(6), F(2)]) == F(2)  # remainder (2, 0, 0)
    assert ech.insert([F(1), F(1), F(1, 3)]) == 0
    assert ech.rank == 2
    r5 = sqrt_exact(5)
    pivot = linalg.Echelon().insert([F(0), r5])
    assert pivot == r5 and pivot


@pytest.mark.parametrize("call, match", [
    (lambda: linalg.solve([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(1), F(2)]),
     "3 equations and 2 constants"),
    (lambda: linalg.solve([[F(1), F(0)], [F(1)]], [F(1), F(2)]),
     r"rows of lengths \[2, 1\]"),
    (lambda: linalg.det([[F(1), F(2), F(3)], [F(4), F(5), F(6)]]),
     r"square matrix: 2 rows of lengths \[3, 3\]"),
    (lambda: linalg.det([[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]]),
     r"square matrix: 3 rows of lengths \[2, 2, 2\]"),
    (lambda: linalg.inverse([[F(1), F(0), F(0)], [F(0), F(1), F(0)]]),
     r"square matrix: 2 rows of lengths \[3, 3\]"),
])
def test_solve_det_and_inverse_refuse_mis_shaped_input(call, match):
    """A dropped equation, a leading square block or a slice of the
    augmented matrix would answer another question: each raises ValueError
    naming the shapes."""
    with pytest.raises(ValueError, match=match):
        call()


def test_span_operations():
    e1 = [F(1), F(0), F(0)]
    e2 = [F(0), F(1), F(0)]
    e3 = [F(0), F(0), F(1)]
    d = [F(1), F(1), F(0)]
    assert linalg.span_dim([e1, e2, d]) == 2
    assert linalg.in_span(d, [e1, e2])
    assert not linalg.in_span(e3, [e1, e2])
    inter = linalg.intersect_spans([e1, e3], [e2, d])
    assert linalg.span_basis(inter) == linalg.span_basis([e1])
    assert linalg.spans_equal([e1, e2], [d, e1])


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5))
def test_nullspace_vectors_satisfy_system(rows):
    m = [[F(x) for x in row] for row in rows]
    for v in linalg.nullspace(m):
        assert linalg.vec_is_zero(linalg.mat_vec(m, v))
    assert linalg.rank(m) + len(linalg.nullspace(m)) == 4


def test_quadext_field_axioms():
    r2 = sqrt_exact(2)
    assert isinstance(r2, QuadExt)
    assert r2 * r2 == 2
    x = QuadExt(F(1, 2), F(-3), 2)
    y = QuadExt(2, F(1, 3), 2)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert 1 / r2 == r2 / 2


def test_quadext_exact_signs():
    r2 = sqrt_exact(2)
    # 3 - 2*sqrt(2) > 0 because 9 > 8
    assert (3 - 2 * r2).sign() == 1
    # 1 - sqrt(2) < 0
    assert (1 - r2).sign() == -1
    assert (r2 - r2).sign() == 0
    assert r2 > 1 and r2 < F(3, 2)


def test_quadext_arithmetic_does_not_revalidate_the_radicand(monkeypatch):
    x = QuadExt(F(1, 2), F(-3), 2)
    y = QuadExt(2, F(1, 3), 2)
    calls = []
    real = quadext._is_square
    monkeypatch.setattr(quadext, "_is_square",
                        lambda f: calls.append(f) or real(f))
    results = [x + y, x - y, x * y, x / y, -x, x.conjugate(),
               x + 1, 1 + x, x - F(1, 3), 2 - x, 3 * x, x * F(1, 2),
               x / 2, 1 / x, x < y, x >= 1]
    assert calls == []
    assert results[:4] == [QuadExt(F(5, 2), F(-8, 3), 2),
                           QuadExt(F(-3, 2), F(-10, 3), 2),
                           QuadExt(-1, F(-35, 6), 2),
                           (x * y.conjugate()) / F(34, 9)]
    assert results[5] == QuadExt(F(1, 2), 3, 2)
    assert all(r.d == 2 for r in results[:-2])


def test_quadext_constructor_validates_the_radicand():
    for d in (4, 0, -2, F(9, 4)):
        with pytest.raises(ValueError):
            QuadExt(1, 1, d)


def test_sqrt_exact_rational_cases():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(0) == 0
    with pytest.raises(ValueError):
        sqrt_exact(-1)


def test_elimination_over_quadext():
    # invariant-line style solve with irrational entries
    r5 = sqrt_exact(5)
    m = [[QuadExt(1, 0, 5), r5], [r5, QuadExt(5, 0, 5)]]
    assert linalg.rank(m) == 1
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    assert linalg.vec_is_zero(linalg.mat_vec(m, ns[0]))


# ---------------------------------------------------------------------------
# differential tests: the zero-skipping elimination against sympy and
# against the dense elimination it replaced
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw, max_rows=6, max_cols=6):
    """Small rational matrices, mostly zeros, some rows and columns all zero."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(-4, 4, max_denominator=3))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [F(0)] * cols
    for k in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[k] = F(0)
    return m


def _sympy():
    return pytest.importorskip("sympy")


def _to_fraction(x):
    return F(int(x.p), int(x.q))


def _from_sympy(mat):
    return [[_to_fraction(x) for x in mat.row(i)] for i in range(mat.rows)]


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


@settings(deadline=None)
@given(sparse_matrices())
def test_rref_rank_nullspace_match_sympy(m):
    sympy = _sympy()
    sm = sympy.Matrix(m)
    red, pivots = sm.rref()
    ours, our_pivots = linalg.rref(m)
    assert our_pivots == list(pivots)
    assert ours == _from_sympy(red)
    assert _typed(ours) == _typed(_from_sympy(red))
    assert linalg.rank(m) == sm.rank()
    assert linalg.nullspace(m) == [[_to_fraction(x) for x in v] for v in sm.nullspace()]
    assert linalg.span_basis(m) == _from_sympy(red)[:len(pivots)]


@settings(deadline=None)
@given(sparse_matrices(), st.lists(st.fractions(-3, 3, max_denominator=2),
                                   min_size=6, max_size=6))
def test_in_span_matches_sympy(m, v):
    sympy = _sympy()
    v = v[:len(m[0])]
    expect = sympy.Matrix(m).rank() == sympy.Matrix(m + [v]).rank()
    assert linalg.in_span(v, m) == expect
    inside = [sum((row[k] for row in m), F(0)) for k in range(len(v))]
    assert linalg.in_span(inside, m)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: sparse_matrices(max_rows=n, max_cols=n).filter(
        lambda m: len(m) == len(m[0]))))
def test_det_matches_sympy(m):
    sympy = _sympy()
    assert linalg.det(m) == _to_fraction(sympy.Matrix(m).det())


def test_rref_matches_the_dense_elimination_on_sparse_input():
    from reference import dense_rref
    m = [[F(0), F(2), F(0), F(0), F(1)],
         [F(0), F(0), F(0), F(0), F(0)],
         [F(3), F(0), F(0), F(1, 2), F(0)],
         [F(0), F(4), F(0), F(0), F(2)]]
    assert _typed(linalg.rref(m)[0]) == _typed(dense_rref(m)[0])
    assert linalg.rref(m)[1] == dense_rref(m)[1] == [0, 1]


quad_entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.fractions(-3, 3, max_denominator=2),
    st.builds(QuadExt, st.fractions(-2, 2, max_denominator=2),
              st.fractions(-2, 2, max_denominator=2), st.just(5)))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_elimination_keeps_the_dense_element_types(rows, cols, data):
    """Fraction zeros next to QuadExt entries: the dense elimination turns
    some into QuadExt zeros and leaves others Fraction, and rref and solve
    must return exactly those types."""
    from reference import dense_rref
    m = [[data.draw(quad_entries) for _ in range(cols)] for _ in range(rows)]
    b = [data.draw(quad_entries) for _ in range(rows)]
    red, pivots = linalg.rref(m)
    ref, ref_pivots = dense_rref(m)
    assert pivots == ref_pivots and _typed(red) == _typed(ref)
    sol = linalg.solve(m, b)
    real_rref = linalg.rref
    try:
        linalg.rref = dense_rref
        expect = linalg.solve(m, b)
    finally:
        linalg.rref = real_rref
    assert (sol is None) == (expect is None)
    if sol is not None:
        assert [(type(x), x) for x in sol] == [(type(x), x) for x in expect]


def test_elimination_over_one_quadext_field_stays_in_it():
    r5 = sqrt_exact(5)
    z = QuadExt(0, 0, 5)
    m = [[z, r5, z], [r5, z, QuadExt(1, 0, 5)], [z, z, z]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert all(type(x) is QuadExt for row in red for x in row)
    from reference import dense_rref
    assert red == dense_rref(m)[0]


@given(st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                min_size=0, max_size=6))
def test_echelon_rank_and_membership_match_rref(rows):
    m = [[F(x) for x in row] for row in rows]

    def rref_rank(vectors):
        return len(linalg.rref(vectors)[1]) if vectors else 0

    ech = linalg.Echelon(m)
    assert ech.rank == linalg.rank(m) == rref_rank(m)
    for row in m:
        assert ech.contains(row)
        assert linalg.vec_is_zero(ech.reduce(row))
    for k in range(5):
        e_k = linalg.basis_vector(5, k)
        assert ech.contains(e_k) == (rref_rank(m + [e_k]) == rref_rank(m))
