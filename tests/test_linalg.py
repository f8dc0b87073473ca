"""Exact linear algebra and the quadratic extension field."""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nijcalc import linalg, quadext, tensor
from nijcalc.quadext import QuadExt, sqrt_exact
from nijcalc.tensor import PointTensor, TensorError
from reference import FractionEchelon, fraction_det, fraction_rref, mat_mul, solve_affine

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


def test_det_keeps_the_elimination_value_and_refuses_quadext():
    """The pivots differ from those of a column-by-column elimination, but
    the value is the same: -r^3 + 3 r^2 + 3 r - 6, by cofactors along the
    first row, is 4 at r = 2.  det works over Q: at r = sqrt 5 it raises
    ValueError naming the entry instead of giving 9 - 2 sqrt 5."""
    def m(r):
        return [[F(0), r, F(2)], [r, F(1), 1 + r], [F(3), F(0), r]]

    got = linalg.det(m(F(2)))
    assert got == 4 and type(got) is F
    got = linalg.det([[F(2), F(1)], [F(4), F(2)]])
    assert got == 0 and type(got) is F
    with pytest.raises(ValueError, match=r"entry QuadExt\(0, 1, sqrt\(5\)\): Echelon works over Q"):
        linalg.det(m(sqrt_exact(5)))


def test_echelon_insert_returns_the_pivot_or_zero():
    ech = linalg.Echelon()
    assert ech.insert([F(0), F(3), F(1)]) == F(3)
    assert ech.insert([F(2), F(6), F(2)]) == F(2)  # remainder (2, 0, 0)
    assert ech.insert([F(1), F(1), F(1, 3)]) == 0
    with pytest.raises(ValueError, match=r"entry QuadExt\(0, 1, sqrt\(5\)\)"):
        ech.insert([F(0), sqrt_exact(5), F(1)])
    assert ech.rank == 2


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


@st.composite
def spanning_lists(draw, dim=4):
    """1-3 rational vectors of length dim, then perhaps a zero vector or a
    combination of the others."""
    entry = st.one_of(st.just(0), st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    vecs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=3))
    extra = draw(st.sampled_from(["none", "zero", "dependent"]))
    if extra == "zero":
        vecs.append([0] * dim)
    elif extra == "dependent":
        coeffs = [draw(st.fractions(-2, 2, max_denominator=3)) for _ in vecs]
        vecs.append([sum((c * v[k] for c, v in zip(coeffs, vecs)), F(0)) for k in range(dim)])
    return vecs


@settings(deadline=None)
@given(spanning_lists(), spanning_lists(), st.booleans())
def test_intersect_spans_is_the_common_subspace(u, v, share):
    """Every returned vector lies in both spans, there are
    dim U + dim V - dim(U + V) of them, and they are their own canonical
    basis; share puts a vector of u into v."""
    if share:
        v = v + [u[-1]]
    got = linalg.intersect_spans(u, v)
    in_u, in_v = linalg.Echelon(u), linalg.Echelon(v)
    assert all(in_u.contains(w) and in_v.contains(w) for w in got)
    assert len(got) == linalg.rank(u) + linalg.rank(v) - linalg.rank(u + v)
    assert got == linalg.span_basis(got) and _all_fractions(got)


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


QUADEXT_OPERAND_ENTRIES = {
    "add": lambda q, r: q + r, "radd": lambda q, r: r + q,
    "sub": lambda q, r: q - r, "rsub": lambda q, r: r - q,
    "mul": lambda q, r: q * r, "rmul": lambda q, r: r * q,
    "truediv": lambda q, r: q / r, "rtruediv": lambda q, r: r / q,
    "eq": lambda q, r: q == r, "lt": lambda q, r: q < r, "le": lambda q, r: q <= r,
    "gt": lambda q, r: q > r, "ge": lambda q, r: q >= r,
}
# entry -> (call on a bad value, the float it was first tested with)
QUADEXT_FLOAT_ENTRIES = {
    "a": (lambda x: QuadExt(x, 1, 2), 0.1), "b": (lambda x: QuadExt(1, x, 2), 0.1),
    "d": (lambda x: QuadExt(1, 1, x), 2.0), "sqrt_exact": (sqrt_exact, 0.5),
    **{op: (lambda x, f=f: f(QuadExt(1, 1, 2), x), 0.1)
       for op, f in QUADEXT_OPERAND_ENTRIES.items()},
}


@pytest.mark.parametrize("entry", sorted(QUADEXT_FLOAT_ENTRIES))
def test_quadext_refuses_floats(entry):
    """A float would be read as its binary fraction (0.1 as
    3602879701896397/36028797018963968), a string parsed as a number:
    every entry raises, naming it.  Only == answers a string, with False,
    as it answers any object that is not a number."""
    call, x = QUADEXT_FLOAT_ENTRIES[entry]
    with pytest.raises(ValueError, match=r"float .*(0\.1|0\.5|2\.0)"):
        call(x)
    if entry == "eq":
        assert call("2") is False
        return
    with pytest.raises(ValueError, match="str .*'2'"):
        call("2")


@settings(max_examples=60)
@given(st.builds(QuadExt, st.fractions(-3, 3, max_denominator=4),
                 st.fractions(-3, 3, max_denominator=4), st.sampled_from([2, 5, F(1, 3)])),
       st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)))
@example(QuadExt(1, -2, 3), 0)
@example(QuadExt(1, -2, 3), F(0))
@example(QuadExt(0, 1, 2), -3)
def test_quadext_rational_operands_equal_the_field_operation(q, r):
    """An int or Fraction operand, on either side, gives what the same
    operation with QuadExt(r, 0, d) gives, component by component."""
    as_field = QuadExt(r, 0, q.d)
    for op in ("add", "radd", "sub", "rsub", "mul", "rmul"):
        f = QUADEXT_OPERAND_ENTRIES[op]
        got, want = f(q, r), f(q, as_field)
        assert type(got) is QuadExt, op
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d), op
        assert all(type(x) is Fraction for x in (got.a, got.b, got.d)), op


# each operation on the parts (a, b) and (c, e) of two elements over d
QUADEXT_FORMULAS = {
    "+": (lambda x, y: x + y, lambda a, b, c, e, d: (a + c, b + e)),
    "-": (lambda x, y: x - y, lambda a, b, c, e, d: (a - c, b - e)),
    "*": (lambda x, y: x * y, lambda a, b, c, e, d: (a * c + b * e * d, a * e + b * c)),
    "/": (lambda x, y: x / y, lambda a, b, c, e, d: (
        (a * c - b * e * d) / (c * c - e * e * d), (b * c - a * e) / (c * c - e * e * d))),
}
_parts = st.fractions(-4, 4, max_denominator=6)
_elements = st.builds(QuadExt, _parts, st.one_of(st.just(0), _parts),
                      st.sampled_from([2, 3, F(5, 4), F(2, 9)]))


@settings(max_examples=150)
@given(st.one_of(_elements, st.integers(-4, 4), _parts),
       st.one_of(_elements, st.integers(-4, 4), _parts))
@example(QuadExt(1, 0, 2), QuadExt(F(1, 2), 0, 3))
@example(QuadExt(0, 0, 3), QuadExt(1, 1, 2))
@example(QuadExt(1, 1, 2), QuadExt(0, 0, 2))
@example(3, QuadExt(0, 0, 5))
def test_quadext_arithmetic_equals_the_fraction_formulas(x, y):
    """+, -, * and / on integer numerators equal the Fraction formulas,
    for QuadExt, int and Fraction operands on either side.  The result is
    a QuadExt over the radicand of its irrational operand, else of its
    left QuadExt operand; a rational QuadExt over another radicand enters
    as its a.  A zero divisor raises ZeroDivisionError and two irrational
    operands over different radicands ValueError."""
    elements = [v for v in (x, y) if isinstance(v, QuadExt)]
    assume(elements)
    irrational = {v.d for v in elements if v.b}
    parts = [(v.a, v.b) if isinstance(v, QuadExt) else (F(v), F(0)) for v in (x, y)]
    d = next(iter(irrational)) if len(irrational) == 1 else elements[0].d
    for name, (op, formula) in QUADEXT_FORMULAS.items():
        if len(irrational) > 1:
            with pytest.raises(ValueError, match="mixed extensions"):
                op(x, y)
            continue
        if name == "/" and not parts[1][0] and not parts[1][1]:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        got = op(x, y)
        assert type(got) is QuadExt, name
        assert all(type(v) is F for v in (got.a, got.b, got.d)), name
        assert (got.a, got.b, got.d) == (*formula(*parts[0], *parts[1], d), d), name


def test_rational_quadexts_are_equal_across_radicands():
    """QuadExt(1, 0, 2) and QuadExt(1, 0, 3) both equal 1 and hash like
    it, so they equal each other; irrational elements over different
    radicands stay unequal."""
    a, b = QuadExt(1, 0, 2), QuadExt(1, 0, 3)
    assert a == 1 and b == 1 and a == b and b == a
    assert hash(a) == hash(b) == hash(1)
    assert QuadExt(F(1, 2), 0, 2) != QuadExt(1, 0, 3)
    assert QuadExt(1, 1, 2) != QuadExt(1, 1, 3)


def test_a_rational_quadext_of_another_radicand_is_a_rational_operand():
    """QuadExt(3, 0, 5) is the rational 3 next to 1 + sqrt(2), as the right
    operand and as the left one; two irrational operands over different
    radicands still raise, in either order."""
    x, three = QuadExt(1, 1, 2), QuadExt(3, 0, 5)
    for op, f in QUADEXT_OPERAND_ENTRIES.items():
        for got, want in ((f(x, three), f(x, 3)), (f(three, x), f(3, x))):
            assert got == want, op
            if isinstance(got, QuadExt):
                assert (got.a, got.b, got.d) == (want.a, want.b, 2), op
    for left, right in ((x, QuadExt(1, 1, 3)), (QuadExt(1, 1, 3), x)):
        for op in ("add", "sub", "mul", "truediv", "lt"):
            with pytest.raises(ValueError, match="mixed extensions"):
                QUADEXT_OPERAND_ENTRIES[op](left, right)


def test_quadext_integer_form_is_canonical():
    """One element reached through numerators that share a factor, or
    over a denominator not in lowest terms, equals the element written
    directly and hashes alike; a rational element hashes like its
    Fraction; a, b and d read as Fractions in lowest terms."""
    x, direct = QuadExt(F(1, 2), F(1, 6), 2), QuadExt(1, F(1, 3), 2)
    for got in (x + x, x * 2, 2 * x, x / F(1, 2), (x * 6) / 3, x - (-x),
                x * QuadExt(F(6, 4), 0, 2) + x / 2, QuadExt(F(4, 4), F(2, 6), F(8, 4))):
        assert got == direct and hash(got) == hash(direct), got
    y = QuadExt(F(3, 4), F(1, 5), F(1, 3))
    for got, want in ((y + y.conjugate(), F(3, 2)), (y - QuadExt(0, F(1, 5), F(1, 3)), F(3, 4)),
                      ((y * 10) / (y * 5), F(2)), (x + x.conjugate(), F(1))):
        assert not got.b and got == want and hash(got) == hash(want), got
    for v in (x + x, y * y, y * 3, x / 7):
        for part in (v.a, v.b, v.d):
            assert type(part) is F and math.gcd(part.numerator, part.denominator) == 1


def test_elimination_over_quadext():
    """Invariant-line style solve with irrational entries: rref and its
    nullspace work over Q(sqrt 5), rank (Echelon) over Q alone."""
    r5 = sqrt_exact(5)
    m = [[QuadExt(1, 0, 5), r5], [r5, QuadExt(5, 0, 5)]]
    assert linalg.rref(m)[1] == [0]
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    assert linalg.vec_is_zero(linalg.mat_vec(m, ns[0]))
    with pytest.raises(ValueError, match="Echelon works over Q"):
        linalg.rank(m)


# ---------------------------------------------------------------------------
# differential tests: the eliminations against sympy, the integer-numerator
# kernels against the Fraction loops they replaced, and the QuadExt loop
# against the dense elimination
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


def _with_rref(elimination, fn, *args):
    """fn(*args) with linalg.rref swapped for a reference elimination."""
    real = linalg.rref
    linalg.rref = elimination
    try:
        return fn(*args)
    finally:
        linalg.rref = real


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
    expect = _with_rref(dense_rref, linalg.solve, m, b)
    assert (sol is None) == (expect is None)
    if sol is not None:
        assert [(type(x), x) for x in sol] == [(type(x), x) for x in expect]


one_radicand_entries = st.one_of(
    st.just(QuadExt(0, 0, 5)),
    st.builds(QuadExt, st.fractions(-2, 2, max_denominator=2),
              st.fractions(-2, 2, max_denominator=2), st.just(5)))


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.booleans(), st.data())
def test_quadext_elimination_matches_the_fraction_loop(rows, cols, mixed, data):
    """Every entry a QuadExt over one radicand, or Fractions and QuadExts
    mixed: rref, solve and nullspace give fraction_rref's values and the
    type of every one of its entries."""
    entry = quad_entries if mixed else one_radicand_entries
    m = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    b = [data.draw(entry) for _ in range(rows)]
    red, pivots = linalg.rref(m)
    ref, ref_pivots = fraction_rref(m)
    assert pivots == ref_pivots and _typed(red) == _typed(ref)
    sol = linalg.solve(m, b)
    expect = _with_rref(fraction_rref, linalg.solve, m, b)
    assert (sol is None) == (expect is None)
    if sol is not None:
        assert _typed([sol]) == _typed([expect])
    assert _typed(linalg.nullspace(m)) == _typed(_with_rref(fraction_rref, linalg.nullspace, m))


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


# ---------------------------------------------------------------------------
# rational input: integer numerators against the Fraction loops, ints read
# as Fractions, floats and mis-shaped vectors refused
# ---------------------------------------------------------------------------

@st.composite
def rational_matrices(draw, square=False):
    """0-8 rows of 1-8 int and Fraction entries, denominators up to 7: some
    with zero rows, some all zero, some with a last row in the span of the
    others."""
    rows = draw(st.integers(0, 8))
    cols = rows if square else draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(F(0)), st.integers(-5, 5),
                      st.fractions(-4, 4, max_denominator=7))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    shape = draw(st.sampled_from(["plain", "zero rows", "all zero", "dependent last"]))
    if shape == "zero rows" and rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=3)):
            m[i] = [0] * cols
    elif shape == "all zero":
        m = [[F(0)] * cols for _ in range(rows)]
    elif shape == "dependent last" and rows >= 2:
        coeffs = [draw(st.fractions(-2, 2, max_denominator=7)) for _ in range(rows - 1)]
        m[-1] = [sum((c * row[k] for c, row in zip(coeffs, m)), F(0)) for k in range(cols)]
    return m


def _as_fractions(m):
    return [[F(x) for x in row] for row in m]


def _all_fractions(m):
    return all(type(x) is F for row in m for x in row)


@settings(deadline=None)
@given(rational_matrices())
@example([[F(1, 2), 3, 0, F(-5, 7)]])
@example([[2], [F(1, 3)], [0], [-4]])
@example([[0, 1, 2], [3, 0, F(1, 2)]])  # a later row holds the first pivot
@example([[1, 2, 3], [1, 2, 3], [0, F(1, 3), 1]])  # a duplicate leading row
@example([[0, 2, 1], [0, F(1, 2), 3], [0, 0, 0]])  # an all-zero first column
@example([[0, 0, 1], [0, 1, 2], [1, 2, F(3, 5)]])  # pivots in falling order
@example([[1, 2], [3, 4], [5, F(6, 7)], [0, -1], [F(1, 3), 0]])  # more rows than columns
def test_rref_and_nullspace_match_the_fraction_loop(m):
    """Equal values and pivots, every entry a Fraction; the reference gets
    the same matrix as Fractions, since int / int is a float there.  The
    examples insert rows into Echelon in an order other than that of
    their pivot columns."""
    fm = _as_fractions(m)
    red, pivots = linalg.rref(m)
    ref, ref_pivots = fraction_rref(fm)
    assert pivots == ref_pivots and red == ref and _all_fractions(red)
    kernel = linalg.nullspace(m)
    assert kernel == _with_rref(fraction_rref, linalg.nullspace, fm)
    assert _all_fractions(kernel)
    assert linalg.span_basis(m) == ref[:len(ref_pivots)]


@settings(deadline=None)
@given(rational_matrices(), st.data())
def test_solve_matches_the_fraction_loop(m, data):
    """Consistent right-hand sides (m x) and arbitrary ones."""
    cols = len(m[0]) if m else 0
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7))
    if data.draw(st.booleans()):
        b = linalg.mat_vec(m, [data.draw(entry) for _ in range(cols)]) if m else []
    else:
        b = [data.draw(entry) for _ in m]
    sol = linalg.solve(m, b)
    assert sol == _with_rref(fraction_rref, linalg.solve, _as_fractions(m),
                             [F(x) for x in b])
    if sol is not None and m:
        assert all(type(x) is F for x in sol) and linalg.mat_vec(m, sol) == b


@settings(deadline=None)
@given(rational_matrices(square=True))
@example([[2, 1], [4, 3]])
def test_det_matches_the_fraction_loop(m):
    got = linalg.det(m)
    assert got == fraction_det(_as_fractions(m)) and type(got) is F


@settings(deadline=None)
@given(rational_matrices(), st.lists(st.fractions(-3, 3, max_denominator=7),
                                     min_size=8, max_size=8))
def test_echelon_matches_the_fraction_loop(m, v):
    """insert returns the reference pivot value, or 0; reduce the
    reference remainder, as Fractions."""
    ech, ref = linalg.Echelon(), FractionEchelon()
    for row in m:
        pivot = ech.insert(row)
        assert pivot == ref.insert([F(x) for x in row])
        assert type(pivot) is F if pivot else pivot == 0
    assert [p for p, _ in ech.rows] == [p for p, _ in ref.rows]
    for w in m + [v[:len(m[0])] if m else []]:
        rem = ech.reduce(w)
        assert rem == ref.reduce([F(x) for x in w]) and all(type(x) is F for x in rem)
        assert ech.contains(w) == ref.contains([F(x) for x in w])


@settings(deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=6))
def test_echelon_takes_an_integer_row_as_it_stands(rows):
    """A vector of ints enters as its own numerators over 1: the rows,
    pivot values and remainders are those of the same vectors as
    Fractions, no denominator is read, and the caller's lists are left
    as they were."""
    given_rows = [list(row) for row in rows]
    ints, fracs = linalg.Echelon(), linalg.Echelon()
    real, read = linalg._numerators, []
    linalg._numerators = lambda v: read.append(v) or real(v)
    try:
        pivots = [ints.insert(row) for row in rows]
        remainders = [ints.reduce(row) for row in rows]
    finally:
        linalg._numerators = real
    assert read == [] and rows == given_rows
    assert pivots == [fracs.insert([F(x) for x in row]) for row in rows]
    assert ints.rows == fracs.rows
    assert remainders == [fracs.reduce([F(x) for x in row]) for row in rows]


@pytest.mark.parametrize("name, args", [
    ("rref", ([[0, 1], [2, F(1, 2)]],)),
    ("nullspace", ([[1, 2, F(1, 3)]],)),
    ("solve", ([[1, 2], [3, 4]], [1, F(1, 2)])),
    ("inverse", ([[1, 2], [3, 4]],)),
    ("span_basis", ([[1, 2], [2, 4]],)),
])
def test_rational_elimination_runs_through_echelon(name, args, monkeypatch):
    """rref and what is built on it eliminate rational input with
    Echelon's step, so a second rational elimination loop shows here."""
    reached = []
    real = linalg.Echelon._reduce

    def spy(self, v):
        reached.append(v)
        return real(self, v)

    monkeypatch.setattr(linalg.Echelon, "_reduce", spy)
    getattr(linalg, name)(*args)
    assert reached


def test_int_input_gives_fractions():
    """int / int is a float: integer matrices are eliminated exactly."""
    red, pivots = linalg.rref([[2, 1], [4, 3]])
    assert _typed(red) == _typed(linalg.identity(2)) and pivots == [0, 1]
    got = linalg.det([[2, 1], [4, 3]])
    assert got == 2 and type(got) is F
    kernel = linalg.nullspace([[2, 4, 1]])
    assert _typed(kernel) == _typed([[F(-2), F(1), F(0)], [F(-1, 2), F(0), F(1)]])
    ech = linalg.Echelon([[3, 1]])
    assert _typed([ech.reduce([1, 0])]) == _typed([[F(0), F(-1, 3)]])


def test_a_quadext_vector_leaves_an_echelon_unchanged():
    """Rational rows, then a QuadExt vector: contains, reduce and insert
    refuse it, naming the entry, and the span keeps its pivots and
    remainders, those of the Fraction elimination."""
    r5 = sqrt_exact(5)
    rows = [[F(0), 3, F(1, 2)], [2, F(1, 3), 0]]
    ech, ref = linalg.Echelon(rows), FractionEchelon(_as_fractions(rows))
    for call in (ech.contains, ech.reduce, ech.insert):
        with pytest.raises(ValueError, match=r"entry QuadExt\(0, 1, sqrt\(5\)\)"):
            call([r5, r5, F(0)])
    assert ech.rank == 2 and [p for p, _ in ech.rows] == [p for p, _ in ref.rows]
    assert ech.reduce([1, 2, 3]) == ref.reduce([F(1), F(2), F(3)])
    assert ech.insert([1, 2, 3]) == ref.insert([F(1), F(2), F(3)])
    assert ech.rank == 3 and ech.contains([1, 2, 3])


@pytest.mark.parametrize("call, match", [
    (lambda: linalg.mat_vec([[1, 2, 3]], [1, 1]), "lengths 3 and 2"),
    (lambda: linalg.mat_vec([[1, 2], [1]], [1, 1]), "lengths 1 and 2"),
    (lambda: linalg.vec_add([1, 2], [1]), "lengths 2 and 1"),
    (lambda: linalg.vec_sub([1], [1, 2]), "lengths 1 and 2"),
])
def test_vector_helpers_refuse_mismatched_lengths(call, match):
    """A dropped column or a truncated sum would answer another question."""
    with pytest.raises(ValueError, match=match):
        call()


def _returns_entries(f) -> bool:
    ret = f.__annotations__.get("return", "")
    return "Vector" in ret or "Matrix" in ret


def entry_returning_functions():
    """The public functions of linalg annotated to return a vector or a
    matrix (or a list of vectors)."""
    return sorted(name for name, f in inspect.getmembers(linalg, inspect.isfunction)
                  if f.__module__ == linalg.__name__ and not name.startswith("_")
                  and _returns_entries(f))


# name -> arguments from a nonsingular 3x3 matrix m and a vector v of ints
# and Fractions; basis_vector and identity take no entries
EXACT_CASES = {
    "basis_vector": lambda m, v: (3, 1),
    "identity": lambda m, v: (3,),
    "intersect_spans": lambda m, v: (m[:2], [v, m[0]]),
    "inverse": lambda m, v: (m,),
    "mat_vec": lambda m, v: (m, v),
    "nullspace": lambda m, v: (m[:2],),
    "rref": lambda m, v: (m,),
    "solve": lambda m, v: (m, v),
    "span_basis": lambda m, v: (m,),
    "sum_spans": lambda m, v: (m[:1], [v]),
    "vec_add": lambda m, v: (v, m[0]),
    "vec_scale": lambda m, v: (v, m[1][1]),
    "vec_sub": lambda m, v: (v, m[0]),
}
EXACT_M = [[2, 1, 0], [4, 3, F(1, 2)], [0, F(-1, 3), 5]]
EXACT_V = [1, F(2, 3), -1]


def test_every_entry_returning_function_has_an_exact_case():
    """A new public function returning vectors or matrices gets a case."""
    assert entry_returning_functions() == sorted(EXACT_CASES)


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [y for item in x for y in _flat(item)]
    return [x]


@pytest.mark.parametrize("name", entry_returning_functions())
def test_rational_input_returns_fractions_and_floats_raise(name):
    out = getattr(linalg, name)(*EXACT_CASES[name](EXACT_M, EXACT_V))
    if name == "rref":
        out = out[0]  # the pivot columns are ints
    entries = _flat(out)
    assert entries and all(type(x) is F for x in entries), (name, out)
    fm = [list(row) for row in EXACT_M]
    fm[1][1] = 0.5
    args = EXACT_CASES[name](fm, [EXACT_V[0], 0.5, EXACT_V[2]])
    if not any(isinstance(x, float) for x in _flat(args)):
        return  # basis_vector, identity
    with pytest.raises(ValueError, match="float entry 0.5"):
        getattr(linalg, name)(*args)


@pytest.mark.parametrize("call", [
    lambda: linalg.det([[1, 0.5], [0, 1]]),
    lambda: linalg.rank([[1, 0.5]]),
    lambda: linalg.in_span([0.5, 1], [[1, 0]]),
    lambda: linalg.Echelon([[1, 0]]).reduce([0.5, 1]),
    lambda: linalg.Echelon([[1, 0]]).contains([0.5, 1]),
    lambda: linalg.Echelon().insert([0.5, 1]),
    lambda: linalg.rref([[sqrt_exact(2), 0.5]]),
    lambda: linalg.span_basis([[0.5, 0.0], [1, 0]]),
    lambda: linalg.span_basis([[0.0, 0.0], [1, 0]]),
])
def test_floats_are_refused_wherever_they_stand(call):
    """Also where the result is a scalar, a QuadExt shares the matrix, or
    the float vector is zero and adds nothing to the span."""
    with pytest.raises(ValueError, match=r"float entry 0\.[05]"):
        call()


@pytest.mark.parametrize("call", [
    lambda: linalg.det([[1, "1/2"], [0, 1]]),
    lambda: linalg.rank([[1, "1/2"]]),
    lambda: linalg.span_dim([[1, "1/2"]]),
    lambda: linalg.in_span(["1/2", 1], [[1, 0]]),
    lambda: linalg.Echelon([[1, 0]]).reduce(["1/2", 1]),
    lambda: linalg.rref([[1, "1/2"]]),
    lambda: linalg.rref([[sqrt_exact(2), "1/2"]]),
    lambda: linalg.solve([[1, 0], [0, 1]], [1, "1/2"]),
    lambda: linalg.mat_vec([[1, "1/2"]], [1, 1]),
    lambda: linalg.span_basis([["1/2", 0], [1, 0]]),
])
def test_strings_are_refused_wherever_they_stand(call):
    """Fraction would parse '1/2' as one half, and a string among
    QuadExts would fail late inside the arithmetic: each entry point
    raises ValueError naming the string."""
    with pytest.raises(ValueError, match="str entry '1/2'"):
        call()


@pytest.mark.parametrize("call", [
    lambda: linalg.det([[1, None], [0, 1]]),
    lambda: linalg.rank([[1, None]]),
    lambda: linalg.Echelon([[1, 0]]).contains([None, 1]),
    lambda: linalg.rref([[1, None]]),
    lambda: linalg.rref([[sqrt_exact(2), None]]),
    lambda: linalg.nullspace([[None, 1]]),
    lambda: linalg.solve([[1, 0], [0, 1]], [1, None]),
    lambda: linalg.span_basis([[None, 0], [1, 0]]),
    lambda: linalg.mat_vec([[1, 1]], [None, 1]),
    lambda: linalg.vec_add([1, None], [1, 1]),
])
def test_none_is_refused_wherever_it_stands(call):
    """None would fail late, inside the arithmetic, or be named as an
    entry outside Q: each entry point raises ValueError naming it."""
    with pytest.raises(ValueError, match="NoneType entry None"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: linalg.rref([[1, 2, 3], [1, 1]]), r"lengths \[3, 2\]"),
    (lambda: linalg.rref([[sqrt_exact(2), 1], [1]]), r"lengths \[2, 1\]"),
    (lambda: linalg.nullspace([[1, 1, 0], [0, 1]]), r"lengths \[3, 2\]"),
    (lambda: linalg.span_basis([[1, 0, 0], [0, 1]]), r"lengths \[3, 2\]"),
    (lambda: linalg.intersect_spans([[1, 0, 0]], [[1, 0]]), r"lengths \[3, 2\]"),
    (lambda: linalg.intersect_spans([[1, 0]], [[1, 0, 0]]), r"lengths \[2, 3\]"),
    (lambda: linalg.rank([[1, 0, 0], [0, 1]]), "length 2 for an Echelon of 3"),
    (lambda: linalg.in_span([1, 1], [[1, 0, 0], [0, 1, 0]]), "length 2 for an Echelon of 3"),
    (lambda: linalg.Echelon([[1, 0]]).reduce([1, 0, 0]), "length 3 for an Echelon of 2"),
    (lambda: linalg.Echelon([[0, 0]]).insert([1]), "length 1 for an Echelon of 2"),
    (lambda: linalg.Echelon([[F(1, 2), 0]]).contains([1]), "length 1 for an Echelon of 2"),
])
def test_ragged_vectors_are_refused_wherever_they_enter(call, match):
    """A short row read as zero-padded, or a long one cut, would answer
    another question; a zero vector still fixes the length."""
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# where Q(sqrt d) is accepted: the contract
# ---------------------------------------------------------------------------

_R5 = QuadExt(0, 1, 5)
_Q_M = [[_R5, F(1)], [F(2), _R5]]  # det 3: nonsingular
_Q_V = [_R5, F(1)]
_T = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(1, 1 + idx[0])])
# the constructors hold rationals only, so the QuadExt is stored by hand
_Q_T = PointTensor(2, 2, 2, {idx: [_R5 if idx == (0, 1) else x for x in v]
                             for idx, v in _T.entries.items()})

# entry point -> (a call with a QuadExt among its inputs, the error it
# raises, or None where the call computes over Q(sqrt 5))
QUADEXT_CONTRACT = {
    "rref": (lambda: linalg.rref(_Q_M), None),
    "nullspace": (lambda: linalg.nullspace([_Q_V]), None),
    "solve": (lambda: linalg.solve(_Q_M, _Q_V), None),
    "inverse": (lambda: linalg.inverse(_Q_M), None),
    "span_basis": (lambda: linalg.span_basis(_Q_M), None),
    "mat_vec": (lambda: linalg.mat_vec(_Q_M, _Q_V), None),
    "vec_add": (lambda: linalg.vec_add(_Q_V, _Q_V), None),
    "vec_sub": (lambda: linalg.vec_sub(_Q_V, [F(0), F(1)]), None),
    "vec_scale": (lambda: linalg.vec_scale(_Q_V, _R5), None),
    "PointTensor.apply": (lambda: _T.apply([_Q_V, _Q_V]), None),
    "Echelon": (lambda: linalg.Echelon(_Q_M), ValueError),
    "rank": (lambda: linalg.rank(_Q_M), ValueError),
    "span_dim": (lambda: linalg.span_dim(_Q_M), ValueError),
    "in_span": (lambda: linalg.in_span(_Q_V, [[1, 0]]), ValueError),
    "det": (lambda: linalg.det(_Q_M), ValueError),
    "contraction_sum": (lambda: tensor.contraction_sum(
        2, 2, 2, [(1, None, _T, None, None), (1, None, _Q_T, None, None)]), TensorError),
    "first_nonzero_sum": (lambda: tensor.first_nonzero_sum(
        2, 2, 2, [[(1, None, _T, None, None)], [(1, None, _Q_T, None, None)]]), TensorError),
    "first_difference": (lambda: tensor.first_difference(_T, _Q_T), TensorError),
    "kernel_matrix": (lambda: tensor.kernel_matrix(_T, _Q_V), TensorError),
    "kernel_matrices": (lambda: list(tensor.kernel_matrices(_T, [[1, 0], _Q_V])), TensorError),
}


@pytest.mark.parametrize("entry", sorted(QUADEXT_CONTRACT))
def test_which_entry_points_take_a_quadext(entry):
    """Q(sqrt d) is computed in where the 4D frame needs it: rref and the
    eliminations built on it, the vector helpers and PointTensor.apply
    return QuadExt entries.  Echelon and what uses it (rank, span_dim,
    in_span, det) and the contraction kernel work over Q alone: each
    raises its error, of exactly that class, naming the QuadExt."""
    call, error = QUADEXT_CONTRACT[entry]
    if error is None:
        assert any(type(x) is QuadExt for x in _flat(call()))
        return
    with pytest.raises(error, match=r"QuadExt\(0, 1, sqrt\(5\)\)") as raised:
        call()
    assert type(raised.value) is error
