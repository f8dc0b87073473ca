"""Polynomial ring basics: arithmetic, calculus, parsing, formatting."""

import inspect
import math
import typing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nijcalc import poly
from reference import (jet_apply_columns_by_fractions, jet_brackets_by_fractions,
                       jet_mul_by_fractions, lie_bracket, shift_by_fractions,
                       substitute_by_mul)


def p(text, n=4):
    return poly.parse_poly(text, n)


def test_zero_is_empty_dict():
    assert poly.zero() == {}
    assert poly.const(0, 3) == {}
    assert poly.is_zero(poly.sub(p("x1"), p("x1")))


def test_product_of_variables():
    # 1) x1 * x1 = x1^2
    assert poly.mul(p("x1"), p("x1")) == p("x1^2")
    # 2) additive identity
    assert poly.add(p("x2^2"), poly.zero()) == p("x2^2")
    # 3) difference of squares
    assert poly.mul(p("x1+x2"), p("x1-x2")) == p("x1^2-x2^2")


def test_mixed_num_vars_rejected():
    with pytest.raises(poly.PolyError):
        poly.add(poly.var(1, 2), poly.var(1, 4))


def test_diff_power_rule():
    assert poly.diff(p("x2^2"), 2) == p("2*x2")
    assert poly.diff(poly.const(5, 4), 1) == {}
    # f = x5 + eps*x5^2 with eps = 1/3
    f = poly.parse_poly("x5 + 1/3*x5^2", 6)
    assert poly.diff(f, 5) == poly.parse_poly("1 + 2/3*x5", 6)


def test_eval_exact():
    assert poly.eval_poly(p("x2^2"), [0, 3, 0, 0]) == 9
    assert poly.eval_poly(p("x1*x2"), [0, 0, 0, 0]) == 0
    assert poly.eval_poly(p("x2"), [0, Fraction(1, 2), 0, 0]) == Fraction(1, 2)


def test_parse_examples():
    assert p("x2^2") == {(0, 2, 0, 0): Fraction(1)}
    assert p("-1") == {(0, 0, 0, 0): Fraction(-1)}
    manual = poly.add(
        poly.monomial((1, 0, 1, 0), Fraction(1, 2)),
        poly.monomial((0, 1, 0, 0), Fraction(-1)),
    )
    assert p("1/2*x1*x3 - x2") == manual


def test_parse_errors_have_positions():
    with pytest.raises(poly.PolyError, match="position"):
        p("x1 +")
    with pytest.raises(poly.PolyError, match="x9"):
        p("x9")
    with pytest.raises(poly.PolyError):
        p("x1 ** 2")
    with pytest.raises(poly.PolyError):
        p("1/0")


def test_parse_parentheses_and_powers():
    assert p("(x1+x2)^2") == p("x1^2 + 2*x1*x2 + x2^2")
    assert p("-(x1 - 2)*x3") == p("2*x3 - x1*x3")
    assert p("2^3") == poly.const(8, 4)


def test_substitute_composes():
    # p(x1,x2) = x1^2 + x2 with x1 <- y1+y2, x2 <- y1*y2 (in 2 ambient vars)
    q = poly.parse_poly("x1^2 + x2", 2)
    reps = [poly.parse_poly("x1+x2", 2), poly.parse_poly("x1*x2", 2)]
    assert poly.substitute(q, reps, 2) == poly.parse_poly("x1^2 + 2*x1*x2 + x2^2 + x1*x2", 2)


def test_truncate_and_degree():
    q = p("1 + x1 + x1*x2 + x3^3")
    assert poly.total_degree(q) == 3
    assert poly.truncate(q, 1) == p("1 + x1")
    assert poly.low_degree_part(q, 2) == p("x1*x2")
    assert poly.total_degree(poly.zero()) == -1


small_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, num_vars=3, max_terms=4, max_exp=2):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, max_exp) for _ in range(num_vars)]),
            small_coeff,
        ),
        max_size=max_terms,
    ))
    out = {}
    for e, c in terms:
        if c:
            out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert poly.add(a, b) == poly.add(b, a)
    assert poly.mul(a, b) == poly.mul(b, a)
    assert poly.mul(a, poly.add(b, c)) == poly.add(poly.mul(a, b), poly.mul(a, c))
    assert poly.mul(poly.mul(a, b), c) == poly.mul(a, poly.mul(b, c))


@given(polys(), polys())
def test_eval_is_ring_homomorphism(a, b):
    pt = [Fraction(1, 2), Fraction(-2), Fraction(3)]
    assert poly.eval_poly(poly.mul(a, b), pt) == poly.eval_poly(a, pt) * poly.eval_poly(b, pt)
    assert poly.eval_poly(poly.add(a, b), pt) == poly.eval_poly(a, pt) + poly.eval_poly(b, pt)


@given(polys())
def test_mixed_partials_commute(a):
    d12 = poly.diff(poly.diff(a, 1), 2)
    d21 = poly.diff(poly.diff(a, 2), 1)
    assert d12 == d21


@given(polys())
def test_parse_of_format_roundtrips(a):
    assert poly.parse_poly(poly.format_poly(a), 3) == a


def test_lie_bracket_basic():
    """The reference bracket and the uncut jet_brackets on examples."""
    # [d1, x1*d2] = d2
    n = 2
    x = [poly.const(1, n), poly.zero()]
    y = [poly.zero(), poly.var(1, n)]
    assert lie_bracket(x, y, n) == [poly.zero(), poly.const(1, n)]
    assert poly.jet_brackets([x, y], [(0, 1)], math.inf) == [[poly.zero(), poly.const(1, n)]]
    # antisymmetry on a random pair
    u = [poly.parse_poly("x1*x2", n), poly.parse_poly("x2^2", n)]
    v = [poly.parse_poly("x1+x2", n), poly.parse_poly("x1", n)]
    lhs = lie_bracket(u, v, n)
    rhs = poly.vec_scale(lie_bracket(v, u, n), -1)
    assert lhs == rhs
    assert poly.jet_brackets([u, v], [(0, 1), (1, 0)], math.inf) == [lhs, lie_bracket(v, u, n)]


# ---------------------------------------------------------------------------
# jets at a point, against the global operations they shortcut
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
points3 = st.lists(rationals, min_size=3, max_size=3)


def jet_orders(top):
    """A cut from 0 to top, or math.inf: uncut."""
    return st.one_of(st.integers(0, top), st.just(math.inf))


def _shifted(p, pt):
    """p(x + pt) through the reference composition loop."""
    n = len(pt)
    return substitute_by_mul(
        p, [poly.add(poly.var(i + 1, n), poly.const(pt[i], n)) for i in range(n)], n)


@given(polys(max_exp=3), points3, st.integers(0, 7))
def test_shift_is_truncated_substitution(p, pt, order):
    want = poly.truncate(_shifted(p, pt), order)
    assert poly.shift(p, pt, order) == want
    if order >= poly.total_degree(p):
        assert poly.shift(p, pt, order) == _shifted(p, pt)
    assert poly.constant_term(poly.shift(p, pt, order)) == poly.eval_poly(p, pt)


def test_vector_sums_refuse_fields_of_different_lengths():
    x1 = poly.var(1, 2)
    with pytest.raises(poly.PolyError, match="vec_add got fields of 2 and 1 components"):
        poly.vec_add([x1, x1], [x1])
    with pytest.raises(poly.PolyError, match="vec_sub got fields of 1 and 2 components"):
        poly.vec_sub([x1], [x1, x1])


def test_shift_rejects_a_point_of_the_wrong_length():
    with pytest.raises(poly.PolyError):
        poly.shift(poly.var(1, 3), [1, 2], 2)


@st.composite
def shift_cases(draw):
    """A polynomial in 1-4 variables with coefficient denominators up to 12,
    a point with denominators up to 7, zeros and negatives among its
    coordinates, and an order from 0 to one past the degree."""
    n = draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))
    p = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=6))
    coord = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
    pt = draw(st.lists(coord, min_size=n, max_size=n))
    return p, pt, draw(st.integers(0, poly.total_degree(p) + 1))


@given(shift_cases())
@example(({}, [Fraction(1, 2)], 0))
# the y term cancels; then the y1 term cancels and comes back with a later monomial
@example(({(2,): Fraction(1), (1,): Fraction(-1)}, [Fraction(1, 2)], 2))
@example(({(1, 0): Fraction(-1), (2, 0): Fraction(1), (1, 1): Fraction(2)},
          [Fraction(1, 2), 1], 2))
@example(({(2, 1): Fraction(5, 12), (1, 0): Fraction(-7, 11), (0, 3): Fraction(2, 9)},
          [Fraction(-3, 7), Fraction(2, 5)], 3))
@example(({(1, 1, 0, 2): Fraction(1, 7), (0, 2, 1, 0): Fraction(-3, 10),
           (0, 0, 0, 0): Fraction(11)},
          [0, Fraction(5, 6), -2, Fraction(-1, 7)], 5))
def test_shift_matches_the_fraction_loop(case):
    """The integer-numerator shift gives the Fraction loop's polynomial,
    in the same key order, with no stored zero and Fraction coefficients."""
    p, pt, order = case
    got = poly.shift(p, pt, order)
    want = shift_by_fractions(p, pt, order)
    assert got == want and list(got) == list(want)
    assert all(type(c) is Fraction and c for c in got.values())


def test_float_coordinates_are_refused():
    """A float is the nearest binary fraction, not the point meant: both
    evaluation and shifting refuse it, even a float zero."""
    for pt in ([0.1, 0], [0, 0.0]):
        with pytest.raises(poly.PolyError, match="float"):
            poly.eval_poly({(1, 0): Fraction(1)}, pt)
        with pytest.raises(poly.PolyError, match="float"):
            poly.shift({(1, 0): Fraction(1)}, pt, 1)
        with pytest.raises(poly.PolyError, match="float"):
            poly.shift({}, pt, 1)


@pytest.mark.parametrize("c", [0.1, 0.0, 2.0])
def test_float_coefficients_are_refused(c):
    """const, monomial and scale refuse a float coefficient, even a float
    zero or an integral float, instead of storing its binary value."""
    with pytest.raises(poly.PolyError, match="float"):
        poly.const(c, 2)
    with pytest.raises(poly.PolyError, match="float"):
        poly.monomial((1, 0), c)
    with pytest.raises(poly.PolyError, match="float"):
        poly.scale({(1, 0): Fraction(1)}, c)
    with pytest.raises(poly.PolyError, match="float"):
        poly.scale({}, c)


@given(polys(), polys(), jet_orders(4))
def test_jet_mul_is_truncated_product(a, b, order):
    assert poly.jet_mul(a, b, order) == poly.truncate(poly.mul(a, b), order)


@given(polys(max_exp=3), st.lists(polys(num_vars=2), min_size=3, max_size=3),
       jet_orders(4))
@example({}, [{}, {}, {}], 2)
@example({(0, 0, 0): Fraction(3), (1, 0, 2): Fraction(-1)}, [{}, {}, {}], 0)
def test_jet_substitute_is_truncated_substitution(p, subs, order):
    subs = [{e: c for e, c in q.items() if any(e)} for q in subs]
    assert poly.jet_substitute(p, subs, 2, order) == \
        poly.truncate(substitute_by_mul(p, subs, 2), order)


def test_jet_substitute_rejects_a_constant_term():
    """Only under a finite cut: uncut, a constant term is a composition."""
    subs = [poly.parse_poly("x1", 2), poly.parse_poly("1 + x2", 2)]
    with pytest.raises(poly.PolyError, match="constant term"):
        poly.jet_substitute(poly.parse_poly("x1*x2", 2), subs, 2, 3)
    assert poly.jet_substitute(poly.parse_poly("x1*x2", 2), subs, 2, math.inf) == \
        poly.parse_poly("x1 + x1*x2", 2)


@given(st.lists(st.lists(polys(), min_size=3, max_size=3), min_size=3, max_size=3),
       points3, jet_orders(2))
def test_jet_brackets_are_jets_of_lie_brackets(fields, pt, order):
    """Brackets of (order + 1)-jets, cut at order, are the order-jets of
    the global brackets; the pairs may repeat and run in either direction."""
    jets = [[poly.shift(c, pt, order + 1) for c in f] for f in fields]
    pairs = [(0, 1), (1, 0), (2, 0), (1, 1), (0, 1)]
    got = poly.jet_brackets(jets, pairs, order)
    for (i, k), br in zip(pairs, got):
        want = lie_bracket(fields[i], fields[k], 3)
        assert br == [poly.shift(c, pt, order) for c in want]


# ---------------------------------------------------------------------------
# the integer-numerator jet kernels against their Fraction loops
# ---------------------------------------------------------------------------

def is_canonical(p, num_vars):
    """Nonzero Fraction coefficients (an int would print differently) and
    keys of the right length."""
    return all(type(c) is Fraction and c for c in p.values()) and \
        all(len(e) == num_vars for e in p)


# int-valued coefficients (denominator 1) and coefficients over up to 12
exact_coeff = st.one_of(st.integers(-6, 6).filter(bool).map(Fraction),
                        st.builds(Fraction, st.integers(-20, 20).filter(bool),
                                  st.integers(1, 12)))


def jet_polys(n, max_terms=5):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), exact_coeff,
                           max_size=max_terms)


@st.composite
def jet_mul_cases(draw):
    n = draw(st.integers(1, 3))
    return draw(jet_polys(n)), draw(jet_polys(n)), draw(jet_orders(6))


@given(jet_mul_cases())
@example(({}, {(1, 0): Fraction(1)}, 2))
@example(({(0,): Fraction(3)}, {(2,): Fraction(-1, 4)}, 1))
# x1 x2 gets +1, then -1 (popped), then +1 again, at the end of the order
@example(({(1, 0): Fraction(1), (0, 1): Fraction(1), (0, 0): Fraction(1)},
          {(0, 1): Fraction(1), (1, 0): Fraction(-1), (1, 1): Fraction(1)}, 2))
def test_jet_mul_matches_the_fraction_loop(case):
    p, q, order = case
    n = len(next(iter(p or q), ()))
    got, want = poly.jet_mul(p, q, order), jet_mul_by_fractions(p, q, order)
    assert got == want and list(got) == list(want)
    assert is_canonical(got, n)


@st.composite
def substitute_cases(draw):
    """A polynomial in 1-3 variables and one replacement per variable in
    1-3 variables, constant terms and zero replacements among them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(jet_polys(n))
    reps = draw(st.lists(jet_polys(m, 4), min_size=n, max_size=n))
    return p, reps, m


@given(substitute_cases())
@example(({}, [{(1,): Fraction(2)}], 1))
@example(({(2, 0): Fraction(1), (0, 0): Fraction(-1, 2)},
          [{(0,): Fraction(1), (1,): Fraction(-1)}, {}], 1))
# (1 + x1)(1 - x1) - 1 + (1 + x1)^2: the x1 term of the product, then the
# constant and then the x1^2 term cancel, and x1 comes back
@example(({(1, 1): Fraction(1), (0, 0): Fraction(-1), (2, 0): Fraction(1)},
          [{(0,): Fraction(1), (1,): Fraction(1)}, {(0,): Fraction(1), (1,): Fraction(-1)}],
          1))
def test_substitute_matches_the_product_loop(case):
    """substitute, the uncut jet_substitute, gives the product loop's
    polynomial in the same key order, constant terms included."""
    p, reps, m = case
    got, want = poly.substitute(p, reps, m), substitute_by_mul(p, reps, m)
    assert got == want and list(got) == list(want)
    assert is_canonical(got, m)


def test_substitute_rejects_a_wrong_replacement_count():
    with pytest.raises(poly.PolyError, match="2 substitutions for 3 variables"):
        poly.substitute(poly.var(1, 3), [poly.var(1, 2)] * 2, 2)


@st.composite
def jet_apply_cases(draw):
    """Columns and a field with zero polynomials among them, all-zero
    columns included; x has one component per column."""
    n, dim, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(jet_polys(n, 3), min_size=dim, max_size=dim),
                         min_size=ncols, max_size=ncols))
    x = draw(st.lists(jet_polys(n, 3), min_size=ncols, max_size=ncols))
    return cols, x, n, draw(jet_orders(5))


@given(jet_apply_cases())
@example(([[{}], [{}]], [{}, {}], 1, 2))
# x1 gets +1, then -1 and nothing more: no zero may be stored
@example(([[{(1,): Fraction(1)}]] * 2, [{(0,): Fraction(1)}, {(0,): Fraction(-1)}], 1, 2))
# x1 gets +1, then -1, then +2 across the three columns
@example(([[{(1,): Fraction(1)}]] * 3,
          [{(0,): Fraction(1)}, {(0,): Fraction(-1)}, {(0,): Fraction(2)}], 1, 2))
@example(([[{(1, 0): Fraction(1, 3)}, {}], [{}, {}]],
          [{}, {(0, 1): Fraction(5)}], 2, 3))
def test_jet_apply_columns_matches_the_fraction_loop(case):
    """One call applies the columns to x, to x reversed (other live
    columns) and to zero, each as the Fraction loop does it alone."""
    cols, x, n, order = case
    xs = [x, x[::-1], [{}] * len(x)]
    got = poly.jet_apply_columns(cols, xs, order)
    assert got == [jet_apply_columns_by_fractions(cols, y, order) for y in xs]
    assert all(len(v) == len(cols[0]) and all(is_canonical(c, n) for c in v) for v in got)


@pytest.mark.parametrize("x", [[poly.var(1, 2)], [poly.var(1, 2)] * 3],
                         ids=["short", "long"])
@pytest.mark.parametrize("apply", [
    poly.apply_columns, lambda cols, x: poly.jet_apply_columns(cols, [[{}, {}], x], 2)],
    ids=["apply_columns", "jet_apply_columns"])
def test_a_field_of_the_wrong_length_is_refused(apply, x):
    """Two columns take two components: a short field is not padded with
    zeros, and a long one is not cut."""
    cols = [[poly.var(1, 2), {}], [{}, poly.var(2, 2)]]
    with pytest.raises(poly.PolyError, match="for 2 columns"):
        apply(cols, x)


@st.composite
def jet_bracket_cases(draw):
    """1-3 vector fields in n variables with n components each, and pairs
    that may repeat, run in either direction or bracket a field with
    itself."""
    n, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fields = draw(st.lists(st.lists(jet_polys(n, 4), min_size=n, max_size=n),
                           min_size=count, max_size=count))
    pairs = draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
                          min_size=1, max_size=4))
    return fields, pairs, draw(jet_orders(3))


@given(jet_bracket_cases())
@example(([[{}, {}]] * 2, [(0, 1)], 1))
@example(([[{(0,): Fraction(2)}], [{(1,): Fraction(-1, 6)}]], [(0, 1), (1, 0)], 0))
# the x1 term of the first component gets +1, -1 and then +1 again
@example(([[{(1, 0): Fraction(1), (1, 1): Fraction(1)},
            {(1, 1): Fraction(-1), (0, 1): Fraction(1)}],
           [{(1, 1): Fraction(-1), (1, 0): Fraction(1)},
            {(0, 1): Fraction(-1), (0, 0): Fraction(1)}]], [(0, 1)], 1))
def test_jet_brackets_match_the_fraction_loop(case):
    fields, pairs, order = case
    n = len(fields[0])
    got = poly.jet_brackets(fields, pairs, order)
    want = jet_brackets_by_fractions(fields, pairs, order)
    assert got == want
    for br, ref in zip(got, want):
        assert [list(c) for c in br] == [list(c) for c in ref]
        assert all(is_canonical(c, n) for c in br)


# ---------------------------------------------------------------------------
# canonical form of every public function that returns polynomials
# ---------------------------------------------------------------------------

POLY_RETURNS = (poly.Poly, poly.PolyVec, typing.List[poly.PolyVec])


def poly_returning_functions():
    """The public functions of poly annotated to return a Poly, a PolyVec
    or a list of PolyVecs."""
    return sorted(name for name, f in inspect.getmembers(poly, inspect.isfunction)
                  if f.__module__ == poly.__name__ and not name.startswith("_")
                  and typing.get_type_hints(f).get("return") in POLY_RETURNS)


def _no_constant(q):
    return {e: c for e, c in q.items() if any(e)}


# name -> (arguments from three polynomials a, b, c in 3 variables, number of
# variables of the result); with b = -a, as in the example below, the first
# component of the matrix products and the bracket of a field with itself
# cancel to zero, and (a + c)(c - a) loses its cross terms
CANONICAL_CASES = {
    "add": lambda a, b, c: ((a, b), 3),
    "apply_columns": lambda a, b, c: (([[a, c], [a, b]], [b, a]), 3),
    "const": lambda a, b, c: ((poly.constant_term(a), 3), 3),
    "diff": lambda a, b, c: ((a, 2), 3),
    "jet_apply_columns": lambda a, b, c: (([[a, c], [a, b]], [[b, a], [a, c]], 2), 3),
    "jet_brackets": lambda a, b, c: (([[a, b, c], [c, a, b]], [(0, 1), (1, 0), (1, 1)], 2), 3),
    "jet_mul": lambda a, b, c: ((poly.add(a, c), poly.sub(c, a), 2), 3),
    "jet_substitute": lambda a, b, c: (
        (a, [_no_constant(b), _no_constant(c), _no_constant(poly.neg(b))], 3, 2), 3),
    "low_degree_part": lambda a, b, c: ((a, 2), 3),
    "monomial": lambda a, b, c: (((1, 0, 2), poly.constant_term(b)), 3),
    "mul": lambda a, b, c: ((poly.add(a, c), poly.sub(c, a)), 3),
    "neg": lambda a, b, c: ((a,), 3),
    "parse_poly": lambda a, b, c: ((poly.format_poly(a), 3), 3),
    "scale": lambda a, b, c: ((a, poly.constant_term(b)), 3),
    "shift": lambda a, b, c: ((a, [Fraction(1, 2), -1, 0], 3), 3),
    "sub": lambda a, b, c: ((a, b), 3),
    "substitute": lambda a, b, c: ((a, [b, c, a], 3), 3),
    "truncate": lambda a, b, c: ((a, 2), 3),
    "var": lambda a, b, c: ((2, 3), 3),
    "vec_add": lambda a, b, c: (([a, b], [b, c]), 3),
    "vec_scale": lambda a, b, c: (([a, b], poly.constant_term(c)), 3),
    "vec_scale_poly": lambda a, b, c: (([a, b], c), 3),
    "vec_sub": lambda a, b, c: (([a, b], [b, c]), 3),
    "vec_zero": lambda a, b, c: ((3,), 3),
    "zero": lambda a, b, c: ((), 3),
}


def test_every_polynomial_function_has_a_canonical_form_case():
    """A new public function returning polynomials gets a case below."""
    assert poly_returning_functions() == sorted(CANONICAL_CASES)


def _polys_of(result):
    if isinstance(result, dict):
        return [result]
    return [p for item in result for p in _polys_of(item)]


@pytest.mark.parametrize("name", poly_returning_functions())
@settings(max_examples=20)
@given(jet_polys(3, 4), jet_polys(3, 4), jet_polys(3, 4))
@example({(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(2)},
         {(1, 0, 0): Fraction(-1), (0, 0, 0): Fraction(-2)},
         {(0, 1, 0): Fraction(1, 2)})
def test_polynomial_functions_return_canonical_form(name, a, b, c):
    """No stored zero, every coefficient a Fraction, every key as long as
    the number of variables."""
    args, num_vars = CANONICAL_CASES[name](a, b, c)
    for p in _polys_of(getattr(poly, name)(*args)):
        assert is_canonical(p, num_vars), (name, p)
