"""Polynomial ring basics: arithmetic, calculus, parsing, formatting."""

import inspect
import math
import typing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nijcalc import poly
from nijcalc.invariants import torsion_jets
from reference import (jet_apply_columns_by_fractions, jet_brackets_by_fractions,
                       jet_mul_by_fractions, jet_substitute_by_fractions, lie_bracket,
                       shift_by_fractions, substitute_by_mul)


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


@pytest.mark.parametrize("op", [poly.add, poly.sub, poly.mul])
def test_ring_operations_check_every_key(op):
    """Every key of both operands is checked, not only the first: a short
    key further in would be zipped into a key of the wrong length."""
    mixed = {(1, 0): Fraction(1), (1,): Fraction(2)}
    for p, q in ((mixed, {(0, 1): Fraction(1)}), ({(0, 1): Fraction(1)}, mixed), (mixed, {})):
        with pytest.raises(poly.PolyError, match=r"mixed variable counts: \[1, 2\]"):
            op(p, q)


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
    (got,) = poly.shift([p], pt, order)
    assert got == poly.truncate(_shifted(p, pt), order)
    if order >= poly.total_degree(p):
        assert got == _shifted(p, pt)
    assert poly.constant_term(got) == poly.eval_poly(p, pt)


def test_vector_sums_refuse_fields_of_different_lengths():
    x1 = poly.var(1, 2)
    with pytest.raises(poly.PolyError, match="vec_add got fields of 2 and 1 components"):
        poly.vec_add([x1, x1], [x1])
    with pytest.raises(poly.PolyError, match="vec_sub got fields of 1 and 2 components"):
        poly.vec_sub([x1], [x1, x1])


def test_shift_rejects_a_point_of_the_wrong_length():
    with pytest.raises(poly.PolyError):
        poly.shift([poly.var(1, 2), poly.var(1, 3)], [1, 2], 2)


@st.composite
def shift_cases(draw):
    """Up to three polynomials in 1-4 variables, zero ones among them, with
    coefficient denominators up to 12, a point with denominators up to 7,
    zeros and negatives among its coordinates, and an order from 0 to one
    past the top degree."""
    n = draw(st.integers(1, 4))
    coeff = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))
    ps = draw(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff,
                                       max_size=6), max_size=3))
    coord = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
    pt = draw(st.lists(coord, min_size=n, max_size=n))
    top = max(map(poly.total_degree, ps), default=0)
    return ps, pt, draw(st.integers(0, top + 1))


@given(shift_cases())
@example(([{}], [Fraction(1, 2)], 0))
# the y term cancels; then the y1 term cancels and comes back with a later monomial
@example(([{(2,): Fraction(1), (1,): Fraction(-1)}], [Fraction(1, 2)], 2))
@example(([{(1, 0): Fraction(-1), (2, 0): Fraction(1), (1, 1): Fraction(2)}],
          [Fraction(1, 2), 1], 2))
@example(([{(2, 1): Fraction(5, 12), (1, 0): Fraction(-7, 11), (0, 3): Fraction(2, 9)}],
          [Fraction(-3, 7), Fraction(2, 5)], 3))
@example(([{(1, 1, 0, 2): Fraction(1, 7), (0, 2, 1, 0): Fraction(-3, 10),
            (0, 0, 0, 0): Fraction(11)}],
          [0, Fraction(5, 6), -2, Fraction(-1, 7)], 5))
# the cancelling pairs above in one call, around a zero polynomial: they
# share the images of x1 and x1^2
@example(([{(2, 0): Fraction(1), (1, 0): Fraction(-1)}, {},
           {(1, 0): Fraction(-1), (2, 0): Fraction(1), (1, 1): Fraction(2)}],
          [Fraction(1, 2), 1], 2))
def test_shift_matches_the_fraction_loop(case):
    """One shift call over several polynomials gives the Fraction loop's
    polynomial for each, in the same key order, with no stored zero and
    Fraction coefficients."""
    ps, pt, order = case
    got = poly.shift(ps, pt, order)
    assert len(got) == len(ps)
    for g, p in zip(got, ps):
        want = shift_by_fractions(p, pt, order)
        assert g == want and list(g) == list(want)
        assert all(type(c) is Fraction and c for c in g.values())


def test_float_coordinates_are_refused():
    """A float is the nearest binary fraction, not the point meant: both
    evaluation and shifting refuse it, even a float zero."""
    for pt in ([0.1, 0], [0, 0.0]):
        with pytest.raises(poly.PolyError, match="float"):
            poly.eval_poly({(1, 0): Fraction(1)}, pt)
        with pytest.raises(poly.PolyError, match="float"):
            poly.shift([{(1, 0): Fraction(1)}], pt, 1)
        with pytest.raises(poly.PolyError, match="float coordinate"):
            poly.shift([{}], pt, 1)


def test_strings_are_refused_as_numbers():
    """Fraction would parse a string as a number; evaluation, shifting,
    const and scale refuse it by value instead of reading (1/2, 0).  None
    is refused the same way, naming it, instead of failing inside
    Fraction."""
    p = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    with pytest.raises(poly.PolyError, match="string coordinate '1/2'"):
        poly.eval_poly(p, ['1/2', '0'])
    with pytest.raises(poly.PolyError, match="string coordinate '1/2'"):
        poly.shift([p], ['1/2', 0], 2)
    with pytest.raises(poly.PolyError, match="string coefficient '1/2'"):
        poly.const('1/2', 2)
    with pytest.raises(poly.PolyError, match="string coefficient '2'"):
        poly.scale(p, '2')
    with pytest.raises(poly.PolyError, match="NoneType coordinate None"):
        poly.eval_poly(p, [None, 0])
    with pytest.raises(poly.PolyError, match="NoneType coordinate None"):
        poly.shift([p], [0, None], 2)
    with pytest.raises(poly.PolyError, match="NoneType coefficient None"):
        poly.const(None, 2)
    with pytest.raises(poly.PolyError, match="NoneType coefficient None"):
        poly.scale(p, None)


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
    """Constant terms included: cutting above a degree is a ring
    homomorphism."""
    assert poly.jet_substitute([p], subs, 2, order) == \
        [poly.truncate(substitute_by_mul(p, subs, 2), order)]


def test_jet_substitute_reads_monomials_above_the_cut_under_a_constant_term():
    """With 1 + x2 for x2, x1 x2^3 (degree 4) reaches x1 (degree 1), so a
    finite cut reads p uncut: the result is the truncated composition."""
    subs = [poly.parse_poly("x1", 2), poly.parse_poly("1 + x2", 2)]
    p = poly.parse_poly("x1*x2^3 - x1^3", 2)
    assert poly.jet_substitute([p], subs, 2, 1) == [poly.parse_poly("x1", 2)]
    for order in (0, 1, 2, 3, 4, math.inf):
        assert poly.jet_substitute([p], subs, 2, order) == \
            [poly.truncate(substitute_by_mul(p, subs, 2), order)]


@st.composite
def jet_substitute_cases(draw):
    """Up to three polynomials in 1-3 variables, zero ones among them, one
    substitution per variable in 1-3 variables, constant terms among them,
    and a cut."""
    n, m, order = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(jet_orders(5))
    ps = draw(st.lists(jet_polys(n), max_size=3))
    subs = draw(st.lists(jet_polys(m, 4), min_size=n, max_size=n))
    return ps, subs, m, order


@given(jet_substitute_cases())
@example(([], [{(1,): Fraction(1)}], 1, 2))
# x1 x2 + x1^2 + x2^2 with x1 = y, x2 = -y + y^2, cut at 3: the y^2 of the
# first two terms cancels, and the third brings it back after y^3
@example(([{}, {(1, 1): Fraction(1), (2, 0): Fraction(1), (0, 2): Fraction(1)}],
          [{(1,): Fraction(1)}, {(1,): Fraction(-1), (2,): Fraction(1)}], 1, 3))
# every monomial above the cut: zero
@example(([{(1, 1): Fraction(1, 2), (3, 0): Fraction(2)}],
          [{(1, 0): Fraction(1, 3)}, {(0, 1): Fraction(-2)}], 2, 1))
def test_jet_substitute_matches_the_fraction_loop(case):
    """Every polynomial of one call through the shared integer image table
    equals the one-polynomial Fraction loop, in values and key order."""
    ps, subs, m, order = case
    got = poly.jet_substitute(ps, subs, m, order)
    assert len(got) == len(ps)
    for g, p in zip(got, ps):
        want = jet_substitute_by_fractions(p, subs, m, order)
        assert g == want and list(g) == list(want)
        assert is_canonical(g, m)


@st.composite
def cauchy_riemann_cases(draw):
    """A map U from n to m variables, integer numerators over a den and
    maybe with a constant term, the matrix fields J_M (m columns of m
    polynomials in m variables) and J_L (n of n in n), and a cut."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u = [draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                              st.integers(-9, 9).filter(bool), max_size=4)) for _ in range(m)]
    target = [[draw(jet_polys(m, 3)) for _ in range(m)] for _ in range(m)]
    source = [[draw(jet_polys(n, 3)) for _ in range(n)] for _ in range(n)]
    return target, source, (draw(st.integers(1, 12)), u), draw(jet_orders(5))


def cauchy_riemann_by_fractions(target, source, u, order):
    """R_a = J_M(U) d_a U - sum_b J_L[b][a] d_b U by the Fraction loops:
    each entry of J_M substituted alone, the products column by column."""
    den, comps = u
    big_u = [{e: Fraction(c, den) for e, c in comp.items()} for comp in comps]
    n = len(source)
    d_u = [[poly.diff(c, b + 1) for c in big_u] for b in range(n)]
    m_at_u = [[jet_substitute_by_fractions(p, big_u, n, order) for p in col] for col in target]
    return [poly.vec_sub(jet_apply_columns_by_fractions(m_at_u, d_u[a], order),
                         jet_apply_columns_by_fractions(d_u, source[a], order))
            for a in range(n)]


# the Fraction oracle composes each entry of J_M with U uncut (degree up
# to 81), a few hundred ms on a slow draw; the integer pass takes tens of ms
@settings(deadline=10_000)
@given(cauchy_riemann_cases())
# J_M = J_L = x -> -x on R^1 and U = 1 + 2h: J_M(U) U' = -2 - 4h, J_L U' = -2
@example(([[{(1,): Fraction(-1)}]], [[{(1,): Fraction(-1)}]], (1, [{(0,): 1, (1,): 2}]), 1))
# no term at or below the cut: zero, over the den of what was read
@example(([[{(2,): Fraction(1, 3)}]], [[{}]], (2, [{(1,): 3}]), 0))
def test_jet_cauchy_riemann_matches_the_fraction_loops(case):
    """The one integer pass equals the Fraction route term for term: each
    component an exponent-keyed dict of nonzero ints over one positive
    den."""
    target, source, u, order = case
    den, got = poly.jet_cauchy_riemann(target, source, u, order)
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for r_a in got for comp in r_a for c in comp.values())
    assert [[{e: Fraction(c, den) for e, c in comp.items()} for comp in r_a] for r_a in got] == \
        cauchy_riemann_by_fractions(target, source, u, order)


def test_jet_cauchy_riemann_refuses_fields_of_the_wrong_shape():
    """Each field is checked against the map before anything is summed:
    J_M takes one column and one component per component of U, J_L one
    per variable, each in that many variables, and U's numerators are
    ints."""
    x, y, one = poly.var(1, 2), poly.var(2, 2), poly.const(1, 2)
    u = (1, [{(1, 0): 1}, {(0, 1): 1}])
    square = [[x, y], [y, one]]
    for target, source, message in (
            ([[x, y], [y]], square, r"\[2, 1\] components: 2 of 2 needed, one per component"),
            ([[x]], square, r"\[1\] components: 2 of 2 needed, one per component"),
            (square, [[x, y], [y, one], [x, x]],
             r"\[2, 2, 2\] components: 3 of 3 needed, one per variable")):
        with pytest.raises(poly.PolyError, match=message):
            poly.jet_cauchy_riemann(target, source, u, 2)
    x3 = poly.var(1, 3)
    with pytest.raises(poly.PolyError, match="polynomials in 3 variables for 2 columns"):
        poly.jet_cauchy_riemann([[x3, x3], [x3, x3]], square, u, 2)
    with pytest.raises(poly.PolyError, match="polynomials in 3 variables for 2 columns"):
        poly.jet_cauchy_riemann(square, [[{}, {}], [{}, {}]], (1, [{(1, 0, 0): 1}, {}]), 2)
    with pytest.raises(poly.PolyError, match=r"mixed variable counts: \[2, 3\]"):
        poly.jet_cauchy_riemann(square, square, (1, [{(1, 0, 0): 1}, {}]), 2)
    with pytest.raises(poly.PolyError, match="integer numerators"):
        poly.jet_cauchy_riemann(square, square, (1, [{(1, 0): Fraction(1, 2)}, {}]), 2)
    # a zero map: zero, over D_M D_L D_U^(t + 1) with J_M's top degree t = 1
    assert poly.jet_cauchy_riemann(square, square, (3, [{}, {}]), 2) == (9, [[{}, {}], [{}, {}]])


def test_jet_substitute_checks_every_substitution_up_front():
    """A substitution in another number of variables than the result's
    raises, even where no monomial reaches it: a constant p, or monomials
    above the cut.  So does a polynomial in another number of variables
    than there are substitutions, next to one that fits."""
    three_vars = {(1, 0, 0): Fraction(1)}
    for p, order in (({(0, 0): Fraction(2)}, 2), ({(3, 0): Fraction(1)}, 2),
                     ({(0, 1): Fraction(1)}, math.inf)):
        with pytest.raises(poly.PolyError, match="variables"):
            poly.jet_substitute([p], [three_vars, {}], 2, order)
    with pytest.raises(poly.PolyError, match="2 substitutions for 3 variables"):
        poly.jet_substitute([poly.var(1, 2), poly.var(1, 3)], [poly.var(1, 2)] * 2, 2, 2)


@given(st.lists(st.lists(polys(), min_size=3, max_size=3), min_size=3, max_size=3),
       points3, jet_orders(2))
def test_jet_brackets_are_jets_of_lie_brackets(fields, pt, order):
    """Brackets of (order + 1)-jets, cut at order, are the order-jets of
    the global brackets; the pairs may repeat and run in either direction."""
    jets = [poly.shift(f, pt, order + 1) for f in fields]
    pairs = [(0, 1), (1, 0), (2, 0), (1, 1), (0, 1)]
    got = poly.jet_brackets(jets, pairs, order)
    for (i, k), br in zip(pairs, got):
        want = lie_bracket(fields[i], fields[k], 3)
        assert br == poly.shift(want, pt, order)


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


@pytest.mark.parametrize("apply", [
    lambda: poly.apply_columns([], []), lambda: poly.jet_apply_columns([], [], 1),
    lambda: poly.jet_apply_columns([], [[]], 1)],
    ids=["apply_columns", "jet_apply_columns", "jet_apply_columns_one_field"])
def test_an_empty_matrix_field_is_refused(apply):
    """A matrix field with no columns has no component count to give its
    result: it is refused by name, not with an IndexError."""
    with pytest.raises(poly.PolyError, match="empty matrix field"):
        apply()


@pytest.mark.parametrize("apply", [
    poly.apply_columns, lambda cols, x: poly.jet_apply_columns(cols, [x], 2)],
    ids=["apply_columns", "jet_apply_columns"])
def test_a_ragged_matrix_field_is_refused(apply):
    """Columns of different lengths are refused by their lengths: the
    second column's x2 is not dropped to fit the first."""
    one, x1, x2 = poly.const(1, 2), poly.var(1, 2), poly.var(2, 2)
    with pytest.raises(poly.PolyError, match=r"ragged matrix field: columns of \[1, 2\] components"):
        apply([[one], [x1, x2]], [one, one])


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
# the packed-key kernels at their edges, and what they refuse
# ---------------------------------------------------------------------------

def test_jet_kernels_take_polynomials_in_no_variables():
    """A constant in zero variables has the empty exponent, packed as 0."""
    assert poly.jet_mul({(): Fraction(2)}, {(): Fraction(3)}, 1) == {(): Fraction(6)}
    assert poly.jet_mul({(): Fraction(2)}, {}, math.inf) == {}
    assert poly.jet_apply_columns([[{(): Fraction(1, 2)}]], [[{(): Fraction(4)}]], 0) == \
        [[{(): Fraction(2)}]]
    assert poly.jet_substitute([{(2,): Fraction(3)}], [{(): Fraction(1, 2)}], 0, math.inf) == \
        [{(): Fraction(3, 4)}]
    assert poly.jet_torsion([], 1) == [] and poly.jet_brackets([], [], 1) == []


# a cut at 2^k - 1 fills a field of k bits exactly, and one at 2^k must not
# let a sum reach the next field
FIELD_EDGE_ORDERS = (1, 2, 3, 4, 7, 8, math.inf)


def _powers(n, top):
    """Monomials of total degree up to top, each with its exponents on one
    or two variables, so that products reach the width of a field."""
    out = {}
    for k in range(top + 1):
        for a in range(n):
            out[tuple(k if i == a else 0 for i in range(n))] = Fraction(k + 1, a + 2)
            out[tuple(k - k // 2 if i == a else k // 2 if i == (a + 1) % n else 0
                      for i in range(n))] = Fraction(-1, k + a + 1)
    return out


@pytest.mark.parametrize("order", FIELD_EDGE_ORDERS)
def test_packed_kernels_at_the_field_width(order):
    """Exponents at the width of a key's field and products just past it
    give the Fraction loops' polynomials: a carry into the next variable's
    field would show as a wrong key.  Uncut, the fields hold twice the top
    degree of the inputs, which x1^4 x1^4 reaches."""
    top = 4 if order == math.inf else order + 1
    p = _powers(2, top)
    q = p if order == math.inf else _powers(2, top // 2 + 1)
    got, want = poly.jet_mul(p, q, order), jet_mul_by_fractions(p, q, order)
    assert got == want and list(got) == list(want)
    cols, xs = [[p, q], [q, {}]], [[q, p], [{}, q]]
    assert poly.jet_apply_columns(cols, xs, order) == \
        [jet_apply_columns_by_fractions(cols, x, order) for x in xs]
    fields = [[p, q], [q, p]]
    assert poly.jet_brackets(fields, [(0, 1)], order) == \
        jet_brackets_by_fractions(fields, [(0, 1)], order)
    subs = [poly.add(q, poly.const(1, 2)), p]
    got = poly.jet_substitute([p, q], subs, 2, order)
    assert got == [jet_substitute_by_fractions(f, subs, 2, order) for f in (p, q)]


def test_uncut_substitution_with_a_high_degree_image():
    """An image of degree 56, far above the inputs' degrees, gets fields
    wide enough for it: the product loop's polynomial in its key order."""
    p = {(5, 3): Fraction(2), (0, 1): Fraction(-1, 3), (1, 0): Fraction(1)}
    reps = [{(4, 3): Fraction(1, 2), (0, 1): Fraction(1)},
            {(7, 0): Fraction(-1), (0, 0): Fraction(3)}]
    got, want = poly.substitute(p, reps, 2), substitute_by_mul(p, reps, 2)
    assert got == want and list(got) == list(want)
    assert poly.total_degree(got) == 5 * 7 + 3 * 7
    binomials = poly.substitute({(20,): Fraction(1)}, [{(1,): Fraction(1), (0,): Fraction(1)}], 1)
    assert binomials == {(k,): Fraction(math.comb(20, k)) for k in range(21)}


def test_jet_torsion_refuses_a_field_of_the_wrong_shape():
    """A non-square field, or polynomials in another number of variables
    than there are columns, is refused with the shapes named, by the
    kernel and by torsion_jets, instead of answering or failing late."""
    x, y, one = poly.var(1, 2), poly.var(2, 2), poly.const(1, 2)
    with pytest.raises(poly.PolyError, match=r"columns of \[3, 3\] components"):
        poly.jet_torsion([[x, y, one], [y, x, one]], 1)
    with pytest.raises(poly.PolyError, match="polynomials in 2 variables for 3 columns"):
        poly.jet_torsion([[x, y, one]] * 3, 1)
    x3 = poly.var(3, 3)
    with pytest.raises(poly.PolyError, match="polynomials in 3 variables for 2 columns"):
        poly.jet_torsion([[x3, {}], [{}, x3]], 1)
    with pytest.raises(poly.PolyError, match="mixed variable counts"):
        poly.jet_torsion([[x3, y], [one, x]], 1)
    with pytest.raises(poly.PolyError, match=r"columns of \[3, 3\] components"):
        torsion_jets([[x, y, one], [y, x, one]], 1)
    assert poly.jet_torsion([[{}, {}], [{}, {}]], 1) == [[{}, {}]]


def test_jet_brackets_refuse_fields_of_the_wrong_shape():
    """Fields of unequal lengths, or polynomials in more variables than a
    field has components, are refused; fewer variables are allowed."""
    x, y = poly.var(1, 2), poly.var(2, 2)
    with pytest.raises(poly.PolyError, match=r"fields of \[2, 3\] components"):
        poly.jet_brackets([[x, y], [y, x, x]], [(0, 1)], 1)
    with pytest.raises(poly.PolyError, match="2 variables in fields of 1 components"):
        poly.jet_brackets([[x], [y]], [(0, 1)], 1)
    u = [poly.var(1, 1), {}, poly.const(2, 1)]
    v = [poly.const(1, 1), poly.var(1, 1), {}]
    assert poly.jet_brackets([u, v], [(0, 1)], math.inf) == \
        jet_brackets_by_fractions([u, v], [(0, 1)], math.inf)


JET_KERNEL_CALLS = {
    "jet_mul": lambda p, order: poly.jet_mul(p, p, order),
    "jet_substitute": lambda p, order: poly.jet_substitute([p], [poly.var(1, 2)] * 2, 2, order),
    "jet_apply_columns": lambda p, order: poly.jet_apply_columns([[p]], [[p]], order),
    "jet_cauchy_riemann": lambda p, order: poly.jet_cauchy_riemann(
        [[p, p], [p, p]], [[p, p], [p, p]], (1, [{(1, 0): 1}, {(0, 1): 1}]), order),
    "jet_brackets": lambda p, order: poly.jet_brackets([[p, p]], [(0, 0)], order),
    "jet_torsion": lambda p, order: poly.jet_torsion([[p, p], [p, p]], order),
}


@pytest.mark.parametrize("name", sorted(JET_KERNEL_CALLS))
def test_jet_kernels_refuse_a_negative_order(name):
    with pytest.raises(poly.PolyError, match="jet order -1 is negative"):
        JET_KERNEL_CALLS[name](poly.var(1, 2), -1)


@pytest.mark.parametrize("coeff, message", [
    (0.5, "float coefficient 0.5"), ("1/2", "string coefficient '1/2'"),
    (None, "NoneType coefficient None")])
@pytest.mark.parametrize("name", sorted(JET_KERNEL_CALLS) + ["shift"])
def test_jet_kernels_refuse_inexact_coefficients(name, coeff, message):
    """A float, a string or None stored as a coefficient is refused by
    value, as the constructors refuse it, not with an AttributeError."""
    p = {(1, 0): coeff, (0, 1): Fraction(1)}
    call = JET_KERNEL_CALLS.get(name, lambda p, order: poly.shift([p], [1, 2], order))
    with pytest.raises(poly.PolyError, match=message):
        call(p, 2)


@pytest.mark.parametrize("coeff, message", [
    (0.5, "float coefficient 0.5"), ("1/2", "string coefficient '1/2'"),
    (None, "NoneType coefficient None"), (complex(1, 0), r"complex coefficient \(1\+0j\)")])
def test_eval_poly_refuses_inexact_coefficients(coeff, message):
    """eval_poly reads a stored coefficient by value, as the jet kernels
    do: a float is not evaluated to a float."""
    with pytest.raises(poly.PolyError, match=message):
        poly.eval_poly({(1, 0): coeff, (0, 1): Fraction(1)}, [1, 2])
    assert poly.eval_poly({(1, 0): 1, (0, 1): Fraction(1, 2)}, [1, 2]) == 2


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
    "jet_substitute": lambda a, b, c: (([a, b, {}], [b, c, poly.neg(b)], 3, 2), 3),
    "jet_torsion": lambda a, b, c: (([[a, b, c], [c, a, b], [b, {}, a]], 2), 3),
    "low_degree_part": lambda a, b, c: ((a, 2), 3),
    "monomial": lambda a, b, c: (((1, 0, 2), poly.constant_term(b)), 3),
    "mul": lambda a, b, c: ((poly.add(a, c), poly.sub(c, a)), 3),
    "neg": lambda a, b, c: ((a,), 3),
    "parse_poly": lambda a, b, c: ((poly.format_poly(a), 3), 3),
    "scale": lambda a, b, c: ((a, poly.constant_term(b)), 3),
    "shift": lambda a, b, c: (([a, b, {}], [Fraction(1, 2), -1, 0], 3), 3),
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
