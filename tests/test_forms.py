"""Form machinery and the two graded brackets, calibrated on examples."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import poly
from nijcalc.forms import VectorForm, algebraic_bracket, fn_bracket, insertion
from nijcalc.invariants import nijenhuis_field_bracket
from nijcalc.structures import example_structure, random_structure
from reference import (
    algebraic_bracket_by_shuffles,
    apply_const,
    contract_basis,
    digest,
    exterior_d,
    fn_bracket_by_decomposables,
    fn_bracket_one_forms_direct,
    insertion_by_shuffles,
    lie_derivative_basis,
    post_structure,
    wedge,
)


def n_form(j):
    return VectorForm.from_pair_entries(
        j.dim, nijenhuis_field_bracket(j).entries)


def sorted_entries(form):
    return (form.dim, form.degree,
            sorted((idx, [sorted(p.items()) for p in vec]) for idx, vec in form.entries.items()))


# Brackets between the forms of two different structures, which do not
# vanish (on one structure's own J and N, [J, N] and [N, N] do), with the
# digests of their sorted entries.
PINNED_BRACKETS = {
    ("fn_bracket", "j_ex2", "j_ex5"): "f60abaebaae20bd1",
    ("fn_bracket", "j_ex2", "n_rand"): "80f0b39030f3354b",
    ("fn_bracket", "n_rand", "n_ex5"): "f112cdb60e9df672",
    ("insertion", "n_ex2", "n_ex5"): "4fdc795e4a3dd175",
    ("insertion", "n_rand", "j_ex5"): "07ace18aa12b7212",
    ("insertion", "n_rand", "n_rand"): "429e26b6a81c5419",
    ("algebraic_bracket", "n_ex2", "n_ex5"): "7873d967e8967790",
    ("algebraic_bracket", "j_rand", "j_ex5"): "3e69e09fa9b5a72f",
    ("algebraic_bracket", "j_ex2", "n_rand"): "001bd162215ec631",
}


def test_bracket_outputs_keep_their_digests():
    operands = {}
    for name, j in (("ex2", example_structure("ex2")),
                    ("ex5", example_structure("ex5", eps=1)),
                    ("rand", random_structure(2, 5))):
        operands["j_" + name] = VectorForm.from_structure(j)
        operands["n_" + name] = n_form(j)
    brackets = {"fn_bracket": fn_bracket, "insertion": insertion,
                "algebraic_bracket": algebraic_bracket}
    got = {(op, a, b): digest(sorted_entries(brackets[op](operands[a], operands[b])))
           for op, a, b in PINNED_BRACKETS}
    assert got == PINNED_BRACKETS


def test_scalar_form_basics():
    """1. wedge anticommutes on 1-forms; 2. d turns x1 dx2 into dx1^dx2;
    3. d^2 = 0; 4. contraction picks the right signed coefficient."""
    x1 = poly.var(1, 4)
    a = {(0,): x1}          # x1 dx1? no: index 0 is dx1
    b = {(1,): poly.const(1, 4)}
    assert wedge(a, b) == {(0, 1): x1}
    assert wedge(b, a) == {(0, 1): poly.neg(x1)}
    w = exterior_d({(1,): x1}, 4)          # d(x1 dx2)
    assert w == {(0, 1): poly.const(1, 4)}
    assert exterior_d(w, 4) == {}
    two_form = {(0, 1): x1}
    assert contract_basis(two_form, 0) == {(1,): x1}
    assert contract_basis(two_form, 1) == {(0,): poly.neg(x1)}
    assert contract_basis(two_form, 2) == {}


def test_cartan_formula_for_constant_fields():
    p = poly.parse_poly("x1*x2 + x3^2", 4)
    form = {(1, 2): p}
    for v in range(4):
        cartan = dict(exterior_d(contract_basis(form, v), 4))
        for idx, q in contract_basis(exterior_d(form, 4), v).items():
            cartan[idx] = poly.add(cartan.get(idx, poly.zero()), q)
        cartan = {k: q for k, q in cartan.items() if not poly.is_zero(q)}
        assert cartan == lie_derivative_basis(form, v)


def test_vector_form_evaluation():
    j = example_structure("ex2")
    jf = VectorForm.from_structure(j)
    e = lambda k: [Fraction(1) if i == k else Fraction(0) for i in range(4)]
    assert apply_const(jf, [e(2)]) == j.cols[2]
    n = n_form(j)
    v = apply_const(n, [e(2), e(3)])
    assert v == [poly.var(2, 4), poly.zero(), poly.zero(), poly.zero()]
    # antisymmetry through reordered arguments
    assert apply_const(n, [e(3), e(2)]) == [poly.neg(poly.var(2, 4)),
                                            poly.zero(), poly.zero(), poly.zero()]


@pytest.mark.parametrize("dim, degree, key, length, problem", [
    (2, 2, (1, 0), 2, "strictly increasing"),   # value_on_basis reads (0, 1)
    (2, 2, (0, 0), 2, "strictly increasing"),
    (2, 1, (0, 1), 2, "strictly increasing"),   # two indices for a 1-form
    (2, 2, (0, 2), 2, "below 2"),
    (2, 1, (-1,), 2, "strictly increasing"),
    (3, 1, (0,), 2, "2 components, not 3"),
])
def test_vector_form_refuses_entries_it_cannot_read(dim, degree, key, length, problem):
    with pytest.raises(ValueError, match=problem):
        VectorForm(dim, degree, {key: [poly.const(1, dim)] * length})


def test_vector_form_adds_only_forms_of_its_shape():
    one = VectorForm(2, 1, {(0,): [poly.var(1, 2), poly.zero()]})
    for other in (VectorForm(2, 2, {(0, 1): [poly.var(2, 2), poly.zero()]}),
                  VectorForm(3, 1, {(0,): [poly.var(1, 3)] * 3})):
        with pytest.raises(ValueError, match="cannot add"):
            one.add(other)
        with pytest.raises(ValueError, match="cannot add"):
            one.sub(other)


def test_insertion_identities():
    """i_j N = -2 (j o N) and i_N j = j o N, as polynomial identities."""
    j = example_structure("ex2")
    jf = VectorForm.from_structure(j)
    nf = n_form(j)
    jn = post_structure(nf, j)
    assert insertion(jf, nf) == jn.scale(Fraction(-2))
    assert insertion(nf, jf) == jn


def test_algebraic_bracket_identities():
    """On an exact structure: [j,j] = 0, [j,N] = -3 j o N, [j, j o N] = 3N,
    [N,N] = 2 i_N N.  The last is nonzero here."""
    j = example_structure("ex2")
    jf = VectorForm.from_structure(j)
    nf = n_form(j)
    jn = post_structure(nf, j)
    assert algebraic_bracket(jf, jf).is_zero()
    assert algebraic_bracket(jf, nf) == jn.scale(Fraction(-3))
    assert algebraic_bracket(jf, jn) == nf.scale(Fraction(3))
    inn = insertion(nf, nf)
    assert algebraic_bracket(nf, nf) == inn.scale(Fraction(2))
    assert not inn.is_zero()


def test_algebraic_bracket_lie_case():
    """The pair-product Jacobi sum vanishes, so the degree-2 generators
    commute algebraically."""
    j = example_structure("ex6", f_text="x5 + x5^2")
    nf = n_form(j)
    jn = post_structure(nf, j)
    assert insertion(nf, nf).is_zero()
    assert algebraic_bracket(nf, nf).is_zero()
    assert algebraic_bracket(nf, jn).is_zero()
    assert algebraic_bracket(jn, jn).is_zero()


def test_fn_bracket_calibration():
    """The differential bracket of the structure with itself is twice the
    torsion, by the decomposable route and the direct two-argument route."""
    for j in (example_structure("ex2"), example_structure("ex5", eps=1),
              example_structure("ex6"), random_structure(2, 5)):
        jf = VectorForm.from_structure(j)
        nf = n_form(j)
        br = fn_bracket(jf, jf)
        assert br == nf.scale(Fraction(2))
        direct = fn_bracket_one_forms_direct(j.cols, j.cols, j.dim)
        assert direct == br


def test_fn_bracket_identities():
    """1. [[j, N]] = 0; 2. [[j, j o N]] = -i_N N, nonzero off the Lie case
    (in the normalization [[j, j]] = 2N pinned by the calibration test;
    the ratio of the two constants is the convention-free content); 3.
    [[N, N]] = 0 by graded symmetry; 4. graded antisymmetry for two
    distinct 2-forms."""
    j = example_structure("ex2")
    jf = VectorForm.from_structure(j)
    nf = n_form(j)
    jn = post_structure(nf, j)
    assert fn_bracket(jf, nf).is_zero()
    lhs = fn_bracket(jf, jn)
    assert lhs == insertion(nf, nf).neg()
    assert not lhs.is_zero()
    assert fn_bracket(nf, nf).is_zero()
    assert fn_bracket(nf, jn) == fn_bracket(jn, nf).neg()


def test_fn_bracket_lie_case():
    j = example_structure("ex6", f_text="x5 + x5^2")
    jf = VectorForm.from_structure(j)
    nf = n_form(j)
    jn = post_structure(nf, j)
    assert fn_bracket(jf, nf).is_zero()
    assert fn_bracket(jf, jn).is_zero()
    assert fn_bracket(nf, jn).is_zero()
    assert fn_bracket(jn, jn).is_zero()


@st.composite
def vector_forms(draw, dim):
    """A sparse form of degree 0-3 on R^dim: a few entries, each with a
    few small polynomial components; the zero form included."""
    degree = draw(st.integers(0, min(3, dim)))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    component = st.one_of(st.just({}), st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * dim), coeff, min_size=1, max_size=2))
    keys = draw(st.lists(st.sampled_from(list(itertools.combinations(range(dim), degree))),
                         max_size=4, unique=True))
    return VectorForm(dim, degree, {idx: draw(st.lists(component, min_size=dim, max_size=dim))
                                    for idx in keys})


@st.composite
def form_pairs(draw):
    dim = draw(st.integers(2, 5))
    return draw(vector_forms(dim)), draw(vector_forms(dim))


@settings(max_examples=100, deadline=None)
@given(form_pairs())
def test_piecewise_brackets_equal_the_oracles(pair):
    """insertion, algebraic_bracket and fn_bracket, summed over pieces,
    equal the shuffle and scalar-form routes in both argument orders."""
    for a, b in (pair, pair[::-1]):
        routes = [(fn_bracket, fn_bracket_by_decomposables)]
        if a.degree + b.degree > 0:
            routes += [(insertion, insertion_by_shuffles),
                       (algebraic_bracket, algebraic_bracket_by_shuffles)]
        for route, oracle in routes:
            got, want = route(a, b), oracle(a, b)
            assert got == want
            assert got.entries == want.entries


def test_forms_refuse_operands_they_would_misread():
    """A float or string scale, operands on different spaces and two
    0-forms in an insertion raise at once instead of computing something
    else."""
    j = VectorForm.from_structure(example_structure("ex2"))
    with pytest.raises(ValueError, match="float scale 0.1"):
        j.scale(0.1)
    with pytest.raises(ValueError, match="str scale '1/2'"):
        j.scale("1/2")  # not parsed as one half
    on_r2 = VectorForm(2, 1, {(0,): [poly.var(1, 2), poly.zero()]})
    for op in (insertion, algebraic_bracket, fn_bracket):
        for a, b in ((VectorForm(4, 1, {}), on_r2), (on_r2, j)):
            with pytest.raises(ValueError, match="on R\\^4 .* on R\\^2|on R\\^2 .* on R\\^4"):
                op(a, b)
    point = VectorForm(2, 0, {(): [poly.var(1, 2), poly.zero()]})
    with pytest.raises(ValueError, match="0-form into a 0-form"):
        insertion(point, point)
