"""Torsion tensors, the arity-4 invariant, the linear space, identities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import invariants, linalg, poly
from nijcalc.forms import VectorForm, fn_bracket
from nijcalc.invariants import (
    InternalInconsistencyError,
    compatibility_nijenhuis,
    first_differential_antilinearity_defect,
    higher_nijenhuis,
    higher_nijenhuis_bracket,
    higher_nijenhuis_differential,
    jet_differential,
    nijenhuis_differential,
    nijenhuis_field_bracket,
    nijenhuis_space_basis,
    nijenhuis_tensor,
    second_differential_identity_defect,
    torsion_jets,
)
from nijcalc.structures import (
    StructureField,
    example_structure,
    linear_membership_violation,
    linear_nijenhuis_from_free_data,
    random_linear_nijenhuis,
    random_structure,
    realize_nijenhuis,
    standard_matrix,
    standard_structure,
)
from nijcalc.tensor import PointTensor, flatten, kernel_dim, pair_pattern_rep
from reference import (differential, digest, dj_field, fn_bracket_one_forms_direct,
                       higher_nijenhuis_bracket_by_apply, higher_nijenhuis_by_entries,
                       lie_bracket, nijenhuis_field_by_lie_brackets,
                       nijenhuis_field_first_differential, structure_as_field)

E = lambda dim, k: [Fraction(1) if i == k else Fraction(0) for i in range(dim)]

POINTS4 = ([0, 0, 0, 0], [0, 1, 0, 0], [Fraction(1, 2), -2, 3, Fraction(1, 3)])


def test_standard_structure_is_torsion_free():
    j0 = standard_structure(2)
    n = nijenhuis_tensor(j0, [0, 0, 0, 0])
    assert n.is_zero()
    assert higher_nijenhuis(j0, [1, 2, 3, 4]).is_zero()


def test_ex2_table():
    """The six table values, as polynomial identities over sample points."""
    j = example_structure("ex2")
    for pt in POINTS4:
        n = nijenhuis_tensor(j, pt)
        e = lambda k: E(4, k)
        x2 = Fraction(pt[1])
        assert n.apply([e(0), e(1)]) == [0, 0, 0, 0]
        assert n.apply([e(2), e(3)]) == [x2, 0, 0, 0]
        assert n.apply([e(0), e(2)]) == [1, 0, 0, 0]
        assert n.apply([e(1), e(3)]) == [-1, 0, 0, 0]
        assert n.apply([e(1), e(2)]) == [0, -1, 0, 0]
        assert n.apply([e(0), e(3)]) == [0, -1, 0, 0]


def test_float_points_are_refused():
    """ex5 at a float point: the evaluation and both invariants raise
    instead of answering exactly at the binary fraction nearest 0.1."""
    j = example_structure("ex5", eps=1)
    for pt in ([Fraction(1, 2), 0.1, 0, 0], [0, 0, 0.0, 1]):
        for compute in (j.at_point, lambda p: nijenhuis_tensor(j, p),
                        lambda p: higher_nijenhuis(j, p)):
            with pytest.raises(poly.PolyError, match="float"):
                compute(pt)


def test_ex2_field_entries():
    nf = nijenhuis_field_bracket(example_structure("ex2"))
    assert nf.entries[(2, 3)] == [poly.var(2, 4), poly.zero(), poly.zero(), poly.zero()]
    assert nf.entries[(0, 2)] == [poly.const(1, 4), poly.zero(), poly.zero(), poly.zero()]
    # route two agrees as polynomials, not just at points
    nf9 = nijenhuis_field_first_differential(example_structure("ex2"))
    for idx in itertools.product(range(4), repeat=2):
        assert nf.value_on_basis(idx) == nf9.entries[idx]


def test_ex2_higher_values():
    """1. value on (e1, e3, e3, e4) is -e1; 2. the j e3 contraction vanishes;
    both checked through the cross-checking entry point at several points."""
    j = example_structure("ex2")
    for pt in POINTS4:
        t = higher_nijenhuis(j, pt)
        e = lambda k: E(4, k)
        assert t.apply([e(0), e(2), e(2), e(3)]) == [-1, 0, 0, 0]
        je3 = [Fraction(pt[1]), Fraction(0), Fraction(0), Fraction(1)]
        assert t.apply([e(0), e(2), je3, e(3)]) == [0, 0, 0, 0]
        assert t.has_pair_pattern()


def test_higher_routes_disagreement_detection():
    """Truncating one route must trip the cross-check, not pass silently."""
    j = example_structure("ex2")
    a = higher_nijenhuis_bracket(j, [0, 1, 0, 0])
    b = higher_nijenhuis_differential(j, [0, 1, 0, 0])
    assert a == b
    bad = b.scale(Fraction(2))
    assert bad != a  # the invariant is nonzero here, so scaling changes it


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_from_pair_pattern_fills_orbits_from_representatives(dim):
    calls = []

    def s(a, b):
        return Fraction(a - b, 1 + a * b)

    def t2(a, b):
        return Fraction(a * a - b * b + a * b * b - b * a * a)

    def fn(idx):
        # a dense function with the pair pattern everywhere
        calls.append(idx)
        a, b, c, d = idx
        return [s(a, b) * t2(c, d) - s(c, d) * t2(a, b),
                (a + b - c - d) * t2(a, b) * t2(c, d)]

    t = PointTensor.from_orbits(dim, 2, 4, pair_pattern_rep, fn)
    pairs = dim * (dim - 1) // 2
    assert len(calls) == pairs * (pairs - 1) // 2
    assert all(a < b and c < d and (a, b) < (c, d) for a, b, c, d in calls)
    assert calls == [p + q for p, q in itertools.combinations(
        itertools.combinations(range(dim), 2), 2)]
    del calls[:]
    assert PointTensor.from_orbits(dim, 2, 4, pair_pattern_rep, fn) == t
    assert len(calls) == pairs * (pairs - 1) // 2
    assert t.has_pair_pattern()
    assert t == PointTensor.from_function(dim, 2, 4, fn)


@pytest.mark.parametrize("seed", [1, 2])
def test_bracket_route_equals_differential_route_in_dim6(seed):
    j = random_structure(3, seed)
    pt = [Fraction(k + 1, 3) for k in range(6)]
    a = higher_nijenhuis_bracket(j, pt)
    assert not a.is_zero()
    assert a == higher_nijenhuis_differential(j, pt)


def test_cross_check_catches_a_pair_pattern_break(monkeypatch):
    """The bracket route never computes the diagonal tuples; a nonzero one
    in the dense route must still trip the cross-check."""
    true_route = invariants.higher_nijenhuis_differential

    def broken(j, point, jets=None):
        t = true_route(j, point, jets)
        t.entries[(0, 0, 1, 2)] = [Fraction(1)] + t.entries[(0, 0, 1, 2)][1:]
        assert not t.has_pair_pattern()
        return t

    monkeypatch.setattr(invariants, "higher_nijenhuis_differential", broken)
    with pytest.raises(InternalInconsistencyError, match=r"\(0, 0, 1, 2\)"):
        higher_nijenhuis(example_structure("ex2"), [0, 1, 0, 0])


EXAMPLE_POINTS = [
    *[("ex2", {}, pt) for pt in POINTS4],
    ("ex5", {"eps": 1}, [0] * 4),
    ("ex6", {}, [0] * 6),
    ("ex6", {"f_text": "x5 + x5^2"}, [0, 0, 0, 0, Fraction(1, 2), 0]),
]


@pytest.mark.parametrize("which, kwargs, pt", EXAMPLE_POINTS)
def test_differential_route_equals_the_per_entry_contraction(which, kwargs, pt):
    j = example_structure(which, **kwargs)
    assert higher_nijenhuis_differential(j, pt) == higher_nijenhuis_by_entries(j, pt)


@pytest.mark.parametrize("n, seed", [(2, 1), (2, 6), (3, 1), (3, 4)])
def test_differential_route_equals_the_per_entry_contraction_on_random_structures(n, seed):
    j = random_structure(n, seed)  # degree 2
    pt = [Fraction(3 - 2 * k, k + 2) for k in range(2 * n)]
    want = higher_nijenhuis_by_entries(j, pt)
    assert not want.is_zero()
    assert higher_nijenhuis_differential(j, pt) == want


def assert_same_entries(got, want):
    """Equal entry for entry, in the same order, every component a Fraction."""
    assert (got.dim_in, got.dim_out, got.arity) == (want.dim_in, want.dim_out, want.arity)
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(x) is Fraction for v in got.entries.values() for x in v)


@pytest.mark.parametrize("which, kwargs, pt", EXAMPLE_POINTS)
def test_bracket_route_equals_the_per_orbit_applies(which, kwargs, pt):
    j = example_structure(which, **kwargs)
    assert_same_entries(higher_nijenhuis_bracket(j, pt), higher_nijenhuis_bracket_by_apply(j, pt))


@pytest.mark.parametrize("n, seed", [(2, 1), (2, 6), (3, 1), (3, 4)])
def test_bracket_route_equals_the_per_orbit_applies_on_random_structures(n, seed):
    j = random_structure(n, seed)  # degree 2
    pt = [Fraction(3 - 2 * k, k + 2) for k in range(2 * n)]
    want = higher_nijenhuis_bracket_by_apply(j, pt)
    assert not want.is_zero()
    assert_same_entries(higher_nijenhuis_bracket(j, pt), want)


def test_contraction_routes_evaluate_no_entry_by_apply(monkeypatch):
    """Both arity-4 routes and the three identity checks contract whole
    tensors: none applies a tensor to vectors or builds one entry by
    entry.  Direct calls afterwards show the counters live."""
    calls = {"apply": 0, "from_function": 0}
    apply, from_function = PointTensor.apply, PointTensor.from_function.__func__

    def counted_apply(self, args):
        calls["apply"] += 1
        return apply(self, args)

    def counted_from_function(cls, *args):
        calls["from_function"] += 1
        return from_function(cls, *args)

    monkeypatch.setattr(PointTensor, "apply", counted_apply)
    monkeypatch.setattr(PointTensor, "from_function", classmethod(counted_from_function))
    for j, pt in ((example_structure("ex2"), [0, 1, 0, 0]),
                  (random_structure(3, 4), [Fraction(k + 1, 3) for k in range(6)])):
        assert not higher_nijenhuis(j, pt).is_zero()
        assert not nijenhuis_tensor(j, pt).is_zero()
        assert first_differential_antilinearity_defect(j, pt) is None
        assert second_differential_identity_defect(j, pt) is None
    assert calls == {"apply": 0, "from_function": 0}
    PointTensor.from_matrix([[1, 0], [0, 1]]).apply([[1, 2]])
    PointTensor.from_function(2, 2, 1, lambda idx: [0, 0])
    assert calls == {"apply": 1, "from_function": 1}


def test_dual_route_cross_check_on_examples():
    for j in (example_structure("ex5", eps=1), example_structure("ex6"),
              example_structure("ex6", f_text="x5 + x5^2")):
        pt = [0] * j.dim
        nijenhuis_tensor(j, pt)
        higher_nijenhuis(j, pt)


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def structures_at_points(draw, sizes=(2, 3)):
    n = draw(st.sampled_from(sizes))
    j = random_structure(n, draw(st.integers(0, 10**6)))
    return j, draw(st.lists(rationals, min_size=2 * n, max_size=2 * n))


@settings(max_examples=12, deadline=None)
@given(structures_at_points())
def test_nijenhuis_tensor_equals_global_field_at_point(case):
    """The pointwise routes read only the 1-jet of J; the reference
    evaluates the global field built from the reference lie_bracket."""
    j, pt = case
    n_pt = nijenhuis_tensor(j, pt)
    assert n_pt == nijenhuis_field_by_lie_brackets(j).at_point(pt)
    assert all(type(c) is Fraction for v in n_pt.entries.values() for c in v)


@settings(max_examples=8, deadline=None)
@given(structures_at_points(sizes=(2,)), st.integers(0, 2))
def test_torsion_jets_are_jets_of_the_global_field(case, order):
    j, pt = case
    nf = nijenhuis_field_by_lie_brackets(j)
    jets = torsion_jets(j.jet(pt, order + 1), order)
    assert list(jets) == list(itertools.combinations(range(j.dim), 2))
    for idx, jet in jets.items():
        assert jet == [poly.shift(c, pt, order) for c in nf.entries[idx]]


@settings(max_examples=8, deadline=None)
@given(structures_at_points(), st.integers(0, 3))
def test_jet_differential_equals_global_differential(case, p):
    """d^p read off the jets equals differentiate-then-evaluate, on J and
    on the torsion field; nijenhuis_differential builds its jets itself."""
    j, pt = case
    jet = VectorForm.from_columns(j.jet(pt, p))
    assert jet_differential(jet, p) == differential(structure_as_field(j), p, pt)
    nf = nijenhuis_field_by_lie_brackets(j)
    want = differential(nf, p, pt)
    shifted = VectorForm(j.dim, 2, {(a, b): [poly.shift(c, pt, p) for c in nf.entries[(a, b)]]
                                    for a, b in itertools.combinations(range(j.dim), 2)})
    assert jet_differential(shifted, p) == want
    assert nijenhuis_differential(j, p, pt) == want


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    st.builds(random_structure, st.integers(1, 3), st.integers(0, 10**6), st.integers(1, 3)),
    st.sampled_from([example_structure("ex2"), example_structure("ex5", Fraction(-1, 3)),
                     example_structure("ex6", f_text="x5 + x5^2")])))
def test_global_field_equals_the_lie_bracket_reference(j):
    """The global field, read as the uncut torsion jet at the origin, is
    the bracket formula expanded with the reference lie_bracket, entry by
    entry."""
    nf = nijenhuis_field_bracket(j)
    want = nijenhuis_field_by_lie_brackets(j)
    assert (nf.dim, nf.degree) == (want.dim, want.arity) == (j.dim, 2)
    for idx in itertools.product(range(j.dim), repeat=2):
        assert nf.value_on_basis(idx) == want.entries[idx], idx


def test_torsion_cross_check_catches_a_route_disagreement(monkeypatch):
    true_route = invariants._torsion_first_differential

    def broken(jet):
        t = true_route(jet)
        t.entries[(1, 3)] = [t.entries[(1, 3)][0] + 1] + t.entries[(1, 3)][1:]
        return t

    monkeypatch.setattr(invariants, "_torsion_first_differential", broken)
    with pytest.raises(InternalInconsistencyError, match=r"\(1, 3\)"):
        nijenhuis_tensor(example_structure("ex2"), [0, 1, 0, 0])


def test_ex6_table():
    """Nonzero pairs are (e3, e5) type with derivative coefficients."""
    j = example_structure("ex6", f_text="x5 + x5^2")
    for pt in ([0] * 6, [0, 0, 0, 0, Fraction(1, 2), 0]):
        n = nijenhuis_tensor(j, pt)
        e = lambda k: E(6, k)
        fprime = 1 + 2 * Fraction(pt[4])
        assert n.apply([e(2), e(4)]) == [0, fprime, 0, 0, 0, 0]
        assert n.apply([e(3), e(5)]) == [0, -fprime, 0, 0, 0, 0]
        assert n.apply([e(2), e(5)]) == [fprime, 0, 0, 0, 0, 0]
        assert n.apply([e(3), e(4)]) == [fprime, 0, 0, 0, 0, 0]
        assert n.apply([e(2), e(3)]) == [0] * 6
        assert n.apply([e(4), e(5)]) == [0] * 6
        for k in range(6):
            assert n.apply([e(0), e(k)]) == [0] * 6
            assert n.apply([e(1), e(k)]) == [0] * 6


def test_identities_on_random_structures():
    """1. dj antilinearity; 2. the second-differential identity;
    3. pointwise membership of the torsion in the linear space;
    4. sign rules under j -> -j; 5. kernel dimension is j-invariant."""
    for n, seed in ((2, 3), (2, 8), (3, 5)):
        j = random_structure(n, seed)
        pt = [Fraction(k + 1, 3) for k in range(j.dim)]
        assert first_differential_antilinearity_defect(j, pt) is None
        assert second_differential_identity_defect(j, pt) is None
        n_pt = nijenhuis_tensor(j, pt)
        j_pt = j.at_point(pt)
        assert linear_membership_violation(n_pt, j_pt) is None
        m = j.negated()
        assert nijenhuis_tensor(m, pt) == n_pt
        t = higher_nijenhuis(j, pt)
        assert higher_nijenhuis(m, pt) == t.scale(Fraction(-1))
        for k in range(j.dim):
            xi = linalg.basis_vector(j.dim, k)
            jxi = j_pt.apply([xi])
            assert kernel_dim(n_pt, xi) == kernel_dim(n_pt, jxi)


def perturbed(j, col, row, text):
    """j with the polynomial text added to the entry (row, col)."""
    cols = [list(c) for c in j.cols]
    cols[col][row] = poly.add(cols[col][row], poly.parse_poly(text, j.dim))
    return StructureField(cols)


# fields that are not structures, and the first failing pair and triple
# that the checks reported when they still walked the basis one apply at a time
@pytest.mark.parametrize("field, pair, triple", [
    (lambda: perturbed(standard_structure(2), 3, 0, "x4^2"), (2, 3), (2, 3, 3)),
    (lambda: perturbed(standard_structure(3), 5, 1, "x6*x5"), (4, 4), (4, 4, 5)),
    (lambda: perturbed(random_structure(3, 5), 3, 0, "x6^2"), (0, 3), (0, 3, 5)),
])
def test_identity_checks_report_the_first_defect(field, pair, triple):
    j = field()
    pt = [Fraction(k + 1, 3) for k in range(j.dim)]
    assert first_differential_antilinearity_defect(j, pt) == pair
    assert second_differential_identity_defect(j, pt) == triple
    e = lambda k: E(j.dim, k)
    j_pt = j.at_point(pt)
    dj = differential(structure_as_field(j), 1, pt)
    d2j = differential(structure_as_field(j), 2, pt)
    a, b = pair
    assert dj.apply([j_pt.apply([e(a)]), e(b)]) != \
        [-x for x in j_pt.apply([dj.apply([e(a), e(b)])])]
    a, b, c = triple
    rhs = [-x for x in j_pt.apply([d2j.apply([e(a), e(b), e(c)])])]
    rhs = linalg.vec_sub(rhs, dj.apply([dj.apply([e(a), e(c)]), e(b)]))
    rhs = linalg.vec_sub(rhs, dj.apply([dj.apply([e(a), e(b)]), e(c)]))
    assert d2j.apply([j_pt.apply([e(a)]), e(b), e(c)]) != rhs


def test_space_basis_dimensions():
    assert len(nijenhuis_space_basis(0)) == 0
    assert len(nijenhuis_space_basis(1)) == 0
    assert len(nijenhuis_space_basis(2)) == 4
    assert len(nijenhuis_space_basis(3)) == 18
    # the bases as the hand-written equation rows gave them
    assert [digest(nijenhuis_space_basis(n)) for n in (1, 2, 3)] == [
        "4f53cda18c2baa0c", "8ccf8dfb1fab9202", "c6868c79ae5e835d"]


def test_space_basis_membership_and_span():
    """Every solver basis element satisfies the relations, and the span equals
    the span of the direct free-data construction."""
    for n in (2, 3):
        dim = 2 * n
        j0 = PointTensor.from_matrix(standard_matrix(n))
        basis = nijenhuis_space_basis(n)
        for t in basis:
            assert t.is_antisymmetric_in(0, 1)
            assert linear_membership_violation(t, j0) is None

        direct = []
        for s in range(n):
            for tt in range(s + 1, n):
                for i in range(dim):
                    c = [Fraction(1) if k == i else Fraction(0) for k in range(dim)]
                    direct.append(linear_nijenhuis_from_free_data(n, {(s, tt): c}))
        from nijcalc.linalg import span_basis
        assert span_basis([flatten(t) for t in basis]) == \
            span_basis([flatten(t) for t in direct])


def test_realize_round_trip():
    for n, seed in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
        target = random_linear_nijenhuis(n, seed)
        j = realize_nijenhuis(target)
        got = nijenhuis_tensor(j, [0] * 2 * n)
        assert got == target


def test_realized_structure_membership_of_random_space_element():
    t = random_linear_nijenhuis(2, 9)
    j0 = PointTensor.from_matrix(standard_matrix(2))
    assert linear_membership_violation(t, j0) is None


def test_compatibility_is_deformation_linear_part():
    """Exact decomposition: torsion of j0 + A equals the compatibility
    expression plus the part quadratic in A, namely
    [AX, AY] - A[AX, Y] - A[X, AY] on constant basis fields."""
    j = example_structure("ex2")
    j0 = standard_structure(2)
    delta = [[poly.sub(j.cols[a][i], j0.cols[a][i]) for i in range(4)]
             for a in range(4)]
    compat = compatibility_nijenhuis(j0.cols, delta, 4)
    full = nijenhuis_field_bracket(j)

    def dmul(x):
        out = poly.vec_zero(4)
        for k in range(4):
            if not poly.is_zero(x[k]):
                out = poly.vec_add(out, poly.vec_scale_poly(delta[k], x[k]))
        return out

    for a in range(4):
        for b in range(4):
            ea = [poly.const(1, 4) if i == a else poly.zero() for i in range(4)]
            eb = [poly.const(1, 4) if i == b else poly.zero() for i in range(4)]
            quad = lie_bracket(delta[a], delta[b], 4)
            quad = poly.vec_sub(quad, dmul(lie_bracket(delta[a], eb, 4)))
            quad = poly.vec_sub(quad, dmul(lie_bracket(ea, delta[b], 4)))
            assert full.value_on_basis((a, b)) == poly.vec_add(
                compat.value_on_basis((a, b)), quad)


def test_compatibility_congruence_for_second_order_deformation():
    """For A of second order the quadratic remainder has order at least
    three, so torsion and compatibility expression agree to degree 2."""
    j = example_structure("ex5", eps=0)
    j0 = standard_structure(2)
    delta = [[poly.sub(j.cols[a][i], j0.cols[a][i]) for i in range(4)]
             for a in range(4)]
    compat = compatibility_nijenhuis(j0.cols, delta, 4)
    full = nijenhuis_field_bracket(j)
    for idx in itertools.product(range(4), repeat=2):
        lhs = [poly.truncate(p, 2) for p in full.value_on_basis(idx)]
        rhs = [poly.truncate(p, 2) for p in compat.value_on_basis(idx)]
        assert lhs == rhs


@st.composite
def one_form_pairs(draw):
    """Two vector-valued 1-forms K, L in dimension 2n, n = 1-3: the columns
    of two random structures, a structure and its deformation from j0
    (K = j0, L = J - j0), or a structure twice (K = L)."""
    n, kind = draw(st.integers(1, 3)), draw(st.sampled_from(["two", "deformation", "same"]))
    seed, degree = draw(st.integers(0, 10**6)), draw(st.integers(1, 2))
    j = random_structure(n, seed, degree).cols
    if kind == "two":
        return j, random_structure(n, draw(st.integers(0, 10**6)), degree).cols
    if kind == "same":
        return j, j
    j0 = standard_structure(n).cols
    return j0, [poly.vec_sub(col, col0) for col, col0 in zip(j, j0)]


@settings(max_examples=15, deadline=None)
@given(one_form_pairs())
def test_compatibility_is_the_direct_bracket_and_symmetric(pair):
    """The polarized torsion T(K + L) - T(K) - T(L) is the Froelicher-
    Nijenhuis bracket [K, L] of the direct 1-form route and of the forms
    route on every basis pair, and [K, L] = [L, K]."""
    k, l = pair
    dim = len(k)
    got = compatibility_nijenhuis(k, l, dim)
    want = fn_bracket_one_forms_direct(k, l, dim)
    assert (got.dim, got.degree) == (dim, 2)
    for idx in itertools.product(range(dim), repeat=2):
        assert got.value_on_basis(idx) == want.value_on_basis(idx), idx
    assert got == fn_bracket(VectorForm.from_columns(k), VectorForm.from_columns(l))
    assert compatibility_nijenhuis(l, k, dim).entries == got.entries


def test_nijenhuis_differential():
    j = example_structure("ex2")
    d1 = nijenhuis_differential(j, 1, [0, 0, 0, 0])
    e = lambda k: E(4, k)
    # N(e3, e4) = x2 e1, so its derivative in direction e2 is e1
    assert d1.apply([e(2), e(3), e(1)]) == [1, 0, 0, 0]
    assert d1.apply([e(2), e(3), e(0)]) == [0, 0, 0, 0]
    # derivative slots of a second differential commute
    jf = structure_as_field(example_structure("ex5", eps=1))
    d2 = differential(jf, 2, [0, 0, 0, 0])
    assert d2.is_symmetric_in(1, 2)


def test_dj_field_values():
    j = example_structure("ex2")
    dj = dj_field(j).at_point([0, 0, 0, 0])
    e = lambda k: E(4, k)
    # only x2 appears, in column 3: dj(e3, e2) = e1
    assert dj.apply([e(2), e(1)]) == [1, 0, 0, 0]
    assert dj.apply([e(3), e(1)]) == [0, -1, 0, 0]
    assert dj.apply([e(2), e(0)]) == [0, 0, 0, 0]
