"""Structure fields: constructors, validation, realization, random generators."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import linalg, poly
from nijcalc.genpos import appendix_tensor, example3_tensor
from nijcalc.structures import (
    LieAlgebraSpec,
    StructureError,
    StructureField,
    ValidationReport,
    doubled_block_j,
    doubled_nijenhuis_from_free_data,
    example_structure,
    from_anticommuting_part,
    left_invariant_structure,
    linear_membership_violation,
    linear_nijenhuis_from_free_data,
    random_linear_nijenhuis,
    random_structure,
    realize_nijenhuis,
    standard_matrix,
    standard_structure,
    validate,
    vanishing_order,
)
from nijcalc.tensor import PointTensor, TensorError, alternating_rep
from reference import (appendix_tensor_by_minors, digest, doubling_by_formula,
                       jacobi_violation_by_basis, left_invariant_by_identities,
                       lie_bracket_by_table, linear_nijenhuis_by_cases,
                       membership_violation_by_pairs, shift_by_fractions, tensor_with_entry)


def as_matrix(j):
    return [[j.entry(i, k) for k in range(j.dim)] for i in range(j.dim)]


def test_standard_structure():
    j0 = standard_structure(2)
    assert j0.dim == 4
    # e1 -> e2, e2 -> -e1, e3 -> e4, e4 -> -e3
    assert j0.eval_matrix([0, 0, 0, 0]) == standard_matrix(2)
    rep = validate(j0)
    assert rep == ValidationReport("exact")


def test_standard_structure_rejects_bad_n():
    with pytest.raises(StructureError):
        standard_structure(0)


@pytest.mark.parametrize("term, problem", [
    ({(0, 1): 0.5}, r"entry \(0, 1\) has the term 0.5 at \(0, 1\)"),
    ({(0, 1, 0): Fraction(1)}, r"entry \(0, 1\) has the term Fraction\(1, 1\) at \(0, 1, 0\)"),
    ({(0, 1): "1"}, r"entry \(0, 1\) has the term '1' at \(0, 1\)"),
    ({(0, 1): None}, r"entry \(0, 1\) has the term None at \(0, 1\)"),
])
def test_structure_field_refuses_entries_no_kernel_reads(term, problem):
    """A float coefficient would fail in the torsion kernels, a string
    with a bare TypeError in validate's arithmetic, None there or in jet,
    a polynomial in 3 variables on R^2 in validate: all are refused when
    built."""
    one = poly.const(1, 2)
    cols = [[poly.zero(), one], [poly.neg(one), poly.zero()]]
    cols[1][0] = term
    with pytest.raises(StructureError, match=problem):
        StructureField(cols)


def test_example_ex2_columns():
    """Column check: J e3 = e4 + x2 e1 and J e4 = -e3 - x2 e2."""
    j = example_structure("ex2")
    x2 = poly.var(2, 4)
    assert j.column(0) == [poly.zero(), poly.const(1, 4), poly.zero(), poly.zero()]
    assert j.column(2) == [x2, poly.zero(), poly.zero(), poly.const(1, 4)]
    assert j.column(3) == [poly.zero(), poly.neg(x2), poly.const(-1, 4), poly.zero()]
    assert validate(j).status == "exact"


def test_example_ex5():
    j1 = example_structure("ex5", eps=1)
    assert validate(j1).status == "exact"
    f = poly.parse_poly("x2^2", 4)
    g = poly.parse_poly("x3^2", 4)
    assert j1.entry(0, 2) == f
    assert j1.entry(1, 2) == g
    assert j1.entry(0, 3) == g
    assert j1.entry(1, 3) == poly.neg(f)
    j0 = example_structure("ex5", eps=0)
    assert poly.is_zero(j0.entry(1, 2))
    assert validate(j0).status == "exact"


@pytest.mark.parametrize("coordinate, problem", [
    (None, "NoneType coordinate None"), ("1/2", "string coordinate '1/2'")])
def test_a_point_of_none_or_a_string_is_refused(coordinate, problem):
    """jet, at_point and eval_matrix refuse a coordinate that is not a
    number by value, naming it, instead of failing inside Fraction."""
    j = example_structure("ex2")
    pt = [0, coordinate, 0, 0]
    for call in (lambda: j.jet(pt, 1), lambda: j.at_point(pt), lambda: j.eval_matrix(pt)):
        with pytest.raises(poly.PolyError, match=problem):
            call()


def test_float_eps_is_refused():
    """ex5(0.1) would be ex5 at the nearest binary fraction, not at 1/10."""
    for eps in (0.1, 0.0):
        with pytest.raises(poly.PolyError, match="float"):
            example_structure("ex5", eps=eps)
    assert example_structure("ex5", eps=Fraction(1, 10)).entry(1, 2) == \
        poly.parse_poly("1/10*x3^2", 4)


def test_example_ex6():
    j = example_structure("ex6", f_text="x5 + x5^2")
    assert j.dim == 6
    assert validate(j).status == "exact"
    f = poly.parse_poly("x5 + x5^2", 6)
    assert j.entry(0, 2) == f
    assert j.entry(1, 3) == poly.neg(f)
    # last complex line untouched
    assert j.entry(5, 4) == poly.const(1, 6)
    with pytest.raises(StructureError):
        example_structure("ex6", f_text="1 + x5")
    with pytest.raises(StructureError):
        example_structure("nope")


def test_validate_reports_order():
    """A^2 with linear A vanishes to order 2; off origin it need not vanish."""
    x1 = poly.var(1, 2)
    a_col = [x1, poly.zero()]
    j = from_anticommuting_part([a_col])
    rep = validate(j)
    assert rep.status == "valid_mod_order_k"
    assert rep.order == 2
    rep2 = validate(j, base_point=[1, 0])
    assert rep2.status == "invalid"
    assert rep2.order == 0
    assert rep2.failing_entry is not None
    # requesting more than the true order fails too
    rep3 = validate(j, order=3)
    assert rep3.status == "invalid"
    assert rep3.order == 2


def test_validate_rejects_a_base_point_of_the_wrong_length():
    """Checked before J^2 + I is read, so an exact structure rejects it too."""
    exact = example_structure("ex2")
    realized = realize_nijenhuis(random_linear_nijenhuis(2, 0))
    assert validate(exact).status == "exact"
    assert validate(realized).status == "valid_mod_order_k"
    for j in (exact, realized):
        for pt in ([0] * 2, [0] * 5):
            with pytest.raises(StructureError, match=f"{len(pt)} coordinates, expected 4"):
                validate(j, base_point=pt)


def test_vanishing_order_shifts_base_point():
    p = poly.parse_poly("x1^2 - 2*x1*x2 + x2^2", 2)  # (x1 - x2)^2
    assert vanishing_order(p, [0, 0]) == 2
    assert vanishing_order(p, [1, 1]) == 2
    assert vanishing_order(p, [1, 0]) == 0
    assert vanishing_order(poly.zero(), [0, 0]) is None
    # the point's length is the number of variables: no coordinate is dropped
    for pt in ([1, 1, 7], [1, 0, 0], [1]):
        with pytest.raises(poly.PolyError, match="substitutions for 2 variables"):
            vanishing_order(p, pt)
    with pytest.raises(poly.PolyError, match="string coordinate 'junk'"):
        vanishing_order(p, [1, 0, "junk"])


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 50),
       st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                min_size=6, max_size=6),
       st.integers(0, 3))
def test_jet_is_the_shift_of_each_entry(n, seed, coords, order):
    """One shift of every entry of J equals each entry shifted alone by the
    Fraction loop, in values and key order."""
    j = random_structure(n, seed)
    pt = coords[:j.dim]
    jet = j.jet(pt, order)
    assert len(jet) == j.dim and all(len(col) == j.dim for col in jet)
    for col, got_col in zip(j.cols, jet):
        for p, got in zip(col, got_col):
            want = shift_by_fractions(p, pt, order)
            assert got == want and list(got) == list(want)


def test_apply_to_field():
    j = example_structure("ex2")
    x = [poly.zero(), poly.zero(), poly.var(1, 4), poly.zero()]
    out = poly.apply_columns(j.cols, x)
    # J (x1 e3) = x1 e4 + x1 x2 e1
    assert out[0] == poly.parse_poly("x1*x2", 4)
    assert out[3] == poly.var(1, 4)
    assert poly.is_zero(out[1]) and poly.is_zero(out[2])


def test_negated_structure():
    j = example_structure("ex2")
    m = j.negated()
    assert validate(m).status == "exact"
    assert m.entry(0, 2) == poly.neg(j.entry(0, 2))


def test_lie_algebra_bracket_and_jacobi():
    g = LieAlgebraSpec(2, {(0, 1): [1, 0]})  # [e1, e2] = e1
    assert g.bracket([1, 0], [0, 1]) == [Fraction(1), Fraction(0)]
    assert g.bracket([0, 1], [1, 0]) == [Fraction(-1), Fraction(0)]
    assert g.bracket([2, 0], [0, 3]) == [Fraction(6), Fraction(0)]
    with pytest.raises(StructureError):
        LieAlgebraSpec(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})


@pytest.mark.parametrize("constants, message", [
    ({(0, 0): [1, 0]}, "diagonal"),
    ({(0, 7): [1, 0]}, "outside"),
    ({(-1, 1): [1, 0]}, "outside"),
    ({(0, 1): [1, 0], (1, 0): [1, 0]}, "not negatives"),
    ({(0, 1): [1, 0], (1, 0): [-1]}, "not negatives"),
])
def test_lie_algebra_rejects_malformed_constants(constants, message):
    with pytest.raises(StructureError, match=message):
        LieAlgebraSpec(2, constants)


def test_lie_algebra_accepts_a_consistent_reversed_pair():
    g = LieAlgebraSpec(2, {(0, 1): [1, 0], (1, 0): [-1, Fraction(0)]})
    assert g.tensor == LieAlgebraSpec(2, {(0, 1): [1, 0]}).tensor


LIE_ALGEBRAS = [
    (2, {(0, 1): [1, 0]}),                                  # affine line
    (2, {}),                                                # abelian
    (3, {(0, 1): [0, 0, 1]}),                               # Heisenberg
    (3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]}),  # so(3)
]


@pytest.mark.parametrize("dim, constants", LIE_ALGEBRAS)
def test_lie_bracket_matches_the_pair_table(dim, constants):
    """The bracket tensor gives the values of a table over every ordered
    basis pair, also where a key is given reversed."""
    g = LieAlgebraSpec(dim, constants)
    assert all(type(c) is Fraction for v in g.tensor.entries.values() for c in v)
    coords = [0, 1, -2, Fraction(1, 3)]
    vectors = [list(v) for v in itertools.product(coords, repeat=dim)][::3]
    for x in vectors:
        for y in vectors[::2]:
            assert g.bracket(x, y) == lie_bracket_by_table(dim, constants, x, y)
    with pytest.raises(TensorError, match="float"):
        g.bracket([0.5] + [0] * (dim - 1), [1] * dim)


def unchecked_lie_algebra(dim, constants):
    """A LieAlgebraSpec holding the constants without the Jacobi check."""
    g = LieAlgebraSpec.__new__(LieAlgebraSpec)
    g.dim = dim
    g.tensor = PointTensor.from_orbits(dim, dim, 2, alternating_rep,
                                       lambda pair: constants.get(pair, [0] * dim))
    return g


@pytest.mark.parametrize("dim, constants, triple", [
    *[(dim, constants, None) for dim, constants in LIE_ALGEBRAS],
    (3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}, (0, 1, 2)),
    (4, {(1, 2): [0, 0, 0, 1], (1, 3): [0, 1, 0, 0]}, (1, 2, 3)),
])
def test_jacobi_violation_matches_the_basis_bracket_reference(dim, constants, triple):
    """The first failing triple, read off the nested bracket tensor, is the
    one found by bracketing basis vectors, and a violation is reported
    with that triple."""
    if triple is None:
        g = LieAlgebraSpec(dim, constants)
    else:
        g = unchecked_lie_algebra(dim, constants)
        with pytest.raises(StructureError, match=re.escape(f"triple {triple}")):
            LieAlgebraSpec(dim, constants)
    assert g.jacobi_violation() == jacobi_violation_by_basis(g) == triple


def test_left_invariant_structure_values():
    """1. N((e1,0),(e2,0)) = (-e1, e1); 2. N((e1,0),(0,e2)) = (e1, e1);
    3. the block structure squares to -I; 4. antisymmetry."""
    g = LieAlgebraSpec(2, {(0, 1): [1, 0]})
    out = left_invariant_structure(g)
    n = out["nijenhuis_at_identity"]
    e = lambda k: [Fraction(1) if i == k else Fraction(0) for i in range(4)]
    assert n.apply([e(0), e(1)]) == [Fraction(-1), Fraction(0), Fraction(1), Fraction(0)]
    assert n.apply([e(0), e(3)]) == [Fraction(1), Fraction(0), Fraction(1), Fraction(0)]
    assert n.is_antisymmetric_in(0, 1)
    jm = out["j"].to_matrix()
    sq = [[sum(jm[i][k] * jm[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    assert sq == [[-(i == j) for j in range(4)] for i in range(4)]
    # abelian algebra: everything vanishes
    ab = LieAlgebraSpec(2, {})
    assert left_invariant_structure(ab)["nijenhuis_at_identity"].is_zero()


def test_linear_nijenhuis_from_free_data():
    c = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    n = linear_nijenhuis_from_free_data(2, {(0, 1): c})
    e = lambda k: [Fraction(1) if i == k else Fraction(0) for i in range(4)]
    assert n.apply([e(0), e(2)]) == c
    minus_j0_c = [Fraction(2), Fraction(-1), Fraction(4), Fraction(-3)]
    assert n.apply([e(1), e(2)]) == minus_j0_c
    assert n.apply([e(0), e(3)]) == minus_j0_c
    assert n.apply([e(1), e(3)]) == [-x for x in c]
    assert n.apply([e(0), e(1)]) == [Fraction(0)] * 4
    j0 = PointTensor.from_matrix(standard_matrix(2))
    assert linear_membership_violation(n, j0) is None


LIE_ALGEBRAS = {
    "sl2": (3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}),
    "heisenberg": (3, {(0, 1): [0, 0, 1]}),
    "abelian 1D": (1, {}),
    "nonabelian 2D": (2, {(0, 1): [1, 0]}),
    "filiform 4D": (4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}),
}


def assert_same_tensor(got, want):
    """Equal values, entry order and element types (repr tells a
    Fraction from an int)."""
    assert got == want
    assert repr(list(got.entries.items())) == repr(list(want.entries.items()))


def test_antilinear_tensors_equal_their_hand_built_oracles():
    """appendix_tensor, example3_tensor, left_invariant_structure and
    random_linear_nijenhuis against their constructions at every basis
    pair: the conjugate minors, the doubling formula, the four generating
    identities and the interleaved cases."""
    for n in range(2, 7):
        assert_same_tensor(appendix_tensor(n), appendix_tensor_by_minors(n))
        ex3 = example3_tensor(n)
        assert_same_tensor(ex3["N"], doubling_by_formula(ex3["A"]))
    for dim, constants in LIE_ALGEBRAS.values():
        g = LieAlgebraSpec(dim, constants)
        assert_same_tensor(left_invariant_structure(g)["nijenhuis_at_identity"],
                           left_invariant_by_identities(g))
    for n in (1, 2, 3, 4):
        for seed in range(5):
            t = random_linear_nijenhuis(n, seed)
            free = {(s, u): t.entries[(2 * s, 2 * u)]
                    for s, u in itertools.combinations(range(n), 2)}
            assert_same_tensor(t, linear_nijenhuis_by_cases(n, free))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_free_data_read_back_from_both_layouts(n, block, data):
    """Random values, zero ones among them, on a random set of pairs
    s < t: N(b_s, b_t) reads them back (zero on the pairs not given), and
    N is antilinear for its structure: j0 on the interleaved basis
    b_s = e_{2s}, doubled_block_j on the block basis b_s = e_s."""
    dim = 2 * n
    pairs = list(itertools.combinations(range(n), 2))
    keys = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    free = {key: data.draw(st.lists(entry, min_size=dim, max_size=dim)) for key in keys}
    if block:
        t, j, b = doubled_nijenhuis_from_free_data(n, free), doubled_block_j(n), lambda s: s
    else:
        t = linear_nijenhuis_from_free_data(n, free)
        j, b = PointTensor.from_matrix(standard_matrix(n)), lambda s: 2 * s
    for s, u in pairs:
        assert list(t.entries[(b(s), b(u))]) == [Fraction(x) for x in free.get((s, u), [0] * dim)]
    assert linear_membership_violation(t, j) is None


@pytest.mark.parametrize("build", [linear_nijenhuis_from_free_data,
                                   doubled_nijenhuis_from_free_data])
@pytest.mark.parametrize("key", [(1, 0), (0, 5), (0, 0), (-1, 1)])
def test_free_data_refuses_a_key_off_the_pairs(build, key):
    """A key that is not a pair s < t of real indices would leave its
    value out of the tensor: it raises StructureError naming the key."""
    with pytest.raises(StructureError, match=re.escape(repr(key))):
        build(2, {key: [1, 2, 3, 4]})


def test_random_linear_nijenhuis_membership():
    j0 = {n: PointTensor.from_matrix(standard_matrix(n)) for n in (2, 3)}
    for n in (2, 3):
        for seed in range(5):
            t = random_linear_nijenhuis(n, seed)
            assert t.is_antisymmetric_in(0, 1)
            assert linear_membership_violation(t, j0[n]) is None
    assert random_linear_nijenhuis(2, 7) == random_linear_nijenhuis(2, 7)


@given(st.integers(2, 3), st.integers(0, 10 ** 6), st.booleans(),
       st.integers(0, 35), st.integers(0, 5), st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_membership_violation_matches_the_pairwise_check(n, seed, block, idx, comp, delta):
    """The same first (a, b, label) as the check one basis pair at a time,
    on valid tensors and on tensors with one entry perturbed.  The tensor
    was read by the check, so an edit in place, which its kept reading
    would not see, raises: the perturbed tensor is built anew."""
    dim = 2 * n
    if block:
        t = example3_tensor(n)["N"]
        j = doubled_block_j(n)
    else:
        t = random_linear_nijenhuis(n, seed)
        j = PointTensor.from_matrix(standard_matrix(n))
    assert linear_membership_violation(t, j) is None
    key = divmod(idx % (dim * dim), dim)
    with pytest.raises(TypeError):
        t.entries[key][comp % dim] += delta
    t = tensor_with_entry(t, key, lambda v: [x + delta * (i == comp % dim)
                                             for i, x in enumerate(v)])
    assert linear_membership_violation(t, j) == membership_violation_by_pairs(t, j)
    assert (delta == 0) == (linear_membership_violation(t, j) is None)


def failing_sides(t, jm):
    """The labels of the sides of N(j a, b) = N(a, j b) = -j N(a, b) that
    fail at some basis pair, by apply."""
    dim = t.dim_in
    e = [linalg.basis_vector(dim, a) for a in range(dim)]
    cols = [[row[a] for row in jm] for a in range(dim)]
    failing = set()
    for a, b in itertools.product(range(dim), repeat=2):
        base = [-x for x in linalg.mat_vec(jm, t.apply([e[a], e[b]]))]
        if t.apply([cols[a], e[b]]) != base:
            failing.add("N(j a, b)")
        if t.apply([e[a], cols[b]]) != base:
            failing.add("N(a, j b)")
    return failing


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("n", [2, 3])
def test_membership_violation_on_one_side_or_both(side, n):
    """The same first (a, b, label) as the pairwise check when a
    perturbation D of a valid N breaks only N(j a, b) = -j N(a, b), only
    N(a, j b) = -j N(a, b), or both.  D(a, b) = alpha(a) L(b), with L
    antilinear (L j = -j L), keeps the right side and breaks the left; its
    transpose does the reverse."""
    dim = 2 * n
    jm = standard_matrix(n)
    rng = random.Random(11 * n)
    m = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    # L = (M + j M j) / 2, the antilinear part of M
    jmj = [[sum(jm[i][a] * m[a][b] * jm[b][c] for a in range(dim) for b in range(dim))
            for c in range(dim)] for i in range(dim)]
    lin = [[(x + y) / 2 for x, y in zip(row, row_jmj)] for row, row_jmj in zip(m, jmj)]
    alpha = [Fraction(rng.randint(1, 3)) for _ in range(dim)]
    perturbation = {
        "left": lambda a, b: [alpha[a] * lin[i][b] for i in range(dim)],
        "right": lambda a, b: [alpha[b] * lin[i][a] for i in range(dim)],
        "both": lambda a, b: [Fraction(rng.randint(-1, 1)) for _ in range(dim)],
    }[side]
    t = random_linear_nijenhuis(n, 5)
    bad = PointTensor(dim, dim, 2, {idx: [x + y for x, y in zip(v, perturbation(*idx))]
                                    for idx, v in t.entries.items()})
    assert failing_sides(bad, jm) == {"left": {"N(j a, b)"}, "right": {"N(a, j b)"},
                                      "both": {"N(j a, b)", "N(a, j b)"}}[side]
    j = PointTensor.from_matrix(jm)
    assert linear_membership_violation(bad, j) == membership_violation_by_pairs(bad, j)


def test_realize_nijenhuis_columns():
    c = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    n = linear_nijenhuis_from_free_data(2, {(0, 1): c})
    j = realize_nijenhuis(n)
    x2 = poly.var(2, 4)
    # A e3 = x2 * c on top of j0 e3 = e4
    assert j.entry(0, 2) == x2
    assert j.entry(1, 2) == poly.scale(x2, 2)
    assert j.entry(2, 2) == poly.scale(x2, 3)
    assert j.entry(3, 2) == poly.add(poly.const(1, 4), poly.scale(x2, 4))
    # A e4 = -j0 (x2 c): components (2, -1, 4, -3) x2
    assert j.entry(0, 3) == poly.scale(x2, 2)
    assert j.entry(1, 3) == poly.neg(x2)
    rep = validate(j)
    assert rep.status == "valid_mod_order_k" and rep.order == 2


def test_realize_nijenhuis_rejects_bad_input():
    dim = 4
    zero = [Fraction(0)] * dim
    e1 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]

    def skew_only(idx):
        if idx == (0, 2):
            return e1
        if idx == (2, 0):
            return [-x for x in e1]
        return list(zero)

    bad = PointTensor.from_function(dim, dim, 2, skew_only)
    with pytest.raises(StructureError, match="antilinearity"):
        realize_nijenhuis(bad)

    def not_skew(idx):
        return e1 if idx == (0, 2) else list(zero)

    with pytest.raises(StructureError, match="antisymmetric"):
        realize_nijenhuis(PointTensor.from_function(dim, dim, 2, not_skew))


def test_random_structure_exact():
    for n in (2, 3):
        for seed in (0, 1, 2, 3, 4):
            j = random_structure(n, seed)
            assert validate(j).status == "exact"
            assert j.max_entry_degree() <= 2
    a = random_structure(2, 11)
    b = random_structure(2, 11)
    assert a == b


# fingerprints of (name, cols) computed before the conjugation moved to
# poly.apply_columns; repr keeps each polynomial's coefficient order
RANDOM_STRUCTURE_DIGESTS = {
    (1, 1, 0): "9db4a7164e9034bb",
    (1, 3, 5): "2be92f9ca4037655",
    (2, 1, 3): "7bf9685c330a0998",
    (2, 2, 0): "b2037a39bec98032",
    (2, 2, 11): "9d43230e5e3f7600",
    (2, 3, 7): "f60f9b1565782974",
    (3, 2, 4): "1d103db8d0a08d26",
    (3, 3, 21121): "e53c943283921abf",
    (4, 2, 9): "fb9bd60e9e052789",
}


@pytest.mark.parametrize("n, degree, seed", sorted(RANDOM_STRUCTURE_DIGESTS))
def test_random_structure_draws_are_frozen(n, degree, seed):
    """Workloads and tests draw from random_structure; any change to the
    draw, the conjugation or the coefficient order changes a fingerprint."""
    j = random_structure(n, seed, degree)
    assert digest([j.name, j.cols]) == RANDOM_STRUCTURE_DIGESTS[(n, degree, seed)]
