"""Point tensors: application, symmetry checks, commutants, kernels."""

import inspect
import itertools
import math
import operator
import random
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import linalg, tensor
from nijcalc.quadext import QuadExt
from nijcalc.tensor import PointTensor
from reference import (digest, has_pair_pattern_by_swaps, is_alternating_by_swaps,
                       is_fully_symmetric_by_swaps, mat_mul, permutation_sign,
                       solve_affine)

F = Fraction


def std_j(n):
    """Block rotation matrix: e_{2r-1} -> e_{2r}, e_{2r} -> -e_{2r-1}."""
    m = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        m[2 * r + 1][2 * r] = F(1)
        m[2 * r][2 * r + 1] = F(-1)
    return PointTensor.from_matrix(m)


def test_apply_identity_and_antisymmetry():
    ident = tensor.identity_map(3)
    e1 = linalg.basis_vector(3, 0)
    assert ident.apply([e1]) == e1

    # antisymmetric arity-2 tensor vanishes on the diagonal
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(0)])
    assert t.is_antisymmetric_in(0, 1)
    v = [F(3), F(-2)]
    assert t.apply([v, v]) == [F(0), F(0)]


def test_apply_is_multilinear():
    t = PointTensor.from_function(2, 1, 2, lambda idx: [F(idx[0] + 2 * idx[1] + 1)])
    u, v, w = [F(1), F(2)], [F(-1), F(1)], [F(0), F(3)]
    left = t.apply([linalg.vec_add(u, w), v])
    right = linalg.vec_add(t.apply([u, v]), t.apply([w, v]))
    assert left == right


def dense_apply(t, args):
    """Reference: the sum over every stored entry, zero coefficients included."""
    out = [F(0)] * t.dim_out
    for idx, value in t.entries.items():
        coeff = 1
        for a, j in zip(args, idx):
            coeff = coeff * a[j]
        out = [o + coeff * v for o, v in zip(out, value)]
    return out


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# zero is one of three branches, so arguments come sparse as well as dense
sparse_scalars = st.one_of(st.just(F(0)), st.integers(-2, 2), small_fractions)


@st.composite
def drawn_tensors(draw, dim_in, dim_out, arity):
    """Up to 3^5 stored entries from a generator with a drawn seed, which is
    much faster to draw and to shrink than each entry, with a drawn share of
    zeros: all zero, sparse (most values zero) or dense."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from((0.0, 0.2, 1.0)))
    return PointTensor.from_function(dim_in, dim_out, arity, lambda idx: [
        F(rnd.randint(-3, 3), rnd.randint(1, 4)) if rnd.random() < density else 0
        for _ in range(dim_out)])


@st.composite
def tensor_and_args(draw, scalars):
    dim_in = draw(st.integers(1, 3))
    dim_out = draw(st.integers(1, 3))
    arity = draw(st.integers(0, 4))
    t = draw(drawn_tensors(dim_in, dim_out, arity))
    arg = st.one_of(
        st.just([0] * dim_in),
        st.lists(scalars, min_size=dim_in, max_size=dim_in))
    return t, draw(st.lists(arg, min_size=arity, max_size=arity))


@given(tensor_and_args(sparse_scalars))
def test_apply_matches_dense_sum(case):
    t, args = case
    out = t.apply(args)
    assert out == dense_apply(t, args)
    assert all(type(x) is Fraction for x in out)


quad = st.builds(QuadExt, small_fractions, small_fractions, st.just(2))


@given(tensor_and_args(st.one_of(sparse_scalars, quad)))
def test_apply_matches_dense_sum_over_quadratic_field(case):
    t, args = case
    assert t.apply(args) == dense_apply(t, args)


def test_apply_rejects_floats_and_bad_shapes():
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(1)])
    with pytest.raises(tensor.TensorError, match="float"):
        t.apply([[0.5, 0], [1, 0]])
    with pytest.raises(tensor.TensorError, match="float"):
        t.apply([[1, 0], [0.0, 1]])  # even a float zero
    with pytest.raises(tensor.TensorError, match="str component '1/2'"):
        t.apply([[1, 0], ["1/2", 1]])  # not parsed, and not a late TypeError
    with pytest.raises(tensor.TensorError, match="NoneType component None"):
        t.apply([[None, 1], [1, 0]])  # not read as 0
    with pytest.raises(tensor.TensorError, match="arguments for arity"):
        t.apply([[1, 0]])
    with pytest.raises(tensor.TensorError, match="argument length"):
        t.apply([[1, 0], [1, 0, 0]])


def test_from_matrix_and_scale_refuse_strings():
    """Fraction would parse '1/2' as one half; a tensor refuses it by value."""
    with pytest.raises(tensor.TensorError, match="string value '1/2'"):
        PointTensor.from_matrix([['1/2']])
    with pytest.raises(tensor.TensorError, match="string value '2'"):
        PointTensor.from_matrix([[1]]).scale('2')


@pytest.mark.parametrize("c", [0.1, 0.0, 1.0, None])
def test_constructors_and_scale_refuse_floats(c):
    """A float value would be stored as its binary fraction, and None
    would fail inside Fraction: every constructor that converts values,
    and scale, refuse both by name."""
    t = PointTensor.from_function(2, 2, 1, lambda idx: [F(idx[0]), F(1)])
    name = "float" if c is not None else "NoneType value None"
    with pytest.raises(tensor.TensorError, match=name):
        PointTensor.from_matrix([[c, 0], [0, 1]])
    with pytest.raises(tensor.TensorError, match=name):
        PointTensor.from_function(2, 2, 1, lambda idx: [c, F(1)])
    with pytest.raises(tensor.TensorError, match=name):
        PointTensor.from_orbits(2, 2, 2, tensor.alternating_rep, lambda idx: [c, F(1)])
    with pytest.raises(tensor.TensorError, match=name):
        t.scale(c)


@settings(max_examples=60, deadline=None)
@given(drawn_tensors(2, 3, 2), drawn_tensors(3, 1, 0))
def test_a_tensor_rebuilt_from_its_reading_is_the_same_tensor(a, b):
    """Fractions -> rows -> Fractions: den is the lcm of the entries'
    denominators, rows hold each nonzero component's numerator over it,
    and the tensor built from them has the same Fraction entries."""
    for t in (a, b):
        assert t.den == math.lcm(*(x.denominator for v in t.entries.values() for x in v))
        assert t.rows == {idx: tuple((i, x.numerator * (t.den // x.denominator))
                                     for i, x in enumerate(v) if x) for idx, v in t.entries.items()}
        back = PointTensor.from_rows(t.dim_in, t.dim_out, t.arity, t.den, t.rows)
        assert back == t and list(back.entries) == list(t.entries)
        assert_exact_components(back)


def test_a_tensor_cannot_be_changed_after_it_is_built():
    """Entries and rows are read-only mappings of tuples, copied from what
    the constructor was given: an edit raises TypeError, and a later change
    to the given dict or lists does not reach the tensor, so its Fraction
    entries and its kept integer reading always agree."""
    values = {(0,): [F(1, 2), F(0)], (1,): [F(3), F(-1, 3)]}
    t = PointTensor(2, 2, 1, values)
    assert (t.den, t.rows) == (6, {(0,): ((0, 3),), (1,): ((0, 18), (1, -2))})
    values[(0,)][0] = F(5)
    values[(1,)] = [F(0), F(0)]
    assert t.entries == {(0,): (F(1, 2), F(0)), (1,): (F(3), F(-1, 3))}
    for edit in (lambda: operator.setitem(t.entries[(0,)], 0, F(1)),
                 lambda: operator.setitem(t.entries, (0,), (F(0), F(0))),
                 lambda: operator.delitem(t.entries, (1,)),
                 lambda: operator.setitem(t.rows[(0,)], 0, (0, 6)),
                 lambda: operator.setitem(t.rows, (1,), ())):
        with pytest.raises(TypeError):
            edit()
    rows = {(0,): [(0, 3)], (1,): []}
    r = PointTensor.from_rows(2, 2, 1, 6, rows)
    rows[(1,)].append((1, 6))
    assert r.entries == {(0,): (F(1, 2), F(0)), (1,): (F(0), F(0))}
    assert t.entries[(0,)] == r.entries[(0,)] and t.den == r.den


@st.composite
def symmetric_values(draw):
    dim_in = draw(st.integers(1, 3))
    dim_out = draw(st.integers(1, 3))
    arity = draw(st.integers(0, 4))
    rnd = draw(st.randoms(use_true_random=False))
    values = {rep: [F(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(dim_out)]
              for rep in itertools.combinations_with_replacement(range(dim_in), arity)}
    return dim_in, dim_out, arity, values


@given(symmetric_values())
def test_from_symmetric_function_matches_from_function(case):
    dim_in, dim_out, arity, values = case

    def fn(idx):
        return values[tuple(sorted(idx))]

    built = PointTensor.from_orbits(dim_in, dim_out, arity, tensor.symmetric_rep, fn)
    dense = PointTensor.from_function(dim_in, dim_out, arity, fn)
    assert built == dense
    assert list(built.entries) == list(dense.entries)
    assert built.respects(tensor.symmetric_rep)
    # entries may share a tuple, since no entry can be edited
    idx = next(iter(built.entries))
    with pytest.raises(TypeError):
        built.entries[idx][0] += 1
    with pytest.raises(TypeError):
        built.entries[idx] = [F(1)] * dim_out
    # the same orbit values under the alternating rule, signed by parity
    alternating = PointTensor.from_orbits(dim_in, dim_out, arity,
                                          tensor.alternating_rep, fn)
    signed = PointTensor.from_function(
        dim_in, dim_out, arity, lambda idx: [permutation_sign(idx) * v for v in fn(idx)])
    assert alternating == signed
    assert list(alternating.entries) == list(signed.entries)


def test_alternating_rep_sign_is_the_permutation_parity():
    for k in range(1, 5):
        for idx in itertools.product(range(4), repeat=k):
            assert tensor.alternating_rep(idx) == (tuple(sorted(idx)),
                                                   permutation_sign(idx))


@given(symmetric_values(), st.integers(0, 10 ** 6))
def test_respects_agrees_with_the_swap_checks(case, pick):
    """On symmetric, alternating and pair-pattern tensors, and on each of
    them with one entry perturbed, respects gives the verdict of the
    slot-swap checks."""
    dim_in, dim_out, arity, values = case

    def fn(idx):
        return values[tuple(sorted(idx))]

    built = [
        (PointTensor.from_orbits(dim_in, dim_out, arity, tensor.symmetric_rep, fn),
         tensor.symmetric_rep, is_fully_symmetric_by_swaps),
        (PointTensor.from_orbits(dim_in, dim_out, arity, tensor.alternating_rep, fn),
         tensor.alternating_rep, is_alternating_by_swaps),
    ]
    if arity == 4:
        built.append((PointTensor.from_orbits(dim_in, dim_out, 4, tensor.pair_pattern_rep, fn),
                      tensor.pair_pattern_rep, has_pair_pattern_by_swaps))
    for t, rule, by_swaps in built:
        assert t.respects(rule) and by_swaps(t)
        idx = sorted(t.entries)[pick % len(t.entries)]
        t = PointTensor(dim_in, dim_out, arity, {**t.entries, idx: [
            x + (i == pick % dim_out) for i, x in enumerate(t.entries[idx])]})
        assert t.respects(rule) == by_swaps(t)
    if arity == 4:
        assert built[2][0].has_pair_pattern() == has_pair_pattern_by_swaps(built[2][0])


@settings(max_examples=40, deadline=None)
@given(symmetric_values())
def test_from_orbit_rows_is_from_orbits_on_integer_rows(case):
    """Under each sign rule, rows over a den at the representatives give
    the tensor from_orbits builds from their values: fn runs once per
    representative of nonzero sign, in order of first appearance, and the
    tuples of one orbit and sign share one row object."""
    dim_in, dim_out, arity, values = case
    den = 12
    rules = [tensor.symmetric_rep, tensor.alternating_rep]
    if arity == 4:
        rules.append(tensor.pair_pattern_rep)
    for rule in rules:
        seen = []

        def rows_fn(r):
            seen.append(r)
            return [(i, int(v * den)) for i, v in enumerate(values[tuple(sorted(r))]) if v]

        got = PointTensor.from_orbit_rows(dim_in, dim_out, arity, rule, den, rows_fn)
        want = PointTensor.from_orbits(dim_in, dim_out, arity, rule,
                                       lambda r: values[tuple(sorted(r))])
        assert list(got.entries.items()) == list(want.entries.items())
        reps = [rule(idx) for idx in itertools.product(range(dim_in), repeat=arity)]
        assert seen == list(dict.fromkeys(r for r, sign in reps if sign))
        for idx in got.rows:
            r, sign = rule(idx)
            if sign == 1:
                assert got.rows[idx] is got.rows[r]
            elif sign == 0:
                assert got.rows[idx] == ()


def test_from_symmetric_function_calls_fn_once_per_sorted_tuple():
    for dim in (1, 2, 4, 6):
        for k in range(5):
            seen = []
            PointTensor.from_orbits(dim, 2, k, tensor.symmetric_rep,
                                    lambda idx: seen.append(idx) or [F(sum(idx)), F(1)])
            assert len(seen) == math.comb(dim + k - 1, k)
            assert seen == list(itertools.combinations_with_replacement(range(dim), k))


def test_from_function_fills_each_tuple_as_its_own_orbit():
    """from_function is from_orbits with each index tuple its own orbit:
    fn runs once per tuple, in product order, and a wrong-length value
    still raises TensorError (floats: test_constructors_and_scale_refuse_floats)."""
    seen = []
    t = PointTensor.from_function(3, 2, 2, lambda idx: seen.append(idx) or [idx[0], F(idx[1], 2)])
    assert seen == list(itertools.product(range(3), repeat=2)) == list(t.entries)
    assert t.entries[(2, 1)] == (F(2), F(1, 2)) and type(t.entries[(2, 1)][0]) is F
    with pytest.raises(tensor.TensorError, match=r"value at \(0, 1\) has length 1, expected 2"):
        PointTensor.from_function(2, 2, 2, lambda idx: [F(1)] * (1 + (idx != (0, 1))))


def test_from_symmetric_function_rejects_wrong_length():
    with pytest.raises(tensor.TensorError, match="length 3, expected 2"):
        PointTensor.from_orbits(2, 2, 2, tensor.symmetric_rep, lambda idx: [F(1)] * 3)


@given(tensor_and_args(sparse_scalars))
def test_post_compose_matches_matrix_product(case):
    t, args = case
    coeffs = [F(c) for c in (0, 1, -2, 0, F(1, 3), 5, 0, 0, -1)]
    m = [[coeffs[(3 * i + j) % len(coeffs)] for j in range(t.dim_out)] for i in range(3)]
    out = tensor.post_compose(PointTensor.from_matrix(m), t)
    assert (out.dim_in, out.dim_out, out.arity) == (t.dim_in, 3, t.arity)
    for idx, v in t.entries.items():
        assert list(out.entries[idx]) == linalg.mat_vec(m, v)
        assert all(type(x) is Fraction for x in out.entries[idx])


def conjugated_j(n, seed):
    """std_j(n) conjugated by a seeded invertible rational matrix."""
    rng = random.Random(seed)
    while True:
        a = [[F(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(2 * n)]
        if linalg.det(a) != 0:
            return PointTensor.from_matrix(mat_mul(
                mat_mul(a, std_j(n).to_matrix()), linalg.inverse(a)))


# (n, seed) of j_l and of j_m, seed None for std_j itself, and the digest of
# the commutant basis as the hand-written equation rows gave it
COMMUTANT_CASES = [
    ((1, None), (1, None), "92441034252a347e"),
    ((1, None), (2, None), "8700907b9ab2cbb0"),
    ((1, None), (3, None), "d5c96f14daef202c"),
    ((2, None), (1, None), "47f4d17d8bec1ad9"),
    ((2, None), (2, None), "9f52cc5bd8548351"),
    ((2, None), (3, None), "d8f6e78161e975c4"),
    ((1, 3), (2, 4), "39db4415752305eb"),
    ((2, 5), (3, 6), "b6b9e234b15282e7"),
    ((2, 7), (2, None), "eaf4202ed98b6bfd"),
    ((3, 8), (1, 9), "fe80227b24864d14"),
]


def test_commutant_dimension_is_2lm():
    for (l, seed_l), (m, seed_m), expected in COMMUTANT_CASES:
        j_l = std_j(l) if seed_l is None else conjugated_j(l, seed_l)
        j_m = std_j(m) if seed_m is None else conjugated_j(m, seed_m)
        basis = tensor.commutant_basis(j_l, j_m)
        assert len(basis) == 2 * l * m
        for phi in basis:
            lhs = mat_mul(j_m.to_matrix(), phi.to_matrix())
            rhs = mat_mul(phi.to_matrix(), j_l.to_matrix())
            assert lhs == rhs
        assert digest(basis) == expected


def test_matrix_of_a_post_composition_is_its_matrix():
    m = [[F(1), F(0), F(-2)], [F(1, 3), F(4), F(0)]]
    units = tensor.unit_basis(1, 3, 0, tensor.symmetric_rep)
    op = lambda v: tensor.post_compose(PointTensor.from_matrix(m), v)
    assert tensor.matrix_of(op, units) == m
    assert tensor.combination([2, 0, F(-1, 2)], units).entries == {(): (2, 0, F(-1, 2))}
    assert [tensor.flatten(t) for t in tensor.solution_basis(op, units)] == linalg.nullspace(m)
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0]), F(idx[1] + 1)])
    assert tensor.flatten(t) == [0, 1, 0, 2, 1, 1, 1, 2]


def test_commutant_rejects_non_structure():
    with pytest.raises(tensor.TensorError):
        tensor.commutant_basis(tensor.identity_map(2), std_j(1))


def test_kernel_dim_zero_tensor():
    t = PointTensor.from_function(4, 4, 2, lambda idx: [0] * 4)
    assert tensor.kernel_dim(t, linalg.basis_vector(4, 0)) == 4


def test_kernel_matrix_rejects_floats_and_bad_lengths():
    """Bad lengths, and components other than int or Fraction: None would
    be read as 0, a string fail inside the kernel, and a QuadExt is left to
    apply, since the kernel works over Q.  Both calls refuse them, naming
    the vector."""
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(1)])
    assert tensor.kernel_matrix(t, [F(1), F(2)]) == [[F(2), F(-1)], [F(3), F(3)]]
    for xi, named in (([0.5, 0], "0.5"), ([0, 0.0], "0.0"), ([None, F(1)], "None"),
                      (["1", 0], "'1'"), ([QuadExt(1, 1, 3), 0], "QuadExt(1, 1, sqrt(3))"),
                      ([1], ""), ([1, 0, 0], "")):
        for call in (lambda: tensor.kernel_matrix(t, xi),
                     lambda: list(tensor.kernel_matrices(t, [[F(1), F(0)], xi]))):
            with pytest.raises(tensor.TensorError, match="exact vector of length 2") as err:
                call()
            assert named in str(err.value)


def kernel_matrix_by_apply(t, xi):
    """Column k is T(xi, e_k)."""
    cols = [t.apply([xi, linalg.basis_vector(t.dim_in, k)]) for k in range(t.dim_in)]
    return [list(row) for row in zip(*cols)]


def test_kernel_matrices_equal_kernel_matrix_at_every_point():
    """One reading of T serves every point: rational points and the zero
    vector.  Each map is an arity-1 tensor; read out, it is
    kernel_matrix's matrix and T(xi, e_k) column by column, every
    component a Fraction.  Over Q(sqrt d) the kernel
    refuses: a QuadExt point, and a T holding a QuadExt entry, raise
    TensorError naming it; the 4D frame takes such a matrix by apply."""
    rng = random.Random(3)
    rational = PointTensor.from_function(4, 4, 2, lambda idx: [
        F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(4)])
    points = [[F(1), F(-2), F(1, 3), F(0)], [0, 0, 0, 0], [F(2), 1, F(-1, 2), 3],
              [F(1), F(1), F(0), F(-3)]]
    got = list(tensor.kernel_matrices(rational, points))
    assert len(got) == len(points)
    for xi, k in zip(points, got):
        assert (k.arity, k.dim_in, k.dim_out) == (1, 4, 4)
        m = k.to_matrix()
        assert m == tensor.kernel_matrix(rational, xi) == kernel_matrix_by_apply(rational, xi)
        assert all(type(x) is Fraction for row in m for x in row)
    quad_point = [QuadExt(1, 1, 3), F(1), 0, QuadExt(0, F(1, 2), 3)]
    with pytest.raises(tensor.TensorError, match=r"QuadExt\(1, 1, sqrt\(3\)\)"):
        list(tensor.kernel_matrices(rational, points[:1] + [quad_point]))
    assert any(type(x) is QuadExt for row in kernel_matrix_by_apply(rational, quad_point)
               for x in row)
    # the constructors that convert values hold rationals only
    quad = PointTensor(4, 4, 2, {**rational.entries, (1, 2): [QuadExt(F(1, 2), 1, 3),
                                                              *rational.entries[(1, 2)][1:]]})
    with pytest.raises(tensor.TensorError, match=r"component QuadExt\(1/2, 1, sqrt\(3\)\)"):
        tensor.kernel_matrix(quad, points[0])


def test_kernel_matrices_is_lazy():
    """A matrix is computed when it is taken: taking one reads one point."""
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(1)])
    taken = []

    def points():
        for xi in ([F(1), F(2)], [F(0), F(1)]):
            taken.append(xi)
            yield xi
        raise AssertionError("read past the second point")

    matrices = tensor.kernel_matrices(t, points())
    assert next(matrices).to_matrix() == [[F(2), F(-1)], [F(3), F(3)]]
    assert taken == [[F(1), F(2)]]


def test_from_matrix_refuses_ragged_rows():
    for m in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(tensor.TensorError, match=r"matrix rows of lengths \[\d, \d\]"):
            PointTensor.from_matrix(m)


def test_precompose_all_identity_and_zero():
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0] - idx[1]), F(idx[0] * idx[1])])
    ident = tensor.identity_map(2)
    assert tensor.precompose_all(t, ident) == t
    zero = PointTensor.from_matrix([[F(0), F(0)], [F(0), F(0)]])
    assert tensor.precompose_all(t, zero).is_zero()


def test_precompose_all_with_rectangular_map():
    # T on R^3, phi: R^2 -> R^3; result is a tensor on R^2
    t = PointTensor.from_function(3, 2, 2, lambda idx: [F(idx[0]), F(idx[1])])
    phi = PointTensor.from_matrix([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]])
    out = tensor.precompose_all(t, phi)
    assert out.dim_in == 2 and out.arity == 2
    u, v = [F(1), F(0)], [F(0), F(1)]
    pu = phi.apply([u])
    pv = phi.apply([v])
    assert out.apply([u, v]) == t.apply([pu, pv])


def by_apply(dim_in, dim_out, arity, fn):
    """The tensor with fn's value at every index tuple, kept as computed
    (from_function would turn each component into a Fraction, which a
    QuadExt is not)."""
    return PointTensor(dim_in, dim_out, arity, {
        idx: fn(idx) for idx in itertools.product(range(dim_in), repeat=arity)})


def slot_compose_by_apply(t, s, slot):
    """Reference: T(e_i.., S(e_j1, .., e_jq), e_k..) on every basis tuple."""
    basis, q = linalg.identity(t.dim_in), s.arity
    return by_apply(t.dim_in, t.dim_out, t.arity - 1 + q, lambda idx: t.apply(
        [basis[i] for i in idx[:slot]] + [s.apply([basis[j] for j in idx[slot:slot + q]])]
        + [basis[k] for k in idx[slot + q:]]))


@st.composite
def tensor_and_inner_tensors(draw):
    dim = draw(st.integers(1, 3))
    t = draw(drawn_tensors(dim, draw(st.integers(1, 2)), draw(st.integers(1, 3))))
    return t, [draw(drawn_tensors(dim, dim, q)) for q in (1, 2, 3)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tensor_and_inner_tensors())
def test_slot_compose_feeds_a_tensor_of_any_arity_into_any_slot(case):
    t, inner = case
    for s in inner:
        for slot in range(t.arity):
            out = tensor.slot_compose(t, s, slot)
            assert out == slot_compose_by_apply(t, s, slot)
            assert all(type(x) is Fraction for v in out.entries.values() for x in v)


@st.composite
def tensor_and_rectangular_map(draw):
    dim_in, dim_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    t = draw(drawn_tensors(dim_in, draw(st.integers(1, 2)), draw(st.integers(0, 3))))
    return t, draw(drawn_tensors(dim_out, dim_in, 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tensor_and_rectangular_map())
def test_precompose_all_applies_the_map_in_every_slot(case):
    t, phi = case
    images = [phi.apply([e]) for e in linalg.identity(phi.dim_in)]
    out = tensor.precompose_all(t, phi)
    assert out == PointTensor.from_function(
        phi.dim_in, t.dim_out, t.arity, lambda idx: t.apply([images[i] for i in idx]))
    # fresh entries, also for a vector (arity 0)
    assert not any(v is t.entries.get(idx) for idx, v in out.entries.items())


def raw_tensor(rnd, dim_in, dim_out, arity, kind):
    """A tensor stored as given, not through from_function: sparse int
    values, all zero, or sparse ints with one component a QuadExt ("quad")."""
    entries = {idx: [rnd.randint(-3, 3) if kind != "zero" and rnd.random() < 0.6 else 0
                     for _ in range(dim_out)]
               for idx in itertools.product(range(dim_in), repeat=arity)}
    if kind == "quad":
        value = rnd.choice(list(entries.values()))
        value[rnd.randrange(dim_out)] = QuadExt(F(rnd.randint(-3, 3), 2), rnd.choice((-1, 2)), 2)
    return PointTensor(dim_in, dim_out, arity, entries)


# the kinds of T and of S (or of phi) on which the contraction kernel runs
KERNEL_CASES = [("int", "int"), ("int", "zero"), ("zero", "int"),
                ("quad", "int"), ("int", "quad")]


@pytest.mark.parametrize("kinds", KERNEL_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_contraction_kernel_values_and_types(kinds, seed):
    """slot_compose, precompose_all and post_compose on ints and on zeros
    equal their apply definitions, and every component is a Fraction: an
    int would print differently.  With one QuadExt in an input each raises
    TensorError naming it, since the kernel works over Q."""
    rnd = random.Random(seed)
    t = raw_tensor(rnd, 3, 2, 2, kinds[0])
    cases = []  # (the kernel's call, its apply definition)
    for q in (1, 2):
        s = raw_tensor(rnd, 3, 3, q, kinds[1])
        for slot in range(t.arity):
            cases.append((lambda s=s, slot=slot: tensor.slot_compose(t, s, slot),
                          lambda s=s, slot=slot: slot_compose_by_apply(t, s, slot)))
    phi = raw_tensor(rnd, 2, 3, 1, kinds[1])
    images = [phi.apply([e]) for e in linalg.identity(2)]
    cases.append((lambda: tensor.precompose_all(t, phi), lambda: by_apply(
        2, t.dim_out, t.arity, lambda idx: t.apply([images[i] for i in idx]))))
    # phi o T, phi from T's values R^2 to R^3
    cases.append((lambda: tensor.post_compose(phi, t), lambda: by_apply(
        t.dim_in, 3, t.arity, lambda idx: phi.apply([t.entries[idx]]))))
    for kernel, definition in cases:
        if "quad" in kinds:
            with pytest.raises(tensor.TensorError, match=r"component QuadExt\(.*works over Q"):
                kernel()
            continue
        out = kernel()
        assert out == definition()
        assert_exact_components(out)
        if "zero" in kinds:
            assert out.is_zero()


# ---------------------------------------------------------------------------
# contraction_sum against the chain of operations it replaces
# ---------------------------------------------------------------------------

def permuted_by_swaps(t, perm):
    """The term t with its slot k moved to slot perm[k], by swap_slots."""
    perm = list(perm)
    for k in range(len(perm)):
        while perm[k] != k:
            p = perm[k]
            t = t.swap_slots(k, p)
            perm[k], perm[p] = perm[p], perm[k]
    return t


def chain_sum(terms):
    """sum_k sign_k * term_k by slot_compose, post_compose, swap_slots,
    neg, add and sub, one operation at a time."""
    total = None
    for sign, outer, inner, slot, perm in terms:
        t = (inner if outer is None else post_compose_or_slot(outer, inner, slot))
        t = t if perm is None else permuted_by_swaps(t, perm)
        if total is None:
            total = t if sign == 1 else t.neg()
        else:
            total = total.add(t) if sign == 1 else total.sub(t)
    return total


def post_compose_or_slot(outer, inner, slot):
    return (tensor.post_compose(outer, inner) if slot is None
            else tensor.slot_compose(outer, inner, slot))


@st.composite
def contraction_terms(draw):
    """1-4 signed terms with values in R^dim_out on an arity 1-4 tensor of
    R^dim: slot contractions of outer tensors of arity 1-4 with inner ones
    of arity 0-2 at every slot, post-compositions and plain tensors, each
    in a drawn slot order, with drawn densities (all zero included) and
    denominators 1-4."""
    dim, dim_out, arity = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("slot", "post", "plain")))
        if kind == "slot":
            q = draw(st.integers(0, min(2, arity)))
            outer = draw(drawn_tensors(dim, dim_out, arity + 1 - q))
            inner = draw(drawn_tensors(dim, dim, q))
            slot = draw(st.integers(0, outer.arity - 1))
        elif kind == "post":
            mid = draw(st.integers(1, 3))
            outer, inner, slot = draw(drawn_tensors(mid, dim_out, 1)), draw(drawn_tensors(dim, mid, arity)), None
        else:
            outer, inner, slot = None, draw(drawn_tensors(dim, dim_out, arity)), None
        perm = draw(st.one_of(st.none(), st.permutations(range(arity)).map(tuple)))
        terms.append((draw(st.sampled_from((1, -1))), outer, inner, slot, perm))
    return dim, dim_out, arity, terms


def assert_exact_components(t, allowed=(Fraction,)):
    assert all(type(x) in allowed for v in t.entries.values() for x in v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(contraction_terms())
def test_contraction_sum_equals_the_operation_chain(case):
    dim, dim_out, arity, terms = case
    got = tensor.contraction_sum(dim, dim_out, arity, terms)
    assert got == chain_sum(terms)
    assert list(got.entries) == list(itertools.product(range(dim), repeat=arity))
    assert_exact_components(got)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(contraction_terms())
def test_a_term_may_hold_a_reading_for_a_tensor(case):
    """A tensor built from its integer reading sums as the tensor built
    from its values: with every input rebuilt from its den and rows the
    sum and its reading are the same."""
    dim, dim_out, arity, terms = case
    want = tensor.contraction_sum(dim, dim_out, arity, terms)
    assert want == chain_sum(terms)

    def from_rows(t):
        return None if t is None else PointTensor.from_rows(
            t.dim_in, t.dim_out, t.arity, t.den, t.rows)

    got = tensor.contraction_sum(dim, dim_out, arity, [
        (sign, from_rows(outer), from_rows(inner), slot, perm)
        for sign, outer, inner, slot, perm in terms])
    assert (got.dim_in, got.dim_out, got.arity) == (dim, dim_out, arity)
    assert (got.den, got.rows) == (want.den, want.rows) and got == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(contraction_terms(), st.integers(0, 2 ** 32))
def test_contraction_sum_with_a_quadratic_value_in_one_term(case, pick):
    """The sum equals its operation chain on rational terms; with one
    component of one input a QuadExt it raises TensorError naming that
    component, since the kernel works over Q."""
    dim, dim_out, arity, terms = case
    assert tensor.contraction_sum(dim, dim_out, arity, terms) == chain_sum(terms)
    rnd = random.Random(pick)
    k = rnd.randrange(len(terms))
    sign, outer, inner, slot, perm = terms[k]
    entries = {idx: list(v) for idx, v in inner.entries.items()}
    value = rnd.choice(list(entries.values()))
    value[rnd.randrange(len(value))] = QuadExt(F(rnd.randint(-3, 3), 2), rnd.choice((-1, 2)), 2)
    inner = PointTensor(inner.dim_in, inner.dim_out, inner.arity, entries)
    terms = terms[:k] + [(sign, outer, inner, slot, perm)] + terms[k + 1:]
    with pytest.raises(tensor.TensorError, match=r"component QuadExt\(.*works over Q"):
        tensor.contraction_sum(dim, dim_out, arity, terms)


@settings(max_examples=60, deadline=None)
@given(drawn_tensors(3, 2, 2), st.integers(2, 5), st.integers(0, 2 ** 32))
def test_first_difference_is_the_first_nonzero_of_the_difference(a, k, pick):
    """The same values over k times the den do not differ; with one
    component changed, two tensors differ first where their difference,
    summed by first_nonzero_sum, is first nonzero."""
    rescaled = PointTensor.from_rows(3, 2, 2, a.den * k, {
        idx: [(i, n * k) for i, n in row] for idx, row in a.rows.items()})
    assert tensor.first_difference(a, rescaled) is None
    rnd = random.Random(pick)
    idx, comp = rnd.choice(sorted(a.entries)), rnd.randrange(2)
    b = PointTensor(3, 2, 2, {**a.entries, idx: [
        x + F(rnd.choice((-1, 1)), rnd.randint(1, 3)) * (i == comp)
        for i, x in enumerate(a.entries[idx])]})
    hit = tensor.first_nonzero_sum(3, 2, 2, [[(1, None, a, None, None), (-1, None, b, None, None)]])
    assert tensor.first_difference(a, b) == hit[0] == idx
    with pytest.raises(tensor.TensorError, match="shape"):
        tensor.first_difference(a, PointTensor.from_function(3, 2, 1, lambda i: [0, 0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(contraction_terms(), st.integers(0, 2 ** 32))
def test_first_nonzero_sum_is_the_first_nonzero_of_the_chains(case, pick):
    """Two sums over one reading of their inputs, both holding the first
    term: the first sum with the next terms up to a drawn point (a third
    of the time with the first term's negative instead, so it vanishes),
    the second with the rest.  The answer is the first index tuple where a
    sum's operation chain is nonzero, and the first such sum there.  Half
    the time one component of the last term's inner tensor is a QuadExt,
    and the call raises TensorError naming it: the kernel works over Q."""
    dim, dim_out, arity, terms = case
    rnd = random.Random(pick)
    if pick % 2:
        sign, outer, inner, slot, perm = terms[-1]
        entries = {idx: list(v) for idx, v in inner.entries.items()}
        value = rnd.choice(list(entries.values()))
        value[rnd.randrange(len(value))] = QuadExt(F(rnd.randint(-3, 3), 2), 1, 2)
        inner = PointTensor(inner.dim_in, inner.dim_out, inner.arity, entries)
        terms = terms[:-1] + [(sign, outer, inner, slot, perm)]
    k = rnd.randrange(len(terms))
    first = [terms[0]] + ([(-terms[0][0], *terms[0][1:])] if pick % 3 == 0 else terms[1:k + 1])
    sums = [first, terms[:1] + terms[k + 1:]]
    if pick % 2 and any(term is terms[-1] for one_sum in sums for term in one_sum):
        with pytest.raises(tensor.TensorError, match=r"component QuadExt\(.*works over Q"):
            tensor.first_nonzero_sum(dim, dim_out, arity, sums)
        return
    chains = [chain_sum(terms) for terms in sums]
    want = next(((idx, n) for idx in itertools.product(range(dim), repeat=arity)
                 for n, t in enumerate(chains) if any(t.entries[idx])), None)
    assert tensor.first_nonzero_sum(dim, dim_out, arity, sums) == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(contraction_terms())
def test_contraction_sum_of_a_term_and_its_negative_is_exactly_zero(case):
    dim, dim_out, arity, terms = case
    sign, outer, inner, slot, perm = terms[0]
    got = tensor.contraction_sum(dim, dim_out, arity, [terms[0], (-sign, outer, inner, slot, perm)])
    assert got.is_zero()
    assert all(x is got.entries[(0,) * arity][0] for v in got.entries.values() for x in v)
    assert_exact_components(got)


def test_contraction_sum_weights_each_term_by_its_own_denominator():
    """Terms over denominators 3, 2 * 5 and 7 sum over their lcm."""
    t = PointTensor.from_function(2, 1, 1, lambda idx: [F(1 + idx[0], 3)])
    phi = PointTensor.from_matrix([[F(1, 2)]])
    s = PointTensor.from_function(2, 1, 1, lambda idx: [F(idx[0], 5)])
    u = PointTensor.from_function(2, 2, 1, lambda idx: [F(1, 7), F(idx[0])])
    got = tensor.contraction_sum(2, 1, 1, [(1, None, t, None, None), (-1, phi, s, None, None),
                                           (1, t, u, 0, None)])
    # u feeds its value (1/7, idx) into t's slot: (1/3) / 7 + (2/3) idx
    assert got.entries == {(0,): (F(1, 3) + F(1, 21),),
                           (1,): (F(2, 3) - F(1, 10) + F(1, 21) + F(2, 3),)}


def test_contraction_sum_rejects_mismatched_terms():
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0]), F(idx[1])])
    j3 = tensor.identity_map(3)
    for arity, term in ((2, (1, j3, t, None, None)), (2, (1, t, j3, 0, None)),
                        (3, (1, None, t, None, None))):
        with pytest.raises(tensor.TensorError, match="shape"):
            tensor.contraction_sum(2, 2, arity, [term])


# ---------------------------------------------------------------------------
# exact components from every public function that returns tensors
# ---------------------------------------------------------------------------

TENSOR_RETURNS = (PointTensor, typing.List[PointTensor])


def _returns_tensors(f) -> bool:
    return typing.get_type_hints(f).get("return") in TENSOR_RETURNS


def tensor_returning_callables():
    """The public functions of tensor and the public methods of PointTensor
    annotated to return a PointTensor or a list of them."""
    names = [name for name, f in inspect.getmembers(tensor, inspect.isfunction)
             if f.__module__ == tensor.__name__ and not name.startswith("_")
             and _returns_tensors(f)]
    for name, f in vars(PointTensor).items():
        f = f.__func__ if isinstance(f, classmethod) else f
        if not name.startswith("_") and inspect.isfunction(f) and _returns_tensors(f):
            names.append("PointTensor." + name)
    return sorted(names)


def _ints(v):
    return [x.numerator for x in v]


# name -> arguments from two arity-2 tensors a, b and a linear map m on R^2;
# the constructors get int values, which they must turn into Fractions
TENSOR_CASES = {
    "PointTensor.add": lambda a, b, m: (a, b),
    "PointTensor.from_function": lambda a, b, m: (2, 2, 2, lambda idx: _ints(a.entries[idx])),
    "PointTensor.from_matrix": lambda a, b, m: ([_ints(row) for row in m.to_matrix()],),
    "PointTensor.from_orbits": lambda a, b, m: (
        2, 2, 2, tensor.alternating_rep, lambda idx: _ints(a.entries[idx])),
    "PointTensor.from_orbit_rows": lambda a, b, m: (
        2, 2, 2, tensor.alternating_rep, a.den, lambda idx: a.rows[idx]),
    "PointTensor.from_rows": lambda a, b, m: (2, 2, 2, a.den, a.rows),
    "PointTensor.neg": lambda a, b, m: (a,),
    "PointTensor.scale": lambda a, b, m: (a, 3),
    "PointTensor.sub": lambda a, b, m: (a, b),
    "PointTensor.swap_slots": lambda a, b, m: (a, 0, 1),
    "combination": lambda a, b, m: ([F(1, 2), -1], [a, b]),
    "commutant_basis": lambda a, b, m: (std_j(1), std_j(1)),
    "contraction_sum": lambda a, b, m: (2, 2, 2, [
        (1, m, a, None, None), (-1, a, m, 1, (1, 0)), (1, None, b, None, None)]),
    "identity_map": lambda a, b, m: (2,),
    "post_compose": lambda a, b, m: (m, a),
    "precompose_all": lambda a, b, m: (a, m),
    "slot_compose": lambda a, b, m: (a, b, 0),
    "solution_basis": lambda a, b, m: (lambda t: tensor.post_compose(m, t), [a, b]),
    "unit_basis": lambda a, b, m: (2, 2, 2, tensor.alternating_rep),
}


def test_every_tensor_function_has_an_exact_components_case():
    """A new public function or method returning tensors gets a case above."""
    assert tensor_returning_callables() == sorted(TENSOR_CASES)


@pytest.mark.parametrize("name", tensor_returning_callables())
@settings(max_examples=20, deadline=None)
@given(drawn_tensors(2, 2, 2), drawn_tensors(2, 2, 2), drawn_tensors(2, 2, 1))
def test_tensor_functions_return_exact_components(name, a, b, m):
    """Every component a Fraction, never an int or a float."""
    owner, _, attr = name.rpartition(".")
    result = getattr(PointTensor if owner else tensor, attr)(*TENSOR_CASES[name](a, b, m))
    for t in result if isinstance(result, list) else [result]:
        assert_exact_components(t)


def test_compositions_reject_shape_mismatches():
    t = PointTensor.from_function(2, 2, 2, lambda idx: [F(idx[0]), F(idx[1])])
    square3 = tensor.identity_map(3)
    into3 = PointTensor.from_matrix([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]])
    for s in (square3, into3, PointTensor.from_function(3, 2, 2, lambda idx: [0, 0])):
        with pytest.raises(tensor.TensorError):
            tensor.slot_compose(t, s, 0)
    for phi in (square3, t, into3):
        with pytest.raises(tensor.TensorError):
            tensor.precompose_all(t, phi)


def test_pair_pattern_detection():
    # s(a,b)*t(c,d) - s(c,d)*t(a,b) with s, t antisymmetric scalars
    def s(a, b):
        return F(a - b)

    def t2(a, b):
        return F(a * a - b * b)

    def fn(idx):
        a, b, c, d = idx
        return [s(a, b) * t2(c, d) - s(c, d) * t2(a, b), F(0)]

    t = PointTensor.from_function(2, 2, 4, fn)
    assert t.has_pair_pattern()
    not_pattern = PointTensor.from_function(2, 2, 4, lambda idx: [F(1), F(0)])
    assert not not_pattern.has_pair_pattern()


def test_solve_affine_particular_and_kernel():
    sol = solve_affine([[F(1), F(1)]], [F(2)])
    assert sol is not None
    part, kernel = sol
    assert part[0] + part[1] == 2
    assert len(kernel) == 1


def test_orbit_tables_kept_never_exceed_the_tuple_bound(monkeypatch):
    """After every call the kept tables hold at most _ORBIT_TUPLES_MAX index
    tuples together; a larger table is returned whole but not kept, and a
    kept one is returned again as it is."""
    monkeypatch.setattr(tensor, "_ORBIT_TABLES", {})
    monkeypatch.setattr(tensor, "_ORBIT_TUPLES_MAX", 100)
    rules = (tensor.symmetric_rep, tensor.alternating_rep, tensor._own_rep)
    calls = [(rep, dim, arity) for dim in (2, 3, 4) for arity in (1, 2, 3, 4) for rep in rules]
    for rep, dim, arity in calls + calls[::-1]:
        table = tensor._orbit_table(rep, dim, arity)
        assert [row[0] for row in table] == list(itertools.product(range(dim), repeat=arity))
        assert all(row[1:] == rep(row[0]) for row in table)
        kept = tensor._ORBIT_TABLES
        assert sum(map(len, kept.values())) <= 100
        assert ((rep, dim, arity) in kept) == (dim ** arity <= 100)
        if dim ** arity <= 100:
            assert tensor._orbit_table(rep, dim, arity) is table


def test_entries_built_from_rows_share_what_the_rows_share():
    """Index tuples holding one row object get one entry tuple, and equal
    numerators one Fraction: a symbol stored as one row per orbit builds
    its entries once per orbit, with the values of unshared rows."""
    row = ((0, 3), (1, -2))
    t = PointTensor.from_rows(2, 2, 2, 6, {(0, 0): row, (0, 1): row,
                                           (1, 0): ((0, 3),), (1, 1): ()})
    assert t.entries[(0, 0)] is t.entries[(0, 1)]
    assert t.entries[(0, 1)] == (Fraction(1, 2), Fraction(-1, 3))
    assert t.entries[(1, 0)] == (Fraction(1, 2), 0) and t.entries[(1, 1)] == (0, 0)
    assert t.entries[(1, 0)][0] is t.entries[(0, 0)][0]
