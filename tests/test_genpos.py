"""General-position certificates, dense tensors, deformations, decomposition."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from nijcalc import genpos, linalg
from nijcalc.genpos import (
    _complex_complement,
    alpha_N,
    annihilator,
    appendix_tensor,
    deformation_search,
    example3_tensor,
    general_position_test,
    plucker_map,
    recover_sign,
    two_structure_decomposition,
)
from nijcalc.structures import (LieAlgebraSpec, StructureError, doubled_block_j,
                                left_invariant_structure,
                                linear_nijenhuis_from_free_data,
                                random_linear_nijenhuis, standard_matrix)
from nijcalc.tensor import PointTensor, kernel_dim, post_compose, precompose_all
from reference import (_symbolic_alpha_vanishes, alpha_N_by_apply, digest,
                       greedy_complement, mat_mul, mat_scale, solve_affine)


def e(dim, a):
    return [Fraction(1) if i == a else Fraction(0) for i in range(dim)]


def test_alternating_builders_keep_their_dense_outputs():
    """The five antisymmetric builders fill by alternating_rep, calling
    their value function once per pair a < b.  The digests, which tell a
    Fraction from an int, are those of the same builders filled densely,
    with the value function called at every pair."""
    sl2 = LieAlgebraSpec(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    got = {
        "appendix_tensor(2)": appendix_tensor(2),
        "appendix_tensor(3)": appendix_tensor(3),
        "example3 A(3)": example3_tensor(3)["A"],
        "example3 N(3)": example3_tensor(3)["N"],
        "plucker": plucker_map(),
        "left sl2": left_invariant_structure(sl2)["nijenhuis_at_identity"],
    }
    assert {name: digest(t) for name, t in got.items()} == {
        "appendix_tensor(2)": "b6056a673ea1aa88", "appendix_tensor(3)": "e2edca6147570d10",
        "example3 A(3)": "8c15393906839902", "example3 N(3)": "cec7c3629a95b3ce",
        "plucker": "01f2db48baf15f7b", "left sl2": "02c9396a704f0c69"}


def test_alpha_certificate_basics():
    """1. zero tensor has zero Gram determinant; 2. the conjugate-minor
    tensor is positive at the first basis vector over the first invariant
    hyperplane; 3. a sample inside the hyperplane is rejected."""
    zero4 = PointTensor.from_function(4, 4, 2, lambda idx: [0] * 4)
    out = alpha_N(zero4, e(4, 0), [e(4, 2), e(4, 3)])
    assert out["gram_det"] == 0 and not out["positive"]

    t = appendix_tensor(2)
    out = alpha_N(t, e(4, 0), [e(4, 2), e(4, 3)])
    assert out["positive"] and out["gram_det"] > 0

    with pytest.raises(ValueError, match="hyperplane"):
        alpha_N(t, e(4, 2), [e(4, 2), e(4, 3)])


@given(st.integers(2, 4), st.booleans(),
       st.lists(st.integers(-2, 2), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_complex_complement_matches_the_greedy_rank_version(n, block, coords):
    dim = 2 * n
    xi = [Fraction(x) for x in coords[:dim]]
    assume(any(xi))
    jm = doubled_block_j(n).to_matrix() if block else standard_matrix(n)
    assert _complex_complement(jm, xi) == greedy_complement(jm, xi)


def test_appendix_tensor_values():
    for n in (2, 3):
        dim = 2 * n
        t = appendix_tensor(n)
        # complex basis pair (1st, 2nd): only the first minor survives
        assert t.apply([e(dim, 0), e(dim, 2)]) == e(dim, 2)
        assert t.apply([e(dim, 2), e(dim, 0)]) == [-x for x in e(dim, 2)]
        # complex-proportional arguments annihilate every minor
        jm = standard_matrix(n)
        z = [Fraction(k + 1) for k in range(dim)]
        lam_z = linalg.vec_add(linalg.vec_scale(z, Fraction(2)),
                               linalg.vec_scale(linalg.mat_vec(jm, z),
                                                Fraction(-3)))
        assert linalg.vec_is_zero(t.apply([z, lam_z]))
        assert kernel_dim(t, e(dim, 0)) == 2
    with pytest.raises(ValueError):
        appendix_tensor(1)


def test_example3_values():
    """Cyclic-difference values and the all-ones transversality display."""
    out = example3_tensor(3)
    a, n_t = out["A"], out["N"]
    assert a.apply([e(3, 0), e(3, 1)]) == e(3, 0)
    xi = [Fraction(2), Fraction(-1), Fraction(5)]
    assert linalg.vec_is_zero(a.apply([xi, xi]))

    ones = [Fraction(1)] * 6
    # pairs (0, xi2) (+) (0, eta2) in the zero-first-coordinate hyperplane:
    # the value vanishes only when both parts vanish
    for x2, y2 in [((1, 0), (0, 0)), ((0, 0), (2, 1)), ((1, 1), (3, -2))]:
        arg = [Fraction(0), Fraction(x2[0]), Fraction(x2[1]),
               Fraction(0), Fraction(y2[0]), Fraction(y2[1])]
        assert not linalg.vec_is_zero(n_t.apply([ones, arg]))
    assert kernel_dim(n_t, ones) == 2
    pi = [e(6, 1), e(6, 2), e(6, 4), e(6, 5)]
    assert alpha_N(n_t, ones, pi)["positive"]


def test_plucker_values_and_grid():
    """Projected minors vanish exactly on dependent pairs, exhaustively
    over the integer grid with entries in [-2, 2]."""
    t = plucker_map()
    assert t.apply([e(4, 0), e(4, 1)]) == [Fraction(1), Fraction(0),
                                           Fraction(0), Fraction(0)]
    xi = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]
    assert linalg.vec_is_zero(t.apply([xi, linalg.vec_scale(xi, 2)]))

    def mu_int(u, v):
        th = {}
        for r in range(4):
            for s in range(r + 1, 4):
                th[(r, s)] = u[r] * v[s] - u[s] * v[r]
        return (th[(0, 1)] - th[(2, 3)], th[(0, 2)] + th[(1, 3)],
                th[(0, 3)], th[(1, 2)]), th

    grid = list(product(range(-2, 3), repeat=4))
    for i, u in enumerate(grid):
        for v in grid[i:]:
            mu, th = mu_int(u, v)
            assert (mu == (0, 0, 0, 0)) == all(x == 0 for x in th.values())

    rng = random.Random(3)
    for _ in range(50):
        u = [rng.randint(-2, 2) for _ in range(4)]
        v = [rng.randint(-2, 2) for _ in range(4)]
        mu, _ = mu_int(u, v)
        assert t.apply([[Fraction(x) for x in u],
                        [Fraction(x) for x in v]]) == [Fraction(m) for m in mu]


def test_general_position_verdicts():
    zero4 = PointTensor.from_function(4, 4, 2, lambda idx: [0] * 4)
    rep = general_position_test(zero4, 10, seed=1)
    assert rep.verdict == "degenerate" and rep.witness is None

    for n in (2, 3):
        rep = general_position_test(appendix_tensor(n), 25, seed=0)
        assert rep.verdict == "general_position"
        assert rep.witness is not None
        assert kernel_dim(appendix_tensor(n), rep.witness) == 2
        assert rep.alpha_certificate > 0

    # deterministic by seed, monotone in sample count
    t = appendix_tensor(2)
    first = general_position_test(t, 25, seed=7)
    assert first == general_position_test(t, 25, seed=7)
    small = general_position_test(t, first.samples_tested, seed=7)
    assert small.verdict == "general_position"
    assert small.witness == first.witness


def block_sum():
    """appendix_tensor(2) on each half of R^8: every kernel is at least
    four-dimensional."""
    n2 = appendix_tensor(2)

    def block(idx):
        a, b = idx
        out = [Fraction(0)] * 8
        if a < 4 and b < 4:
            out[:4] = n2.apply([e(4, a), e(4, b)])
        elif a >= 4 and b >= 4:
            out[4:] = n2.apply([e(4, a - 4), e(4, b - 4)])
        return out

    return PointTensor.from_function(8, 8, 2, block)


def test_general_position_block_sum():
    """Direct sum of two general-position summands: every sampled kernel
    is at least four-dimensional, so the verdict is degenerate."""
    nb = block_sum()
    assert kernel_dim(nb, [Fraction(1)] * 8) == 4
    rep = general_position_test(nb, 12, seed=2)
    assert rep.verdict == "degenerate"
    assert rep.samples_tested == 12
    for xi in rep.degeneracy_witnesses:
        assert kernel_dim(nb, xi) >= 4


GRID_CASES = {
    "random_linear_nijenhuis(4, 0)": (lambda: random_linear_nijenhuis(4, 0), "general_position"),
    "appendix_tensor(2)": (lambda: appendix_tensor(2), "general_position"),
    # N(e_0, .) has rank 2 only, so the witness lies off e_0
    "planes (0, 1) and (1, 2) in dimension 6": (lambda: linear_nijenhuis_from_free_data(
        3, {(0, 1): e(6, 0), (1, 2): e(6, 2)}), "general_position"),
    "block sum in dimension 8": (block_sum, "degenerate"),
    "single pair in dimension 10": (lambda: linear_nijenhuis_from_free_data(
        5, {(1, 3): [Fraction(x) for x in (1, 2, -1, 3, 1, 0, 2, 1, -2, 1)]}), "degenerate"),
}


@pytest.mark.parametrize("tensor, verdict", GRID_CASES.values(), ids=GRID_CASES)
def test_grid_decides_without_samples(tensor, verdict):
    """With no samples the grid alone decides, exactly: a general-position
    tensor gets a witness with a 2-dimensional kernel and a positive
    certificate, a degenerate one the degenerate verdict."""
    t = tensor()
    rep = general_position_test(t, 0, seed=0)
    assert rep.verdict == verdict and rep.samples_tested == 0
    assert rep.degeneracy_witnesses == []
    if verdict == "general_position":
        assert kernel_dim(t, rep.witness) == 2
        jm = standard_matrix(t.dim_in // 2)
        assert rep.alpha_certificate == alpha_N(
            t, rep.witness, _complex_complement(jm, rep.witness))["gram_det"] > 0
    else:
        assert rep.witness is None and rep.alpha_certificate is None


@st.composite
def antilinear_pairs(draw):
    """(N, j) in dimension 4 or 6: N dense (random_linear_nijenhuis) or on
    1-3 pairs of complex planes, j standard or conjugated by P = L D U,
    with N pushed forward by P."""
    n = draw(st.sampled_from((2, 3)))
    dim = 2 * n
    if draw(st.booleans()):
        t = random_linear_nijenhuis(n, draw(st.integers(0, 10 ** 6)))
    else:
        planes = [(s, u) for s in range(n) for u in range(s + 1, n)]
        chosen = draw(st.lists(st.sampled_from(planes), min_size=1, max_size=3, unique=True))
        coeffs = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        t = linear_nijenhuis_from_free_data(
            n, {pair: [Fraction(c) for c in draw(coeffs)] for pair in chosen})
    jm = standard_matrix(n)
    if draw(st.booleans()):
        unit = st.integers(-1, 1)
        low = [[Fraction(int(i == k)) if i <= k else Fraction(draw(unit)) for k in range(dim)]
               for i in range(dim)]
        up = [row[::-1] for row in low[::-1]]
        diag = [[Fraction(draw(st.sampled_from((1, -1, 2, 3)))) if i == k else Fraction(0)
                 for k in range(dim)] for i in range(dim)]
        p = mat_mul(mat_mul(low, diag), up)
        p_inv = linalg.inverse(p)
        jm = mat_mul(mat_mul(p, jm), p_inv)
        t = post_compose(PointTensor.from_matrix(p),
                         precompose_all(t, PointTensor.from_matrix(p_inv)))
    return t, jm


@given(antilinear_pairs())
@settings(max_examples=30, deadline=None)
def test_grid_verdict_matches_the_symbolic_gram_determinant(pair):
    t, jm = pair
    rep = general_position_test(t, 0, seed=0, j=PointTensor.from_matrix(jm))
    assert (rep.verdict == "degenerate") == _symbolic_alpha_vanishes(t, jm)
    if rep.verdict == "general_position":
        assert kernel_dim(t, rep.witness) == 2 and rep.alpha_certificate > 0


@given(antilinear_pairs(), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_alpha_N_matches_the_gram_determinant_of_fraction_applies(pair, coords):
    t, jm = pair
    xi = [Fraction(x) for x in coords[:t.dim_in]]
    assume(any(xi))
    basis = _complex_complement(jm, xi)
    out = alpha_N(t, xi, basis)
    assert out["gram_det"] == alpha_N_by_apply(t, xi, basis)
    assert isinstance(out["gram_det"], Fraction)
    assert out["positive"] == (kernel_dim(t, xi) == 2)


@pytest.mark.parametrize("j, message", [
    (PointTensor.from_matrix([[0] * 4 for _ in range(4)]), r"j\^2 != -I"),
    (PointTensor.from_matrix(standard_matrix(3)),
     r"tensor's R\^4, not an arity-1 map of R\^6 to R\^6"),
    (PointTensor.from_matrix([[0, 1, 0, 0], [1, 0, 0, 0]]), r"R\^4 to R\^2"),
])
def test_general_position_refuses_a_bad_structure(j, message):
    with pytest.raises(StructureError, match=message):
        general_position_test(appendix_tensor(2), 5, seed=0, j=j)


@pytest.mark.parametrize("call, length", [
    (lambda t: annihilator(t, [[1, 0]]), 2),
    (lambda t: annihilator(t, [e(4, 1), [0, 0, 1, 0, 0]]), 5),
    (lambda t: alpha_N(t, [1, 0, 0], [e(4, 2), e(4, 3)]), 3),
    (lambda t: alpha_N(t, e(4, 0), [e(4, 2), [0, 0, 0]]), 3),
    (lambda t: alpha_N(t, e(4, 0), [[0, 0, 1, 0, 0]]), 5),
])
def test_vectors_of_another_length_are_refused(call, length):
    with pytest.raises(ValueError, match=rf"vector of length {length} for a tensor on R\^4"):
        call(appendix_tensor(2))


def test_deformation_search():
    """1. a tensor already in general position keeps epsilon = 1; 2. the
    zero tensor deforms at the first candidate below 1; 3. a degenerate
    tensor with only one plane pair populated deforms at epsilon = 1/2."""
    found = deformation_search(appendix_tensor(2), seed=0)
    assert found["epsilon"] == 1
    assert found["tensor"] == appendix_tensor(2)

    found = deformation_search(PointTensor.from_function(4, 4, 2, lambda idx: [0] * 4), seed=0)
    assert found["epsilon"] == Fraction(1, 2)
    assert found["tensor"] == appendix_tensor(2).scale(Fraction(1, 2))

    c12 = [Fraction(x) for x in (0, 0, 1, 0, 0, 0)]
    lopsided = linear_nijenhuis_from_free_data(3, {(0, 1): c12})
    assert general_position_test(lopsided, 8, seed=0).verdict == "degenerate"
    found = deformation_search(lopsided, seed=0)
    assert found["epsilon"] == Fraction(1, 2)
    assert found["report"].verdict == "general_position"


def pair_tensor(dim, pairs):
    def fn(idx):
        a, b = idx
        if (a, b) in pairs:
            return list(pairs[(a, b)])
        if (b, a) in pairs:
            return [-x for x in pairs[(b, a)]]
        return [Fraction(0)] * dim

    return PointTensor.from_function(dim, dim, 2, fn)


def dim8_pair():
    """Dimension-8 fixture: two structures agreeing off the third plane
    (the second shears it into the fourth) and a tensor antiinvariant for
    both, pairing the first three planes pairwise."""
    j1 = PointTensor.from_matrix(standard_matrix(4))
    m2 = [row[:] for row in standard_matrix(4)]
    # second structure: j2 e4 = e5 + e6, j2 e5 = -e4 - e7
    m2[6][4] += Fraction(1)
    m2[7][5] -= Fraction(1)
    j2 = PointTensor.from_matrix(m2)

    n_t = pair_tensor(8, {
        (0, 2): e(8, 0), (0, 3): [-x for x in e(8, 1)],
        (1, 2): [-x for x in e(8, 1)], (1, 3): [-x for x in e(8, 0)],
        (0, 4): [-x for x in e(8, 0)], (0, 5): e(8, 1),
        (1, 4): e(8, 1), (1, 5): e(8, 0),
        (2, 4): e(8, 2), (2, 5): [-x for x in e(8, 3)],
        (3, 4): [-x for x in e(8, 3)], (3, 5): [-x for x in e(8, 2)],
    })
    return j1, j2, n_t


def test_two_structure_decomposition_trivial_cases():
    t = appendix_tensor(2)
    j0 = PointTensor.from_matrix(standard_matrix(2))
    full = annihilator(t, linalg.identity(4))
    dec = two_structure_decomposition(t, j0, j0)
    assert dec.pi_minus == []
    assert linalg.span_dim(dec.pi_plus) == 4
    assert dec.full_kernel == full

    dec = two_structure_decomposition(t, j0, j0.neg())
    assert dec.pi_plus == []
    assert linalg.span_dim(dec.pi_minus) == 4
    assert dec.full_kernel == full


def test_two_structure_decomposition_dim8():
    j1, j2, n_t = dim8_pair()
    sq = mat_mul(j2.to_matrix(), j2.to_matrix())
    assert sq == mat_scale(linalg.identity(8), Fraction(-1))

    dec = two_structure_decomposition(n_t, j1, j2)
    assert dec.pi_minus == []
    agree = [e(8, i) for i in (0, 1, 2, 3, 6, 7)]
    assert linalg.spans_equal(dec.pi_plus, agree)
    assert linalg.span_dim(dec.k_plus) == 8
    last_plane = [e(8, 6), e(8, 7)]
    assert linalg.spans_equal(dec.k_minus, last_plane)
    assert linalg.spans_equal(dec.kernel, last_plane)
    # the shear image sits inside every kernel the fixture can have:
    # N(d x, y) = -d N(x, y) for d = j2 - j1 and the same relation through
    # j1 conjugation force N(d x, y) = 0, so the kernel is never trivial
    assert linalg.spans_equal(dec.full_kernel, last_plane)
    # Pi is a proper subspace here, so the full kernel is computed apart;
    # with j2 = +-j1 it is Ker N(., Pi), the same list of vectors
    full = annihilator(n_t, linalg.identity(8))
    assert linalg.span_dim(dec.pi_plus + dec.pi_minus) == 6
    assert dec.full_kernel == full
    for j in (j1, j1.neg()):
        assert two_structure_decomposition(n_t, j1, j).full_kernel == full
    # keeping only the pairing of the first plane with the sheared third,
    # the first plane annihilates Pi but not the whole space
    n_13 = pair_tensor(8, {idx: n_t.entries[idx]
                           for idx in product((0, 1), (4, 5))})
    dec = two_structure_decomposition(n_13, j1, j2)
    assert linalg.spans_equal(dec.kernel, [e(8, i) for i in (0, 1, 2, 3, 6, 7)])
    assert linalg.spans_equal(dec.full_kernel, [e(8, i) for i in (2, 3, 6, 7)])


def test_decomposition_rejects_cross_plane_shear_pairing():
    """A structure shearing the third plane into the first cannot share a
    tensor that pairs the first plane nontrivially: the shear image lands
    in the kernel, so antiinvariance for both structures must fail."""
    m2 = [row[:] for row in standard_matrix(4)]
    m2[0][4] += Fraction(1)
    m2[1][5] -= Fraction(1)
    j1 = PointTensor.from_matrix(standard_matrix(4))
    j2 = PointTensor.from_matrix(m2)
    sq = mat_mul(m2, m2)
    assert sq == mat_scale(linalg.identity(8), Fraction(-1))

    n_t = pair_tensor(8, {
        (0, 2): e(8, 0), (0, 3): [-x for x in e(8, 1)],
        (1, 2): [-x for x in e(8, 1)], (1, 3): [-x for x in e(8, 0)],
        (4, 6): e(8, 0), (4, 7): [-x for x in e(8, 1)],
        (5, 6): [-x for x in e(8, 1)], (5, 7): [-x for x in e(8, 0)],
    })
    assert two_structure_decomposition(n_t, j1, j1) is not None
    with pytest.raises(StructureError, match="second structure"):
        two_structure_decomposition(n_t, j1, j2)


def test_recover_sign():
    t = appendix_tensor(2)
    j0 = PointTensor.from_matrix(standard_matrix(2))
    assert recover_sign(t, j0, j0) == 1
    assert recover_sign(t, j0, j0.neg()) == -1

    # a degenerate tensor admits genuinely different structures
    j1, j2, n8 = dim8_pair()
    with pytest.raises(StructureError, match="general position"):
        recover_sign(n8, j1, j2)


def test_antilinearity_is_checked_once_for_a_sign_pair(monkeypatch):
    """For j2 = +-j1 the second antilinearity check repeats the first, so
    it is skipped; structures that differ by more than a sign get both."""
    t = appendix_tensor(2)
    j0 = PointTensor.from_matrix(standard_matrix(2))
    j1, j2, n8 = dim8_pair()
    calls = []
    check = genpos.linear_membership_violation
    monkeypatch.setattr(genpos, "linear_membership_violation",
                        lambda n_t, j: calls.append(j) or check(n_t, j))
    for sign_pair in (j0, j0.neg()):
        two_structure_decomposition(t, j0, sign_pair)
        recover_sign(t, j0, sign_pair)
    assert calls == [j0] * 4
    calls.clear()
    two_structure_decomposition(n8, j1, j2)
    assert calls == [j1, j2]


def test_recovered_structure_set_is_sign_pair():
    """All linear maps antiinvariance-compatible with the conjugate-minor
    tensor form a line through the standard structure; the squared
    condition then leaves exactly the two signs."""
    t = appendix_tensor(2)
    rows, rhs = [], []
    for a in range(4):
        for b in range(4):
            base = t.apply([e(4, a), e(4, b)])
            for comp in range(4):
                row = [Fraction(0)] * 16
                for c in range(4):
                    row[c * 4 + a] += t.apply([e(4, c), e(4, b)])[comp]
                    row[comp * 4 + c] += base[c]
                rows.append(row)
                rhs.append(Fraction(0))
                row2 = [Fraction(0)] * 16
                for c in range(4):
                    row2[c * 4 + b] += t.apply([e(4, a), e(4, c)])[comp]
                    row2[comp * 4 + c] += base[c]
                rows.append(row2)
                rhs.append(Fraction(0))
    particular, kern = solve_affine(rows, rhs)
    assert linalg.vec_is_zero(particular)
    assert len(kern) == 1
    j0 = standard_matrix(2)
    flat = [j0[i][k] for i in range(4) for k in range(4)]
    assert linalg.spans_equal(kern, [flat])
    # scaling c * j0 squares to -c^2 I, so only c = 1 and c = -1 survive
