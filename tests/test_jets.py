"""Residual assembly, defect conditions, symmetrization, order-by-order lifting."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import jets, linalg, poly
from nijcalc.invariants import (
    InternalInconsistencyError,
    higher_nijenhuis,
    nijenhuis_tensor,
)
from nijcalc.jets import (
    DefectConditionError,
    JetSymbol,
    TruncatedMap,
    build_P_k,
    cr_residual,
    defect_conditions,
    lift,
    lift_tower,
    obstruction_2,
    obstruction_3,
    set_partitions,
    solve_symbol,
    symmetric_symbol_basis,
    symmetrize,
    truncate,
    zeta,
    zeta_matrix,
)
from nijcalc.structures import (
    StructureError,
    StructureField,
    example_structure,
    random_structure,
    standard_matrix,
    standard_structure,
)
from nijcalc.tensor import (
    PointTensor,
    combination,
    commutant_basis,
    flatten,
    identity_map,
    post_compose,
    slot_compose,
    solution_basis,
    symmetric_rep,
)
from reference import (cr_polynomial_by_fractions, differential, digest, mat_mul,
                       slot_entry, structure_as_field, symmetrize_by_polynomials)

HALF = Fraction(1, 2)
ZERO4 = tuple(Fraction(0) for _ in range(4))


def e(dim, k):
    return [Fraction(1) if i == k else Fraction(0) for i in range(dim)]


def rand_symmetric(dim_in, dim_out, k, rng):
    vals = {}
    for rep in itertools.combinations_with_replacement(range(dim_in), k):
        vals[rep] = [Fraction(rng.randint(-3, 3)) for _ in range(dim_out)]
    return PointTensor.from_function(
        dim_in, dim_out, k, lambda idx: list(vals[tuple(sorted(idx))]))


def rand_point_structure(n, rng):
    # conjugate the block structure by a random invertible rational matrix
    dim = 2 * n
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if linalg.det(a) != 0:
            break
    return PointTensor.from_matrix(mat_mul(
        mat_mul(a, standard_matrix(n)), linalg.inverse(a)))


def commutant_element(jl_at, jm_at, rng):
    basis = commutant_basis(jl_at, jm_at)
    out = basis[0].scale(0)
    for b in basis:
        out = out.add(b.scale(Fraction(rng.randint(-3, 3))))
    return out


def killing_symbol():
    # annihilates span{e0, e1}, the image of the torsion of ex2 at 0
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    mat[0][2] = Fraction(1)
    mat[1][3] = Fraction(1)
    return PointTensor.from_matrix(mat)


# -- test-local oracles -------------------------------------------------------

def hand_defect_order3(u, j_l, j_m):
    """The seven-term order-3 defect, written out term by term."""
    x, y = list(u.x), list(u.y)
    djl = differential(structure_as_field(j_l), 1, x)
    d2jl = differential(structure_as_field(j_l), 2, x)
    djm = differential(structure_as_field(j_m), 1, y)
    d2jm = differential(structure_as_field(j_m), 2, y)
    f1 = u.symbol(1).tensor
    f2 = u.symbol(2).tensor
    n, m = u.dim_in, u.dim_out

    def fn(idx):
        xi, eta, th = e(n, idx[0]), e(n, idx[1]), e(n, idx[2])
        fxi, feta, fth = f1.apply([xi]), f1.apply([eta]), f1.apply([th])
        t = f1.apply([d2jl.apply([xi, eta, th])])
        t = [a - b for a, b in zip(t, d2jm.apply([fxi, feta, fth]))]
        t = [a + b for a, b in zip(t, f2.apply([djl.apply([xi, th]), eta]))]
        t = [a + b for a, b in zip(t, f2.apply([djl.apply([xi, eta]), th]))]
        t = [a - b for a, b in zip(t, djm.apply([f2.apply([xi, th]), feta]))]
        t = [a - b for a, b in zip(t, djm.apply([fxi, f2.apply([eta, th])]))]
        t = [a - b for a, b in zip(t, djm.apply([f2.apply([xi, eta]), fth]))]
        return t

    return PointTensor.from_function(n, m, 3, fn)


def perm3(t, sigma):
    return PointTensor.from_function(
        t.dim_in, t.dim_out, 3,
        lambda idx: list(t.entries[tuple(idx[s] for s in sigma)]))


def display_order3_symbol(p3, jl0, jm0):
    """The explicit seven-component completion for k = 3."""
    b = post_compose(jm0, p3).scale(-HALF)

    def lin(t, s):
        return t.sub(post_compose(jm0, slot_compose(t, jl0, s))).scale(HALF)

    def anti(t, s):
        return t.add(post_compose(jm0, slot_compose(t, jl0, s))).scale(HALF)

    b100 = lin(lin(b, 1), 2)
    b110 = lin(anti(b, 1), 2)
    b111 = anti(anti(b, 1), 2)
    out = b100.add(perm3(b100, (1, 2, 0))).add(perm3(b100, (2, 0, 1)))
    out = out.add(b110).add(perm3(b110, (0, 2, 1))).add(perm3(b110, (1, 2, 0)))
    return out.add(b111)


# -- data types ----------------------------------------------------------------

def test_set_partitions_counts_and_order():
    assert [len(list(set_partitions(k))) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    assert list(set_partitions(3)) == [
        [(0, 1, 2)],
        [(0, 1), (2,)],
        [(0, 2), (1,)],
        [(0,), (1, 2)],
        [(0,), (1,), (2,)],
    ]
    for blocks in set_partitions(4):
        mins = [b[0] for b in blocks]
        assert mins == sorted(mins)
        assert all(list(b) == sorted(b) for b in blocks)


def test_jet_symbol_rejects_bad_tensors():
    rng = random.Random(0)
    asym = rand_symmetric(4, 4, 2, rng)
    entries = {idx: list(v) for idx, v in asym.entries.items()}
    entries[(0, 1)] = [Fraction(5)] * 4  # break symmetry
    with pytest.raises(StructureError, match="fully symmetric"):
        JetSymbol(2, PointTensor(4, 4, 2, entries))
    with pytest.raises(StructureError, match="arity"):
        JetSymbol(2, identity_map(4))


def test_truncated_map_validation():
    rng = random.Random(1)
    f1 = JetSymbol(1, rand_symmetric(4, 4, 1, rng))
    f2 = JetSymbol(2, rand_symmetric(4, 4, 2, rng))
    u = TruncatedMap(ZERO4, ZERO4, (f1, f2))
    assert u.order == 2 and u.dim_in == 4 and u.dim_out == 4
    assert truncate(u, 1).symbols == (f1,)
    with pytest.raises(StructureError, match="consecutive"):
        TruncatedMap(ZERO4, ZERO4, (f1, JetSymbol(3, rand_symmetric(4, 4, 3, rng))))
    with pytest.raises(StructureError, match="base point"):
        TruncatedMap((0, 0), ZERO4, (f1,))
    with pytest.raises(StructureError, match="truncate"):
        truncate(u, 3)


# -- residual ------------------------------------------------------------------

def test_cr_residual_order1_is_pointwise_commutator():
    rng = random.Random(2)
    j_l = example_structure("ex2")
    j_m = random_structure(2, seed=5)
    x = [Fraction(1), Fraction(-1), Fraction(0), Fraction(2)]
    y = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    phi = PointTensor.from_matrix(
        [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
    u = TruncatedMap(tuple(x), tuple(y), (JetSymbol(1, phi),))
    expected = post_compose(j_m.at_point(y), phi).sub(
        post_compose(phi, j_l.at_point(x)))
    assert cr_residual(u, j_l, j_m) == expected


def test_cr_residual_of_a_zero_target_field():
    """A zero matrix field has entry degree -1: its jet is taken to order
    0, not refused as a negative order, and the order-1 residual is
    -Phi j_L(x)."""
    j_l, j_m = example_structure("ex2"), StructureField([[poly.zero()] * 4] * 4)
    x = (Fraction(1), Fraction(-1), Fraction(0), Fraction(2))
    phi = PointTensor.from_matrix([[Fraction(r - c) for c in range(4)] for r in range(4)])
    u = TruncatedMap(x, (0, 1, 1, 0), (JetSymbol(1, phi),))
    assert cr_residual(u, j_l, j_m) == post_compose(phi, j_l.at_point(x)).neg()


def test_cr_residual_identity_between_identical_structures():
    j = example_structure("ex2")
    pt = tuple(Fraction(c) for c in (1, 2, -1, 3))
    syms = [JetSymbol(1, identity_map(4))]
    for k in (2, 3):
        syms.append(JetSymbol(k, PointTensor.from_function(
            4, 4, k, lambda idx: [Fraction(0)] * 4)))
    for order in (1, 2, 3):
        u = TruncatedMap(pt, pt, tuple(syms[:order]))
        assert cr_residual(u, j, j).is_zero()


def test_cr_residual_order3_matches_hand_formula():
    """Ten seeded maps: residual == zeta(Phi3) - the seven-term defect."""
    for seed in range(10):
        rng = random.Random(1000 + seed)
        j_l = random_structure(2, seed=300 + seed)
        j_m = random_structure(2, seed=400 + seed)
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        u = TruncatedMap(x, y, (
            JetSymbol(1, rand_symmetric(4, 4, 1, rng)),
            JetSymbol(2, rand_symmetric(4, 4, 2, rng)),
            JetSymbol(3, rand_symmetric(4, 4, 3, rng))))
        z3 = zeta(u.symbol(3).tensor, j_l.at_point(list(x)), j_m.at_point(list(y)))
        assert cr_residual(u, j_l, j_m) == z3.sub(hand_defect_order3(u, j_l, j_m))


# -- defect tensor ---------------------------------------------------------------

def test_build_P2_matches_direct_formula():
    """Order-2 defect on ex2 -> standard against the two-term formula."""
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    djl = differential(structure_as_field(j_l), 1, list(ZERO4))
    djm = differential(structure_as_field(j_m), 1, list(ZERO4))
    for phi in (killing_symbol(), identity_map(4)):
        u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, phi),))
        p2 = build_P_k(u, j_l, j_m, verify=False)
        direct = PointTensor.from_function(4, 4, 2, lambda idx: [
            a - b for a, b in zip(
                phi.apply([djl.apply([e(4, idx[0]), e(4, idx[1])])]),
                djm.apply([phi.apply([e(4, idx[0])]), phi.apply([e(4, idx[1])])]))])
        assert p2 == direct
        # the target structure is constant, so only the source term survives
        assert p2 == PointTensor.from_function(4, 4, 2, lambda idx: phi.apply(
            [djl.apply([e(4, idx[0]), e(4, idx[1])])]))
    # the annihilating symbol kills the whole image of djL, the identity keeps it
    u_kill = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    assert build_P_k(u_kill, j_l, j_m).is_zero()
    u_id = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, identity_map(4)),))
    assert not build_P_k(u_id, j_l, j_m, verify=False).is_zero()


def test_build_P_k_requires_lower_orders():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    bad = PointTensor.from_matrix([[Fraction(1) if i == j else Fraction(0)
                                    for j in range(4)] for i in range(4)])
    # identity does not intertwine ex2 with the standard structure away from 0
    x = tuple(Fraction(c) for c in (0, 1, 0, 0))
    u = TruncatedMap(x, ZERO4, (JetSymbol(1, bad),))
    with pytest.raises(StructureError, match="order 1"):
        build_P_k(u, j_l, j_m)


def test_identity_map_defect_is_zero():
    j = example_structure("ex2")
    pt = tuple(Fraction(c) for c in (0, 1, 1, -1))
    u = TruncatedMap(pt, pt, (JetSymbol(1, identity_map(4)),))
    assert build_P_k(u, j, j).is_zero()


def test_swap_conjugation_defect_equals_pushed_obstruction():
    """The order-2 swap defect is exactly j_M composed with the obstruction
    residual, on both a vanishing and a non-vanishing instance."""
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    jm0 = j_m.at_point(list(ZERO4))
    for phi in (killing_symbol(), identity_map(4)):
        u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, phi),))
        p2 = build_P_k(u, j_l, j_m, verify=False)
        defect = defect_conditions(p2, j_l.at_point(list(ZERO4)), jm0)
        res = obstruction_2(phi, j_l, j_m, ZERO4, ZERO4).residual
        assert defect["swap_conjugation"] == post_compose(jm0, res)
        assert defect["antilinearity"].is_zero()


def test_order2_solvability_equivalence():
    """Obstruction vanishing, linear solvability of the order-2 equation,
    and lifting success agree in both directions."""
    rng = random.Random(7)
    cases = []
    cases.append((example_structure("ex2"), standard_structure(2),
                  ZERO4, ZERO4, killing_symbol()))
    cases.append((example_structure("ex2"), standard_structure(2),
                  ZERO4, ZERO4, identity_map(4)))
    jl = random_structure(2, seed=11)
    jm = random_structure(2, seed=23)
    x = tuple(Fraction(c) for c in (1, 0, 1, -1))
    y = tuple(Fraction(c) for c in (0, 1, 0, 2))
    cases.append((jl, jm, x, y,
                  commutant_element(jl.at_point(list(x)), jm.at_point(list(y)), rng)))
    cases.append((standard_structure(2), standard_structure(2), ZERO4, ZERO4,
                  commutant_element(standard_structure(2).at_point(list(ZERO4)),
                                    standard_structure(2).at_point(list(ZERO4)), rng)))
    seen = set()
    for j_l, j_m, x, y, phi in cases:
        u = TruncatedMap(x, y, (JetSymbol(1, phi),))
        vanishes = obstruction_2(phi, j_l, j_m, x, y).vanishes
        p2 = build_P_k(u, j_l, j_m, verify=False)
        solvable = solve_symbol(p2, j_l.at_point(list(x)), j_m.at_point(list(y)))
        step = lift(u, j_l, j_m)
        assert (solvable is not None) == vanishes
        assert step.ok == vanishes
        if solvable is not None:
            assert zeta(solvable, j_l.at_point(list(x)),
                        j_m.at_point(list(y))) == p2
        seen.add(vanishes)
    assert seen == {True, False}


# -- symmetrization ---------------------------------------------------------------

def test_symmetrize_matches_display_formula():
    """Module output equals the explicit seven-component completion."""
    rng = random.Random(5)
    for _ in range(5):
        jl0 = rand_point_structure(2, rng)
        jm0 = rand_point_structure(2, rng)
        p3 = zeta(rand_symmetric(4, 4, 3, rng), jl0, jm0)
        built = symmetrize(p3, jl0, jm0)
        disp = display_order3_symbol(p3, jl0, jm0)
        assert built.tensor == disp
        assert disp.respects(symmetric_rep)
        assert zeta(disp, jl0, jm0) == p3


def test_symmetrize_round_trip_orders_2_3_4():
    rng = random.Random(9)
    for k in (2, 3, 4):
        jl0 = rand_point_structure(2, rng)
        jm0 = rand_point_structure(1, rng)
        p_k = zeta(rand_symmetric(4, 2, k, rng), jl0, jm0)
        sym = symmetrize(p_k, jl0, jm0)
        assert sym.k == k
        assert sym.tensor.respects(symmetric_rep)
        assert zeta(sym.tensor, jl0, jm0) == p_k


def holomorphic_part(t, jl0, jm0):
    """The type-(k, 0) part of a symmetric symbol: the projection onto the
    maps that are complex linear in every slot, one slot at a time."""
    for s in range(t.arity):
        t = t.sub(post_compose(jm0, slot_compose(t, jl0, s))).scale(HALF)
    return t


@pytest.mark.parametrize("k", [2, 3])
def test_symmetrize_is_the_solution_without_holomorphic_part(k):
    """ker zeta on symmetric symbols is the type-(k, 0) part, and the
    canonical symbol is the solution with none: the symbol of zeta(phi) is
    phi minus its (k, 0) part, whatever is added from ker zeta."""
    rng = random.Random(40 + k)
    jl0 = rand_point_structure(2, rng)
    jm0 = rand_point_structure(1, rng)
    kernel = solution_basis(lambda b: zeta(b, jl0, jm0),
                            symmetric_symbol_basis(4, 2, k))
    assert kernel
    psi = combination([Fraction(rng.randint(-3, 3)) for _ in kernel], kernel)
    assert not psi.is_zero()
    assert holomorphic_part(psi, jl0, jm0) == psi
    assert symmetrize(zeta(psi, jl0, jm0), jl0, jm0).tensor.is_zero()
    phi = rand_symmetric(4, 2, k, rng)
    built = symmetrize(zeta(phi, jl0, jm0), jl0, jm0).tensor
    assert symmetrize(zeta(phi.add(psi), jl0, jm0), jl0, jm0).tensor == built
    assert built == phi.sub(holomorphic_part(phi, jl0, jm0))
    assert holomorphic_part(built, jl0, jm0).is_zero()


@pytest.mark.parametrize("n, k", [(2, 5), (3, 4)])
def test_symmetrize_round_trip_dense(n, k):
    """zeta of the symbol is P_k over every index tuple, at order 5 in 4D
    and order 4 in 6D."""
    rng = random.Random(10 * n + k)
    jl0 = rand_point_structure(n, rng)
    jm0 = rand_point_structure(n, rng)
    p_k = zeta(rand_symmetric(2 * n, 2 * n, k, rng), jl0, jm0)
    sym = symmetrize(p_k, jl0, jm0)
    assert sym.k == k
    assert zeta(sym.tensor, jl0, jm0) == p_k


def test_symmetrize_zero_defect_gives_zero_symbol():
    jl0 = standard_structure(2).at_point(list(ZERO4))
    zero = PointTensor.from_function(4, 4, 3, lambda idx: [Fraction(0)] * 4)
    assert symmetrize(zero, jl0, jl0).tensor.is_zero()


def test_symmetrize_rejects_inadmissible_defect():
    rng = random.Random(13)
    jl0 = rand_point_structure(2, rng)
    jm0 = rand_point_structure(2, rng)
    bad = PointTensor.from_function(
        4, 4, 2, lambda idx: [Fraction(rng.randint(1, 3)) for _ in range(4)])
    with pytest.raises(DefectConditionError) as exc:
        symmetrize(bad, jl0, jm0)
    assert exc.value.condition in {"antilinearity", "swap_conjugation",
                                   "trailing_symmetry"}
    assert not exc.value.defect.is_zero()


def test_symbol_complex_exactness_dimensions():
    """rank zeta equals the dimension of the condition space: every defect
    passing the three conditions is hit by a symmetric symbol."""
    rng = random.Random(3)

    def full_basis(dim_in, dim_out, k):
        out = []
        for idx in itertools.product(range(dim_in), repeat=k):
            for i in range(dim_out):
                entries = {jdx: [Fraction(1) if jdx == idx and r == i else Fraction(0)
                                 for r in range(dim_out)]
                           for jdx in itertools.product(range(dim_in), repeat=k)}
                out.append(PointTensor(dim_in, dim_out, k, entries))
        return out

    expected = {2: (6, 4, 2, 4), 3: (8, 6, 2, 6)}
    for k in (2, 3):
        jl0 = rand_point_structure(1, rng)
        jm0 = rand_point_structure(1, rng)
        zmat = zeta_matrix(jl0, jm0, k)
        dom = len(zmat[0])
        r = linalg.rank(zmat)
        cols = []
        for b in full_basis(2, 2, k):
            stacked = []
            for name in sorted(defect_conditions(b, jl0, jm0)):
                stacked.extend(flatten(defect_conditions(b, jl0, jm0)[name]))
            cols.append(stacked)
        cond_mat = [[cols[j][i] for j in range(len(cols))]
                    for i in range(len(cols[0]))]
        cond_dim = len(linalg.nullspace(cond_mat))
        assert (dom, r, dom - r, cond_dim) == expected[k]
        assert r == cond_dim
        for b in symmetric_symbol_basis(2, 2, k):
            z = zeta(b, jl0, jm0)
            assert all(d.is_zero() for d in defect_conditions(z, jl0, jm0).values())


def test_zeta_matrix_keeps_its_entries():
    """zeta_matrix for k = 1..3 between conjugated structures on R^4 and
    R^2, pinned by the digests it had before it was read off matrix_of."""
    jl0 = rand_point_structure(2, random.Random(11))
    jm0 = rand_point_structure(1, random.Random(12))
    got = [digest(zeta_matrix(jl0, jm0, k)) for k in (1, 2, 3)]
    assert got == ["298dbc31b6334901", "5429fe469598ba3b", "f7e96e386a0634a1"]


def test_symmetrize_takes_point_tensors_only():
    j = standard_structure(2)
    jl0 = j.at_point(list(ZERO4))
    zero = PointTensor.from_function(4, 4, 2, lambda idx: [Fraction(0)] * 4)
    for args in ((zero, j, jl0), (zero, jl0, j), (zero, j, j),
                 (standard_matrix(2), jl0, jl0)):
        with pytest.raises(StructureError, match="PointTensor"):
            symmetrize(*args)


# five mismatches: (P dim, J_L dim, J_M dim, P passed as J_L)
@pytest.mark.parametrize("p_dim, l_dim, m_dim, p_as_j_l", [
    (4, 6, 4, False), (4, 4, 6, False), (4, 4, 4, True), (6, 4, 4, False), (6, 6, 4, False),
])
@pytest.mark.parametrize("check", [symmetrize, defect_conditions])
def test_defect_checks_refuse_structures_of_the_wrong_shape(monkeypatch, check, p_dim,
                                                            l_dim, m_dim, p_as_j_l):
    """J_L(x) must be a square map of P_k's source and J_M(y) of its
    target; a mismatch is refused by name and shape before any arithmetic."""
    rng = random.Random(p_dim + l_dim + m_dim)
    p_k = rand_symmetric(p_dim, p_dim, 2, rng)
    jl0 = p_k if p_as_j_l else rand_point_structure(l_dim // 2, rng)
    jm0 = rand_point_structure(m_dim // 2, rng)
    contractions = calls_of(monkeypatch, jets, "contraction_sum")
    reads = calls_of(monkeypatch, jets, "dense_row")
    with pytest.raises(StructureError) as exc:
        check(p_k, jl0, jm0)
    assert type(exc.value) is StructureError
    bad = "J_L(x)" if p_as_j_l or l_dim != p_dim else "J_M(y)"
    assert bad in str(exc.value)
    assert f"{p_dim} -> {p_dim}" in str(exc.value)
    assert contractions == [] and reads == []


CONDITIONS = ("antilinearity", "trailing_symmetry", "swap_conjugation")


def rand_tensor(dim_in, dim_out, k, rng):
    return PointTensor.from_function(
        dim_in, dim_out, k, lambda idx: [Fraction(rng.randint(-3, 3)) for _ in range(dim_out)])


def antilinear_part(t, jl0, jm0, slot):
    """(t + j_M o t(.., j_L ., ..))/2, the part of t antilinear in the slot."""
    return t.add(post_compose(jm0, slot_compose(t, jl0, slot))).scale(HALF)


def drawn_defect(kind, k, jl0, jm0, rng):
    """A zeta image of arity k, plus a tensor that can fail only the named
    condition, or a random tensor."""
    n, m = jl0.dim_in, jm0.dim_in
    p_k = zeta(rand_symmetric(n, m, k, rng), jl0, jm0)
    if kind == "antilinearity":
        # fully symmetric: no alternation in slots 0 and 1
        extra = rand_symmetric(n, m, k, rng)
    elif kind == "swap_conjugation":
        # antilinear in slot 0 and symmetric in the others; from a fully
        # symmetric tensor its antilinear part in slots 0 and 1 would be
        # symmetric, and swap conjugation would hold
        extra = antilinear_part(PointTensor.from_orbits(
            n, m, k, jets._trailing_rep,
            lambda rep: [Fraction(rng.randint(-3, 3)) for _ in range(m)]), jl0, jm0, 0)
    elif kind == "trailing_symmetry":
        # antilinear in slots 0 and 1 and symmetric in them, not in 1 and 2
        t = antilinear_part(antilinear_part(rand_tensor(n, m, k, rng), jl0, jm0, 0),
                            jl0, jm0, 1)
        extra = t.add(t.swap_slots(0, 1))
    elif kind == "random":
        extra = rand_tensor(n, m, k, rng)
    else:
        return p_k
    return p_k.add(extra)


def dense_failures(p_k, jl0, jm0):
    conds = defect_conditions(p_k, jl0, jm0)
    return conds, [c for c in CONDITIONS if c in conds and not conds[c].is_zero()]


def assert_decided_like_the_dense_conditions(p_k, jl0, jm0):
    """symmetrize raises exactly when a dense condition tensor is nonzero,
    naming the first in the dense order and carrying its tensor; otherwise
    its symbol solves zeta(Phi) = P_k."""
    conds, failing = dense_failures(p_k, jl0, jm0)
    if not failing:
        assert zeta(symmetrize(p_k, jl0, jm0).tensor, jl0, jm0) == p_k
        return failing
    with pytest.raises(DefectConditionError) as exc:
        symmetrize(p_k, jl0, jm0)
    assert exc.value.condition == failing[0]
    assert exc.value.defect == conds[failing[0]]
    return failing


@st.composite
def defect_draws(draw, max_k=4, max_n=2):
    k = draw(st.integers(1, max_k))
    kinds = ["zeta", "random", "antilinearity"] + ["swap_conjugation"] * (k >= 2) + \
        ["trailing_symmetry"] * (k >= 3)
    return (k, draw(st.sampled_from(kinds)), draw(st.integers(1, max_n)),
            draw(st.integers(1, max_n)), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=40, deadline=None)
@given(defect_draws())
def test_symmetrize_decides_like_the_dense_conditions(drawn):
    k, kind, n_in, n_out, seed = drawn
    rng = random.Random(seed)
    jl0, jm0 = rand_point_structure(n_in, rng), rand_point_structure(n_out, rng)
    failing = assert_decided_like_the_dense_conditions(
        drawn_defect(kind, k, jl0, jm0, rng), jl0, jm0)
    if kind == "zeta":
        assert failing == []
    elif kind != "random":
        assert set(failing) <= {kind}


@settings(max_examples=30, deadline=None)
@given(defect_draws(max_k=5, max_n=3))
def test_symmetrize_matches_the_polynomial_homotopy(drawn):
    """The homotopy and certificate on integer rows give the symbol of the
    polynomial homotopy, or raise its condition with its defect, value for
    value and type for type."""
    k, kind, n_in, n_out, seed = drawn
    rng = random.Random(seed)
    jl0, jm0 = rand_point_structure(n_in, rng), rand_point_structure(n_out, rng)
    p_k = drawn_defect(kind, k, jl0, jm0, rng)
    outcomes = []
    for solve in (symmetrize, symmetrize_by_polynomials):
        try:
            outcomes.append(digest(solve(p_k, jl0, jm0).tensor))
        except DefectConditionError as err:
            outcomes.append((err.condition, digest(err.defect)))
    assert outcomes[0] == outcomes[1]


def test_symmetrize_makes_no_polynomial_products(monkeypatch):
    """symmetrize solves and certifies on integer rows, the tensors' rows
    laid out by dense_row: neither a solvable nor an obstructed P_k reaches the
    polynomial kernels.  A direct call afterwards shows the spies live."""
    applied = calls_of(monkeypatch, poly, "jet_apply_columns")
    products = calls_of(monkeypatch, poly, "_products")
    reads = calls_of(monkeypatch, jets, "dense_row")
    rng = random.Random(7)
    jl0, jm0 = rand_point_structure(2, rng), rand_point_structure(2, rng)
    for kind, failing in (("zeta", []), ("swap_conjugation", ["swap_conjugation"])):
        p_k = drawn_defect(kind, 3, jl0, jm0, rng)
        assert assert_decided_like_the_dense_conditions(p_k, jl0, jm0) == failing
    assert applied == [] and products == [] and reads != []
    poly.jet_apply_columns([[poly.const(1, 1)]], [[poly.var(1, 1)]], math.inf)
    assert len(applied) == 1 and len(products) == 1


def test_each_drawn_condition_fails_alone():
    """The draws above reach every condition alone, in equal and unequal
    dimensions.  Swap conjugation needs a source of dimension 4 at least:
    on R^2 a j_L-conjugation multiplies 2-forms by det j_L = 1."""
    rng = random.Random(41)
    for n_in, n_out in ((2, 2), (2, 1), (1, 2)):
        jl0, jm0 = rand_point_structure(n_in, rng), rand_point_structure(n_out, rng)
        for k in range(1, 5):
            swap = k >= 2 and n_in >= 2
            for kind in CONDITIONS[:1] + CONDITIONS[2:] * swap + CONDITIONS[1:2] * (k >= 3):
                p_k = drawn_defect(kind, k, jl0, jm0, rng)
                assert assert_decided_like_the_dense_conditions(p_k, jl0, jm0) == [kind]


# -- obstructions -----------------------------------------------------------------

@pytest.mark.parametrize("obstruction", [obstruction_2, obstruction_3])
def test_obstructions_take_a_point_tensor_symbol(obstruction):
    j = example_structure("ex2")
    for phi in (JetSymbol(1, identity_map(4)), standard_matrix(2)):
        with pytest.raises(StructureError, match="PointTensor"):
            obstruction(phi, j, j, ZERO4, ZERO4)


def test_obstruction2_standard_structures_vanish():
    rng = random.Random(17)
    j0 = standard_structure(2)
    phi = commutant_element(j0.at_point(list(ZERO4)), j0.at_point(list(ZERO4)), rng)
    assert obstruction_2(phi, j0, j0, ZERO4, ZERO4).vanishes


def test_obstruction2_identity_to_standard_target():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    ob = obstruction_2(identity_map(4), j_l, j_m, ZERO4, ZERO4)
    assert not ob.vanishes
    expected = post_compose(identity_map(4),
                            nijenhuis_tensor(j_l, list(ZERO4))).neg()
    assert ob.residual == expected


def test_obstruction2_identity_self_conjugation():
    j = example_structure("ex2")
    pt = tuple(Fraction(c) for c in (2, -1, 0, 1))
    assert obstruction_2(identity_map(4), j, j, pt, pt).vanishes


def test_obstruction2_requires_intertwining():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    x = tuple(Fraction(c) for c in (0, 1, 0, 0))
    with pytest.raises(StructureError, match="intertwine"):
        obstruction_2(identity_map(4), j_l, j_m, x, ZERO4)


def test_obstruction3_sign_flip_detects_negation():
    """Negating the structure keeps the torsion, flips the arity-4 tensor:
    the order-2 residual passes and the order-3 one fails by -2."""
    j = example_structure("ex2")
    neg = j.negated()
    phi = identity_map(4)
    # no nonzero symbol intertwines a structure with its negation, so the
    # comparison only exists formally
    with pytest.raises(StructureError, match="intertwine"):
        obstruction_2(phi, j, neg, ZERO4, ZERO4)
    assert obstruction_2(phi, j, neg, ZERO4, ZERO4,
                         require_membership=False).vanishes
    ob = obstruction_3(phi, j, neg, ZERO4, ZERO4, require_membership=False)
    assert not ob.vanishes
    nn = higher_nijenhuis(j, list(ZERO4))
    assert ob.residual == post_compose(phi, nn).scale(-2)


def test_obstruction3_vanishes_on_self_and_standard():
    j0 = standard_structure(2)
    rng = random.Random(19)
    phi = commutant_element(j0.at_point(list(ZERO4)), j0.at_point(list(ZERO4)), rng)
    assert obstruction_3(phi, j0, j0, ZERO4, ZERO4).vanishes
    j = example_structure("ex2")
    assert obstruction_3(identity_map(4), j, j, ZERO4, ZERO4).vanishes


def test_obstruction3_requires_order2():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    with pytest.raises(StructureError, match="order-2"):
        obstruction_3(identity_map(4), j_l, j_m, ZERO4, ZERO4)


# -- lifting ----------------------------------------------------------------------

def test_lift_annihilating_symbol_reaches_order_2():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    step = lift(u, j_l, j_m)
    assert step.ok
    assert step.lifted.order == 2
    assert step.lifted.symbol(1).tensor == killing_symbol()
    assert cr_residual(step.lifted, j_l, j_m).is_zero()
    # and the tower continues to the default depth
    tower = lift_tower(u, j_l, j_m, k_max=4)
    assert tower.ok and tower.lifted.order == 4
    for r in range(1, 5):
        assert cr_residual(truncate(tower.lifted, r), j_l, j_m).is_zero()


def test_lift_invertible_symbol_blocked_at_order_2():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, identity_map(4)),))
    step = lift(u, j_l, j_m)
    assert not step.ok
    assert step.lifted is None
    assert step.obstruction.order == 2
    assert not step.obstruction.vanishes
    # the blocking tensor is the pushed order-2 obstruction residual
    res = obstruction_2(identity_map(4), j_l, j_m, ZERO4, ZERO4).residual
    jm0 = j_m.at_point(list(ZERO4))
    assert step.obstruction.residual == post_compose(jm0, res)
    tower = lift_tower(u, j_l, j_m, k_max=4)
    assert tower.lifted.order == 1 and not tower.ok


def test_lift_tower_standard_rectangular():
    """Complex-linear symbols between flat structures lift to any order."""
    rng = random.Random(23)
    j_l = standard_structure(3)
    j_m = standard_structure(2)
    x6 = tuple(Fraction(0) for _ in range(6))
    phi = commutant_element(j_l.at_point(list(x6)), j_m.at_point(list(ZERO4)), rng)
    u = TruncatedMap(x6, ZERO4, (JetSymbol(1, phi),))
    tower = lift_tower(u, j_l, j_m, k_max=4)
    assert tower.ok and tower.lifted.order == 4
    for r in range(1, 5):
        assert cr_residual(truncate(tower.lifted, r), j_l, j_m).is_zero()
    # flat structures have zero defect at every order, so the canonical
    # prolongation keeps only the order-1 symbol
    for r in range(2, 5):
        assert tower.lifted.symbol(r).tensor.is_zero()


def test_lift_is_idempotent_on_lifted_maps():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    w2 = lift(u, j_l, j_m).lifted
    assert lift(truncate(w2, 1), j_l, j_m).lifted == w2
    w3 = lift(w2, j_l, j_m).lifted
    assert lift(truncate(w3, 2), j_l, j_m).lifted == w3


# -- each order checked once; the orbit-filled symbol certified densely -------------

def calls_of(monkeypatch, owner, name):
    """Replace owner.name by a wrapper recording the arguments of each call."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("start", [1, 2])
def test_lift_tower_checks_each_order_once(monkeypatch, start):
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    if start == 2:
        u = lift(u, j_l, j_m).lifted
    compositions = calls_of(monkeypatch, jets, "_composition")
    kernel_calls = calls_of(monkeypatch, poly, "jet_cauchy_riemann")
    cross_checks = calls_of(monkeypatch, jets, "_residual_terms")
    decided = calls_of(monkeypatch, jets, "_symmetrized")
    orbit_tensors = calls_of(monkeypatch, jets, "_orbit_tensor")
    witnesses = calls_of(monkeypatch, jets, "defect_conditions")
    shifts = calls_of(monkeypatch, StructureField, "jet")
    differentials = calls_of(monkeypatch, jets, "jet_differential")
    tower = lift_tower(u, j_l, j_m, k_max=4)
    assert tower.ok and tower.lifted.order == 4
    # one composition per step, cut at the order of the map it extends:
    # the first also shows the input orders, each later one the order just
    # lifted, which symmetrize has already certified
    assert [(a[0].order, a[2]) for a, _ in compositions] == \
        [(k, k) for k in range(start, 4)]
    # each summed by one call of the integer kernel, at the same cut
    assert [a[3] for a, _ in kernel_calls] == list(range(start, 4))
    # one representative cross-check per new order, of P_k, and one
    # decision of P_k, by symmetrize's rows core; the dense P_k and its
    # conditions are built only as the witness of a failure, so a full
    # tower builds neither: its only orbit-filled tensors are its symbols
    assert [(a[0].order + 1, a[2]) for a, _ in cross_checks] == \
        [(k, True) for k in range(start + 1, 5)]
    assert [a[2] for a, _ in decided] == list(range(start + 1, 5))
    assert [(a[2], a[3]) for a, _ in orbit_tensors] == [(k, 0) for k in range(start + 1, 5)]
    assert witnesses == []
    # one jet per structure, to its entry degree, once per tower ...
    assert [a for a, _ in shifts] == [(j_l, list(ZERO4), j_l.max_entry_degree()),
                                      (j_m, list(ZERO4), j_m.max_entry_degree())]
    # ... and each differential with a nonzero term read off it once: d^0
    # of both, d^1 of ex2 (degree 1); the constant J_st has no d^1, and
    # neither has a d^2 or d^3
    assert sorted(a[1] for a, _ in differentials) == [0, 0, 1]


def test_lift_tower_rejects_a_bad_input_order():
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    rng = random.Random(29)
    # identity does not intertwine ex2 with the standard structure away from 0
    bad1 = TruncatedMap(tuple(Fraction(c) for c in (0, 1, 0, 0)), ZERO4,
                        (JetSymbol(1, identity_map(4)),))
    good2 = lift(TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),)),
                 j_l, j_m).lifted
    bad2 = TruncatedMap(ZERO4, ZERO4, (good2.symbol(1),
                                       JetSymbol(2, rand_symmetric(4, 4, 2, rng))))
    bad3 = good2.with_symbol(JetSymbol(3, rand_symmetric(4, 4, 3, rng)))
    for bad, order in ((bad1, 1), (bad2, 2), (bad3, 3)):
        assert not cr_residual(bad, j_l, j_m).is_zero()
        with pytest.raises(StructureError, match=f"order {order}"):
            lift_tower(bad, j_l, j_m, k_max=4)


def unit_symbol_map():
    """E_00 at the origin: it does not intertwine ex2 with J_st there."""
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    mat[0][0] = Fraction(1)
    return TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, PointTensor.from_matrix(mat)),))


@pytest.mark.parametrize("k_max", [0, 1, 2])
def test_lift_tower_checks_the_input_when_no_step_runs(k_max):
    """With k_max at or below the map's order (0, 1) no step runs, and the
    input is still checked: E_00 is refused at order 1 as when a step runs
    (2), and as lift refuses it."""
    j_l, j_m, u = example_structure("ex2"), standard_structure(2), unit_symbol_map()
    assert not cr_residual(u, j_l, j_m).is_zero()
    for call in (lambda: lift_tower(u, j_l, j_m, k_max=k_max), lambda: lift(u, j_l, j_m)):
        with pytest.raises(StructureError, match="compatibility equation at order 1"):
            call()


def test_lift_tower_returns_a_checked_input_when_no_step_runs():
    """A map whose orders all vanish comes back unchanged at k_max <= its
    order; one whose top order fails is refused at that order."""
    j_l, j_m = example_structure("ex2"), standard_structure(2)
    good2 = lift(TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),)),
                 j_l, j_m).lifted
    for k_max in (0, 1, 2):
        tower = lift_tower(good2, j_l, j_m, k_max=k_max)
        assert tower.ok and tower.lifted is good2
    bad3 = good2.with_symbol(JetSymbol(3, rand_symmetric(4, 4, 3, random.Random(29))))
    for k_max in (2, 3):
        with pytest.raises(StructureError, match="compatibility equation at order 3"):
            lift_tower(bad3, j_l, j_m, k_max=k_max)


@pytest.mark.parametrize("corruption, message", [
    ("orbit value", "reproduce"),
    ("single entry", "not symmetric"),
])
def test_lift_rejects_a_corrupted_symbol(monkeypatch, corruption, message):
    """The symbol is certified as stored: a wrong row shared by a whole
    orbit fails zeta(Phi) == P_k, and a wrong row at one index tuple
    fails the symmetry check."""
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    build = jets._orbit_tensor

    def bumped(row, t):
        """The row with its component 0 raised by 1."""
        v = [0] * t.dim_out
        for i, c in row:
            v[i] = c
        v[0] += t.den
        return tuple((i, c) for i, c in enumerate(v) if c)

    def corrupted(n, m, k, head, den, rep_rows):
        t = build(n, m, k, head, den, rep_rows)
        # only symbols are corrupted, so P_k and its witness stay right
        if head:
            return t
        rows = dict(t.rows)
        if corruption == "orbit value":
            # every index tuple of the orbit of (0, .., 0, 1) gets one new row
            orbit = (0,) * (k - 1) + (1,)
            row = bumped(rows[orbit], t)
            rows.update({idx: row for idx in rows if tuple(sorted(idx)) == orbit})
        else:
            key = (1,) + (0,) * (k - 1)
            rows[key] = bumped(rows[key], t)
        return PointTensor.from_rows(n, m, k, t.den, rows)

    monkeypatch.setattr(jets, "_orbit_tensor", corrupted)
    with pytest.raises(InternalInconsistencyError, match=message):
        lift(u, j_l, j_m)


def fingerprint(t):
    text = ";".join(f"{idx}:{','.join(str(c) for c in v)}"
                    for idx, v in sorted(t.entries.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ex5_to_standard():
    j_l = example_structure("ex5", Fraction(-1, 3))
    j_m = standard_structure(2)
    phi = commutant_element(j_l.at_point(list(ZERO4)), j_m.at_point(list(ZERO4)),
                            random.Random(0))
    return j_l, j_m, TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, phi),))


def ex2_identity():
    return (example_structure("ex2"), standard_structure(2),
            TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, identity_map(4)),)))


def random_pair():
    j_l = random_structure(2, seed=11)
    j_m = random_structure(2, seed=23)
    x = tuple(Fraction(c) for c in (1, 0, 1, -1))
    y = tuple(Fraction(c) for c in (0, 1, 0, 2))
    phi = commutant_element(j_l.at_point(list(x)), j_m.at_point(list(y)),
                            random.Random(0))
    return j_l, j_m, TruncatedMap(x, y, (JetSymbol(1, phi),))


# fingerprints of the blocking tensors as computed before the structure jets
# were shared and each order was checked once
@pytest.mark.parametrize("fixture, order, expected", [
    (ex5_to_standard, 3, "7e811148b4bb53c2"),
    (ex2_identity, 2, "e0c8802555b6484a"),
    (random_pair, 2, "0122cd8ffdbf8f29"),
])
def test_obstructed_tower_keeps_its_residual(monkeypatch, fixture, order, expected):
    j_l, j_m, u = fixture()
    witnesses = calls_of(monkeypatch, jets, "defect_conditions")
    tower = lift_tower(u, j_l, j_m, k_max=4)
    # the dense conditions are built once, as the witness at the blocking order
    assert [a[0].arity for a, _ in witnesses] == [order]
    assert not tower.ok and tower.lifted.order == order - 1
    assert tower.obstruction.order == order
    assert fingerprint(tower.obstruction.residual) == expected
    # and it is the swap_conjugation defect of the public P_k
    p_k = build_P_k(tower.lifted, j_l, j_m, verify=False)
    swap = defect_conditions(p_k, j_l.at_point(list(u.x)),
                             j_m.at_point(list(u.y)))["swap_conjugation"]
    assert tower.obstruction.residual == swap


def ex2_killing():
    return (example_structure("ex2"), standard_structure(2),
            TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),)))


def pushed_standard_1jet():
    return pushed_pair(standard_structure(2), 3, 1)


def pushed_standard3_1jet():
    return pushed_pair(standard_structure(3), 4, 1)


# fingerprints of the symbols of three towers: the first two as the dense
# projection solve computed them, the 6D one as the tower computed them
# with the dense defect conditions and the per-partition apply cross-check
# (to order 4; its order-5 symbol as the tower computed it with P_k and
# the symbol filled over every index tuple);
# the ex2 symbols above order 1 are zero, the pushed pairs' are not
@pytest.mark.parametrize("fixture, order, expected", [
    (ex2_killing, 6, ["bfd049969bfda7cb", "105692c59da9dfcd", "90af895dede46ea3",
                      "131d88260f0da184", "28d0108a677cb11a", "4d17be6269e1eeae"]),
    (pushed_standard_1jet, 5, ["7816d095581ee409", "d63ee73ec4c93c63",
                               "925223c9de5b8cd5", "f709ee17db0a6178",
                               "26dbf9277b08454b"]),
    (pushed_standard3_1jet, 5, ["26549be70ee8e29f", "9943c37e5c20f010",
                                "ab78ad9f8364902c", "f6cf739bce37d0fc",
                                "fee970b1b5baa0eb"]),
])
def test_higher_order_tower_keeps_its_symbols(fixture, order, expected):
    j_l, j_m, u = fixture()
    tower = lift_tower(u, j_l, j_m, k_max=order)
    assert tower.ok and tower.lifted.order == order
    assert [fingerprint(s.tensor) for s in tower.lifted.symbols] == expected


# -- the composition route against a dense set-partition reference -----------------

def dense_reference(j_l, j_m, x, y, top):
    """residual(u, skip_top) computing every entry of the order-k residual
    from set partitions (Faa di Bruno), over all dim^k index tuples, with
    the differentials d^0..d^(top - 1) of the global polynomials at x and
    y; with skip_top, P_k for k = u.order + 1."""
    d_l = [None] + [differential(structure_as_field(j_l), p, list(x)) for p in range(top)]
    d_m = [None] + [differential(structure_as_field(j_m), p, list(y)) for p in range(top)]
    return lambda u, skip_top=False: dense_residual(u, d_l, d_m, skip_top)


def dense_residual(u, d_l, d_m, skip_top):
    k = u.order + 1 if skip_top else u.order
    n, m = u.dim_in, u.dim_out
    sym = {s.k: s.tensor for s in u.symbols}
    parts = [b for b in set_partitions(k) if not (skip_top and len(b) == 1)]
    m_memo, l_memo = {}, {}

    def m_term(subs):
        if subs not in m_memo:
            m_memo[subs] = d_m[len(subs)].apply([sym[len(b)].entries[b] for b in subs])
        return m_memo[subs]

    def l_term(head, rest):
        if (head, rest) not in l_memo:
            l_memo[head, rest] = sym[len(rest) + 1].apply(
                [d_l[len(head)].entries[head]] + [e(n, i) for i in rest])
        return l_memo[head, rest]

    def entry(idx):
        out = [Fraction(0)] * m
        for blocks in parts:
            out = linalg.vec_add(out, m_term(tuple(tuple(idx[i] for i in b)
                                                   for b in blocks)))
        for p in range(2 if skip_top else 1, k + 1):
            for s in itertools.combinations(range(1, k), p - 1):
                rest = tuple(idx[i] for i in range(1, k) if i not in s)
                out = linalg.vec_sub(out, l_term(
                    (idx[0],) + tuple(idx[i] for i in s), rest))
        return [-c for c in out] if skip_top else out

    return PointTensor.from_function(n, m, k, entry)


def chart_change(rng, dim):
    """phi_i = x_i + c_i x_1 x_k (k < i) and its polynomial inverse psi."""
    phi = [poly.var(1, dim)]
    for i in range(1, dim):
        ex = [0] * dim
        ex[0] += 1
        ex[rng.randrange(i)] += 1
        phi.append(poly.add(poly.var(i + 1, dim),
                            poly.monomial(tuple(ex), rng.choice((-2, -1, 1, 2)))))
    psi = []
    for i in range(dim):
        reps = psi + [poly.var(r + 1, dim) for r in range(i, dim)]
        psi.append(poly.sub(poly.var(i + 1, dim), poly.substitute(
            poly.sub(phi[i], poly.var(i + 1, dim)), reps, dim)))
    return phi, psi


def push_forward(j, phi, psi):
    """phi_*J: column k of J'(y) is Dphi(psi(y)) J(psi(y)) Dpsi(y) e_k."""
    dim = j.dim

    def pulled(col):
        return [poly.substitute(c, psi, dim) for c in col]

    j_psi = [pulled(col) for col in j.cols]
    dphi = [pulled([poly.diff(c, a + 1) for c in phi]) for a in range(dim)]
    return StructureField([
        poly.apply_columns(dphi, poly.apply_columns(
            j_psi, [poly.diff(c, k + 1) for c in psi]))
        for k in range(dim)], name=f"pushed({j.name})")


def taylor_jet(phi, x0, order):
    """The truncated map of the polynomial map phi at x0, to the given order."""
    dim = len(phi)
    shifted = poly.shift(phi, x0, order)

    def symbol(idx):
        alpha = tuple(idx.count(a) for a in range(dim))
        w = math.prod(math.factorial(a) for a in alpha)
        return [c.get(alpha, Fraction(0)) * w for c in shifted]

    return TruncatedMap(tuple(x0), tuple(poly.eval_poly(c, x0) for c in phi), tuple(
        JetSymbol(r, PointTensor.from_orbits(dim, dim, r, symmetric_rep, symbol))
        for r in range(1, order + 1)))


def pushed_pair(j, seed, order):
    """J, phi_*J for a seeded triangular chart change phi, and the
    order-jet of phi at a seeded point: a map with zero residual."""
    rng = random.Random(seed)
    phi, psi = chart_change(rng, j.dim)
    x0 = [Fraction(rng.choice((-1, 1)), rng.randint(1, 2)) for _ in range(j.dim)]
    return j, push_forward(j, phi, psi), taylor_jet(phi, x0, order)


def test_pushed_pair_residuals_agree_with_the_dense_reference():
    j_l, j_m, u = pushed_pair(random_structure(2, seed=5, degree=1), 7, 5)
    assert j_l.max_entry_degree() == 1 and j_m.max_entry_degree() >= 2
    dense = dense_reference(j_l, j_m, u.x, u.y, 5)
    for r in range(1, 6):
        res = cr_residual(truncate(u, r), j_l, j_m)
        assert res == dense(truncate(u, r))
        assert res.is_zero()
    # one orbit of the order-5 symbol moved: a nonzero residual, equal to
    # zeta of the change
    bump = PointTensor.from_orbits(4, 4, 5, symmetric_rep, lambda idx: [
        Fraction(int(idx == (0, 1, 1, 2, 3) and i == 2)) for i in range(4)])
    bumped = truncate(u, 4).with_symbol(JetSymbol(5, u.symbol(5).tensor.add(bump)))
    res = cr_residual(bumped, j_l, j_m)
    assert res == dense(bumped)
    assert res == zeta(bump, j_l.at_point(list(u.x)), j_m.at_point(list(u.y)))
    assert not res.is_zero()


@pytest.mark.parametrize("fixture", [ex5_to_standard, random_pair])
def test_obstructed_tower_P_k_agrees_with_the_dense_reference(fixture):
    j_l, j_m, u = fixture()
    tower = lift_tower(u, j_l, j_m, k_max=4)
    assert not tower.ok
    dense = dense_reference(j_l, j_m, u.x, u.y, max(tower.obstruction.order, 3))
    for r in range(1, tower.lifted.order + 1):
        p_k = build_P_k(truncate(tower.lifted, r), j_l, j_m, verify=False)
        assert p_k == dense(truncate(tower.lifted, r), skip_top=True)
    # random symbols give nonzero residuals at every order
    rng = random.Random(31)
    noisy = TruncatedMap(u.x, u.y, tuple(JetSymbol(r, rand_symmetric(4, 4, r, rng))
                                         for r in range(1, 4)))
    for r in range(1, 4):
        res = cr_residual(truncate(noisy, r), j_l, j_m)
        assert not res.is_zero()
        assert res == dense(truncate(noisy, r))


def test_6d_pushed_pair_agrees_with_the_dense_reference():
    j_l, j_m, u = pushed_pair(standard_structure(3), 3, 3)
    dense = dense_reference(j_l, j_m, u.x, u.y, 3)
    for r in range(1, 4):
        assert cr_residual(truncate(u, r), j_l, j_m) == dense(truncate(u, r))
    # the canonical prolongation of the 1-jet: the P_k along its tower
    tower = lift_tower(truncate(u, 1), j_l, j_m, k_max=3)
    for r in range(1, tower.lifted.order):
        assert build_P_k(truncate(tower.lifted, r), j_l, j_m, verify=False) == \
            dense(truncate(tower.lifted, r), skip_top=True)


def _residual_terms_against_the_dense_reference(j_l, j_m, u):
    """Every residual and P_k of u and of random symbols to u's order, from
    _residual_terms at every representative, component for component
    against the dense reference, each component an int over the den."""
    top, dim = u.order, u.dim_in
    rng = random.Random(37)
    noisy = TruncatedMap(u.x, u.y, tuple(JetSymbol(r, rand_symmetric(dim, dim, r, rng))
                                         for r in range(1, top + 1)))
    dense = dense_reference(j_l, j_m, u.x, u.y, top)
    for v in (u, noisy):
        structure_jets = jets._StructureJets(v, j_l, j_m)
        for r, skip_top in [(r, False) for r in range(1, top + 1)] + \
                [(r, True) for r in range(1, top)]:
            den, got = jets._residual_terms(truncate(v, r), structure_jets, skip_top)
            want = dense(truncate(v, r), skip_top)
            k = r + skip_top
            assert sorted(got) == [(a,) + rest for a in range(dim) for rest in
                                 itertools.combinations_with_replacement(range(dim), k - 1)]
            assert all([Fraction(c, den) for c in value] == list(want.entries[idx])
                       for idx, value in got.items())
            assert type(den) is int and den > 0
            assert all(type(c) is int for value in got.values() for c in value)
            if not skip_top:
                assert any(any(value) for value in got.values()) == (v is noisy)


def test_residual_terms_are_fractions_equal_to_the_dense_reference():
    """A 4D pushed pair with nonzero d^1 J_M, d^2 J_M and d^1 J_L, to
    order 3."""
    _residual_terms_against_the_dense_reference(
        *pushed_pair(random_structure(2, seed=5, degree=1), 7, 3))


def test_residual_terms_equal_the_dense_reference_to_order_5():
    """A 2D pushed pair with nonzero d^1, d^2 and d^3 J_M, to order 5: the
    tails of two or more blocks, which representatives share, and their
    sums over the partitions of a repeated value."""
    j_l, j_m, u = pushed_pair(random_structure(1, seed=5, degree=1), 7, 5)
    d_m = jets._StructureJets(u, j_l, j_m).upto(5)[1]
    assert [d is not None for d in d_m] == [False, True, True, True, False, False]
    _residual_terms_against_the_dense_reference(j_l, j_m, u)


def test_lift_tower_applies_no_tensor(monkeypatch):
    """The cross-check sums its terms on integer numerators: no tower, full
    or obstructed, applies a tensor to vectors.  A direct call afterwards
    shows the counter live."""
    applied = calls_of(monkeypatch, PointTensor, "apply")
    for fixture, order in ((ex2_killing, 4), (pushed_standard_1jet, 5),
                           (pushed_standard3_1jet, 3), (ex5_to_standard, 4)):
        j_l, j_m, u = fixture()
        lift_tower(u, j_l, j_m, k_max=order)
    assert applied == []
    PointTensor.from_matrix([[1, 0], [0, 1]]).apply([[1, 2]])
    assert len(applied) == 1


@pytest.mark.parametrize("fixture, order, obstructed_at", [
    (pushed_standard_1jet, 5, None),
    (ex5_to_standard, 4, 3),
])
def test_lift_tower_keeps_each_step_on_rows(monkeypatch, fixture, order, obstructed_at):
    """A tower, full or obstructed, builds no tensor by the trailing rule
    (P_k stays at its representatives, and a failure's witness is built
    from its rows) and reads no tensor from Fractions back into integer
    rows (each symbol is stored as its rows and certified as stored).
    Counts, not a timer: the input symbols are read before the tower, and
    direct calls afterwards show the spies live."""
    j_l, j_m, u = fixture()
    for s in u.symbols:
        s.tensor.rows
    orbit_fills = calls_of(monkeypatch, PointTensor, "from_orbits")
    attributes = calls_of(monkeypatch, PointTensor, "__getattr__")
    witnesses = calls_of(monkeypatch, jets, "defect_conditions")
    tower = lift_tower(u, j_l, j_m, k_max=order)
    assert (tower.ok, tower.lifted.order) == \
        ((True, order) if obstructed_at is None else (False, obstructed_at - 1))
    assert [a for a, _ in orbit_fills if a[3] is jets._trailing_rep] == []
    assert [a[1] for a, _ in attributes if a[1] in ("den", "rows")] == []
    assert len(witnesses) == (obstructed_at is not None)
    # the returned symbols' entries were built inside the call
    built, fills = len(attributes), len(orbit_fills)
    for s in tower.lifted.symbols:
        s.tensor.entries
    assert len(attributes) == built
    PointTensor.from_orbits(2, 2, 2, jets._trailing_rep, lambda idx: [1, 0]).rows
    assert len(orbit_fills) == fills + 1 and attributes[-1][0][1] == "rows"


@pytest.mark.parametrize("route", ["tensor", "composition"])
def test_route_disagreement_raises(monkeypatch, route):
    """One wrong representative entry in either route stops the tower."""
    j_l = example_structure("ex2")
    j_m = standard_structure(2)
    u = TruncatedMap(ZERO4, ZERO4, (JetSymbol(1, killing_symbol()),))
    if route == "tensor":
        real = jets._residual_terms

        def wrong(*args):
            den, out = real(*args)
            idx = max(out)
            out[idx] = [out[idx][0] + den] + out[idx][1:]
            return den, out

        monkeypatch.setattr(jets, "_residual_terms", wrong)
    else:
        real = poly.jet_cauchy_riemann

        def wrong(target, source, big_u, top):
            # one more unit in component 1 of R_3 at h_2 h_3^(top - 1),
            # indices from 0: the top part at the representative (3, 2, 3, .., 3)
            den, out = real(target, source, big_u, top)
            e = (0, 0, 1, top - 1)
            out[3][1][e] = out[3][1].get(e, 0) + den
            return den, out

        monkeypatch.setattr(poly, "jet_cauchy_riemann", wrong)
    with pytest.raises(InternalInconsistencyError, match="disagree"):
        lift_tower(u, j_l, j_m, k_max=3)


# -- the integer composition against the Fraction route ----------------------------

def bumped_at(order):
    """A 4D pushed pair's 5-jet with one orbit of its order-`order` symbol
    moved: its residual vanishes below that order and fails there."""
    def fixture():
        j_l, j_m, u = pushed_pair(random_structure(2, seed=5, degree=1), 7, 5)
        bump = PointTensor.from_orbits(4, 4, order, symmetric_rep, lambda idx: [
            Fraction(int(idx == tuple(range(order)) and i == 1), 3) for i in range(4)])
        symbols = list(u.symbols)
        symbols[order - 1] = JetSymbol(order, u.symbol(order).tensor.add(bump))
        return j_l, j_m, TruncatedMap(u.x, u.y, tuple(symbols))
    return fixture


def lifted(fixture, k_max):
    """The map the fixture's tower reaches, full or obstructed."""
    def lifted_fixture():
        j_l, j_m, u = fixture()
        return j_l, j_m, lift_tower(u, j_l, j_m, k_max=k_max).lifted
    return lifted_fixture


def reading(polys, n, k, sign):
    """The residual (sign 1) or P_k (sign -1) of arity k read off the
    Fraction composition at every index tuple, as the package read it."""
    return PointTensor.from_function(n, len(polys[0]), k, lambda idx: slot_entry(
        polys[idx[0]], tuple(sorted(idx[1:])), n, sign))


@pytest.mark.parametrize("fixture, order, fails_at", [
    (lifted(ex2_killing, 6), 6, None),
    (lambda: pushed_pair(random_structure(2, seed=5, degree=1), 7, 6), 6, None),
    (lambda: pushed_pair(standard_structure(3), 3, 5), 5, None),
    (lifted(ex5_to_standard, 4), 2, None),
    (lifted(random_pair, 4), 1, None),
    (bumped_at(2), 5, 2),
    (bumped_at(4), 5, 4),
], ids=["ex2_killing", "pushed_4d", "pushed_6d", "ex5_obstructed",
        "random_pair_obstructed", "bumped_order_2", "bumped_order_4"])
def test_composition_equals_the_fraction_route(fixture, order, fails_at):
    """At each truncation of the map and at both cuts a residual and a
    lift step make, the composition's integer rows over their den equal
    the Fraction route exactly.  The public cr_residual and build_P_k
    equal that route's reading at every index tuple, and where a lower
    order fails (from fails_at on), build_P_k refuses at the order the
    Fraction route shows.  The obstructed towers stop one order below
    their obstruction, whose P_k is the last one read."""
    j_l, j_m, u = fixture()
    assert u.order == order
    n, m = u.dim_in, u.dim_out
    structure_jets = jets._StructureJets(u, j_l, j_m)
    for r in range(1, u.order + 1):
        v = truncate(u, r)
        want = {}
        for top in (r - 1, r):
            den, got = jets._composition(v, structure_jets, top)
            want[top] = cr_polynomial_by_fractions(
                v, structure_jets.m_cols, structure_jets.l_cols, top)
            assert [[{e: Fraction(c, den) for e, c in comp.items()} for comp in r_a]
                    for r_a in got] == want[top]
        assert cr_residual(v, j_l, j_m) == reading(want[r - 1], n, r, 1)
        failing = [k for k in range(1, r + 1) if any(
            poly.low_degree_part(c, k - 1) for r_a in want[r] for c in r_a)]
        assert failing[:1] == ([] if fails_at is None or r < fails_at else [fails_at])
        if failing:
            with pytest.raises(StructureError, match=f"equation at order {failing[0]}$"):
                build_P_k(v, j_l, j_m, verify=False)
        else:
            assert build_P_k(v, j_l, j_m, verify=False) == reading(want[r], n, r + 1, -1)


@pytest.mark.parametrize("fixture, order", [
    (ex2_killing, 4), (pushed_standard_1jet, 4), (ex5_to_standard, 4)])
def test_lift_tower_composes_in_one_integer_pass(monkeypatch, fixture, order):
    """Each step's composition is one poly.jet_cauchy_riemann call: no
    tower, full or obstructed, applies a column field or subtracts
    polynomial vectors, and poly.jet_substitute runs only inside the two
    structure shifts.  Counts, not a timer; direct calls afterwards show
    the spies live."""
    j_l, j_m, u = fixture()
    applied = calls_of(monkeypatch, poly, "jet_apply_columns")
    subtracted = calls_of(monkeypatch, poly, "vec_sub")
    composed = calls_of(monkeypatch, poly, "jet_cauchy_riemann")
    shifting, substituted = [], []
    real_jet, real_substitute = StructureField.jet, poly.jet_substitute

    def jet(self, *args):
        shifting.append(self)
        try:
            return real_jet(self, *args)
        finally:
            shifting.pop()

    def substitute(*args):
        substituted.append(list(shifting))
        return real_substitute(*args)

    monkeypatch.setattr(StructureField, "jet", jet)
    monkeypatch.setattr(poly, "jet_substitute", substitute)
    tower = lift_tower(u, j_l, j_m, k_max=order)
    assert applied == [] and subtracted == []
    assert substituted == [[j_l], [j_m]]
    assert len(composed) == tower.lifted.order - u.order + (not tower.ok)
    x = [poly.var(1, 1)]
    poly.jet_apply_columns([x], [x], 1)
    poly.vec_sub(x, x)
    poly.jet_substitute([x[0]], x, 1, 1)
    assert len(applied) == len(subtracted) == 1 and substituted[-1] == []
