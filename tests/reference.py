"""Reference routes for the tests.

The package reads every derivative at a point off jets
(invariants.jet_differential).  Most functions here take the older road
instead: differentiate the global polynomial fields, then evaluate.  They
share no code with the jet routes beyond the polynomial arithmetic, which
is what makes them useful as oracles.

The rational eliminations as they were before they ran on integer
numerators, one normalized Fraction per row operation (fraction_rref,
FractionEchelon, fraction_det), are the oracles of linalg's fraction-free
kernels.  fraction_rref, which skips zeros when every entry is a Fraction
or a QuadExt over one radicand, is also the oracle of linalg's QuadExt
elimination, which runs over every column.

Then come older forms of routines the package now runs otherwise:
elimination over every column (dense_rref), the antilinearity check one
basis pair at a time, the greedy invariant complement by repeated rank
tests, the arity-4 invariant's R-contraction one entry at a time, and its
bracket expression one orbit at a time by applies on basis vectors
(higher_nijenhuis_bracket_by_apply) and as one contraction sum at every
index tuple (higher_nijenhuis_bracket_full_w).  The antilinear tensors as they were
built before one extension of free data served them all
(structures.linear_nijenhuis_from_free_data and
doubled_nijenhuis_from_free_data) go with them, each evaluated at every
basis pair: the interleaved cases (linear_nijenhuis_by_cases), the
conjugate minors of genpos.appendix_tensor (appendix_tensor_by_minors),
the doubling formula of genpos.example3_tensor (doubling_by_formula) and
the four generating identities of structures.left_invariant_structure
(left_invariant_by_identities).  The polynomial
jet kernels as they were before they summed integer numerators, one
Fraction operation per pair of terms (shift_by_fractions,
jet_mul_by_fractions, jet_apply_columns_by_fractions,
jet_brackets_by_fractions), go with them, and so does the composition as
it was before poly.jet_substitute shared one table of integer monomial
images among several polynomials: one polynomial per call, each image a
chain of Fraction products (jet_substitute_by_fractions).  The torsion
jets as four stages of Fraction polynomials, before poly.jet_torsion
summed them in one integer pass (torsion_jets_by_stages), go with them.

The last ones are the slot-symmetry checks and the Lie bracket as they
were before one sign rule served them all: symmetry by swapping adjacent
slots, the permutation sign by counting cycles, and the bracket from a
table of every ordered basis pair; the Jacobi check by bracketing basis
vectors goes with them.

The global Lie bracket of polynomial vector fields (lie_bracket) and the
composition by repeated products (substitute_by_mul) are the loops the
package replaced by its uncut jet kernels, poly.jet_brackets and
poly.jet_substitute.  The global torsion field built from lie_bracket
(nijenhuis_field_by_lie_brackets) is the oracle for the package's global
field, which is the torsion jet at the origin, and the direct
Froelicher-Nijenhuis bracket of two vector-valued 1-forms
(fn_bracket_one_forms_direct) the oracle for the compatibility torsion,
which the package computes by polarizing the torsion.  These oracles
hold their global fields as a PolyTensorField, one polynomial vector per
index tuple, not as the package's alternating forms.VectorForm: dj_field
is not alternating, and the others are checked entry by entry.

The scalar forms (SForm, polynomials keyed by increasing index tuples)
with wedge, exterior_d, contract_basis and lie_derivative_basis, and the
graded brackets built on them, are the oracles of forms.insertion,
forms.algebraic_bracket and forms.fn_bracket, which add each term of a
pair of pieces straight into its entry: insertion_by_shuffles walks every
shuffle of every index tuple, algebraic_bracket_by_shuffles takes two of
those, and fn_bracket_by_decomposables wedges scalar forms piece by piece.

The symbolic Gram determinant in the sample vector, expanded by cofactors
(_symbolic_alpha_vanishes, _poly_det), decided degeneracy before the exact
grid of genpos._grid; it is that grid's oracle in dimensions 4-6.
The Gram certificate summed from Fraction applies (alpha_N_by_apply) is
the oracle of genpos.alpha_N, which sums it on integer numerators, and
general_position_by_fractions, the per-point Fraction route over the
full box of the grid, is the oracle of the whole general_position_test
report, which runs on N's integer rows over the lower set of that box.

Some small helpers only the tests use live here too: matrix products,
the full solution set of a linear system, a vector form evaluated on
constant vectors or composed with a structure, and a route's tensor
built again with one entry changed (tensor_with_entry), which is how the
cross-check tests corrupt a route.

The canonical jet symbol solved by the dbar homotopy on polynomials
(symmetrize_by_polynomials), with the constant matrices A = J_L(x) and
B = J_M(y) written as constant polynomial columns and the solution
certified as a polynomial identity, is the oracle of jets.symmetrize,
which runs the same homotopy and certificate on integer rows.  The
Cauchy-Riemann composition of a lift step as Fraction polynomials
(cr_polynomial_by_fractions: U from the symbols by slot_polys, its
gradient by poly.diff, J_M(U) by poly.jet_substitute and both products by
poly.jet_apply_columns) is the oracle of poly.jet_cauchy_riemann, which
sums it in one integer pass; slot_entry reads a residual or P_k off it
as the package did before.

digest fingerprints exact outputs, so a test can pin what an earlier
construction returned without keeping that construction.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from nijcalc import jets, linalg, poly, tensor
from nijcalc.forms import VectorForm
from nijcalc.genpos import GenPosReport
from nijcalc.invariants import jet_differential, torsion_jets
from nijcalc.poly import PolyVec
from nijcalc.quadext import QuadExt
from nijcalc.structures import StructureField, standard_matrix
from nijcalc.tensor import (Index, PointTensor, alternating_rep, pair_pattern_rep,
                            symmetric_rep)


def tensor_with_entry(t: PointTensor, idx: Index, change) -> PointTensor:
    """A new tensor: t with the entry at idx, a list of Fractions, replaced
    by change(entry)."""
    return PointTensor(t.dim_in, t.dim_out, t.arity, {**t.entries, idx: change(list(t.entries[idx]))})


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def solve_affine(m, b) -> Optional[Tuple[List[Fraction], List[List[Fraction]]]]:
    """Full solution set of m x = b: (particular, kernel basis), or None."""
    part = linalg.solve(m, b)
    if part is None:
        return None
    return part, linalg.nullspace(m)


def apply_const(form: VectorForm, vectors: Sequence[Sequence[Fraction]]) -> PolyVec:
    """The form on constant vectors, summed over every ordered index tuple."""
    out = poly.vec_zero(form.dim)
    for idx in itertools.permutations(range(form.dim), form.degree):
        coeff = Fraction(1)
        for slot, a in enumerate(idx):
            coeff *= Fraction(vectors[slot][a])
            if coeff == 0:
                break
        if coeff == 0:
            continue
        val = form.value_on_basis(idx)
        if not poly.vec_is_zero(val):
            out = poly.vec_add(out, poly.vec_scale(val, coeff))
    return out


def post_structure(form: VectorForm, j: StructureField) -> VectorForm:
    """J composed after the values, entrywise."""
    return VectorForm(form.dim, form.degree,
                      {idx: poly.apply_columns(j.cols, v)
                       for idx, v in form.entries.items()})


def const_field(dim: int, a: int) -> PolyVec:
    return [poly.const(1, dim) if i == a else poly.zero() for i in range(dim)]


def lie_bracket(x: PolyVec, y: PolyVec, num_vars: int) -> PolyVec:
    """[X, Y]^i = sum_a X^a dY^i/dx_a - Y^a dX^i/dx_a, exact."""
    out: PolyVec = []
    for i in range(len(y)):
        acc: poly.Poly = {}
        for a in range(num_vars):
            acc = poly.add(acc, poly.mul(x[a], poly.diff(y[i], a + 1)))
            acc = poly.sub(acc, poly.mul(y[a], poly.diff(x[i], a + 1)))
        out.append(acc)
    return out


def substitute_by_mul(p: poly.Poly, replacements: Sequence[poly.Poly],
                      out_num_vars: int) -> poly.Poly:
    """Substitute replacements[i] for variable i+1, each monomial's image
    a chain of poly.mul and the images summed by poly.add."""
    if not p:
        return {}
    n = len(next(iter(p)))
    if len(replacements) != n:
        raise poly.PolyError(f"{len(replacements)} replacements for {n} variables")
    out: poly.Poly = {}
    for e, c in p.items():
        term = poly.const(c, out_num_vars)
        for rep, k in zip(replacements, e):
            for _ in range(k):
                term = poly.mul(term, rep)
        out = poly.add(out, term)
    return out


def fn_bracket_one_forms_direct(a_cols: List[PolyVec], b_cols: List[PolyVec],
                                dim: int) -> VectorForm:
    """Independent route for two vector-valued 1-forms K, L:
    [K, L](X, Y) = [KX, LY] - [KY, LX] - L[KX, Y] + L[KY, X]
    - K[LX, Y] + K[LY, X] + (KL + LK)[X, Y], on constant basis fields."""

    entries: Dict[Tuple[int, ...], PolyVec] = {}
    for x in range(dim):
        ex = [poly.const(1, dim) if i == x else poly.zero() for i in range(dim)]
        for y in range(x + 1, dim):
            ey = [poly.const(1, dim) if i == y else poly.zero() for i in range(dim)]
            kx, ky = a_cols[x], a_cols[y]
            lx, ly = b_cols[x], b_cols[y]
            val = lie_bracket(kx, ly, dim)
            val = poly.vec_sub(val, lie_bracket(ky, lx, dim))
            val = poly.vec_sub(val, poly.apply_columns(b_cols, lie_bracket(kx, ey, dim)))
            val = poly.vec_add(val, poly.apply_columns(b_cols, lie_bracket(ky, ex, dim)))
            val = poly.vec_sub(val, poly.apply_columns(a_cols, lie_bracket(lx, ey, dim)))
            val = poly.vec_add(val, poly.apply_columns(a_cols, lie_bracket(ly, ex, dim)))
            # [e_x, e_y] = 0, so the (KL + LK) term drops
            if not poly.vec_is_zero(val):
                entries[(x, y)] = val
    return VectorForm(dim, 2, entries)


SForm = Dict[Tuple[int, ...], poly.Poly]


def sform_accumulate(out: SForm, idx: Sequence[int], p: poly.Poly) -> None:
    if poly.is_zero(p):
        return
    key, sign = alternating_rep(idx)
    if sign == 0:
        return
    q = poly.add(out.get(key, poly.zero()), p if sign > 0 else poly.neg(p))
    if poly.is_zero(q):
        out.pop(key, None)
    else:
        out[key] = q


def wedge(a: SForm, b: SForm) -> SForm:
    out: SForm = {}
    for ia, pa in a.items():
        for ib, pb in b.items():
            sform_accumulate(out, ia + ib, poly.mul(pa, pb))
    return out


def exterior_d(a: SForm, num_vars: int) -> SForm:
    out: SForm = {}
    for idx, p in a.items():
        for v in range(num_vars):
            dp = poly.diff(p, v + 1)
            if not poly.is_zero(dp):
                sform_accumulate(out, (v,) + idx, dp)
    return out


def contract_basis(a: SForm, v: int) -> SForm:
    """Interior product with the constant basis field e_{v+1}."""
    out: SForm = {}
    for idx, p in a.items():
        if v in idx:
            k = idx.index(v)
            rest = idx[:k] + idx[k + 1:]
            sign = (-1) ** k
            sform_accumulate(out, rest, p if sign > 0 else poly.neg(p))
    return out


def lie_derivative_basis(a: SForm, v: int) -> SForm:
    """L_{e_{v+1}} of a form: coefficientwise derivative (Cartan agrees)."""
    out: SForm = {}
    for idx, p in a.items():
        dp = poly.diff(p, v + 1)
        if not poly.is_zero(dp):
            out[idx] = dp
    return out


def insertion_by_shuffles(k_form: VectorForm, l_form: VectorForm) -> VectorForm:
    """i_K L: insert the value of K into the first slot of L over shuffles."""
    dim = k_form.dim
    k, l = k_form.degree, l_form.degree
    deg = k + l - 1
    out: Dict[Tuple[int, ...], PolyVec] = {}
    for idx in itertools.combinations(range(dim), deg):
        acc = poly.vec_zero(dim)
        for positions in itertools.combinations(range(deg), k):
            chosen = tuple(idx[p] for p in positions)
            rest = tuple(idx[p] for p in range(deg) if p not in positions)
            _, sign = alternating_rep(chosen + rest)  # the shuffle sign
            kv = k_form.value_on_basis(chosen)
            for m in range(dim):
                if poly.is_zero(kv[m]):
                    continue
                lv = l_form.value_on_basis((m,) + rest)
                if poly.vec_is_zero(lv):
                    continue
                term = [poly.mul(kv[m], c) for c in lv]
                acc = poly.vec_add(acc, term if sign > 0
                                   else [poly.neg(t) for t in term])
        if not poly.vec_is_zero(acc):
            out[idx] = acc
    return VectorForm(dim, deg, out)


def algebraic_bracket_by_shuffles(a: VectorForm, b: VectorForm) -> VectorForm:
    """[A, B] = i_A B - (-1)^{(a-1)(b-1)} i_B A by insertion_by_shuffles."""
    sign = (-1) ** ((a.degree - 1) * (b.degree - 1))
    iab = insertion_by_shuffles(a, b)
    iba = insertion_by_shuffles(b, a)
    return iab.sub(iba) if sign > 0 else iab.add(iba)


def fn_bracket_by_decomposables(a: VectorForm, b: VectorForm) -> VectorForm:
    """Graded differential bracket, assembled from pieces f dx^I (x) e_i.

    For decomposables with constant vector parts X = e_i, Y = e_k:
    [f (x) X, g (x) Y] = f ^ L_X g (x) Y - L_Y f ^ g (x) X
    + (-1)^p (df ^ i_X g (x) Y + i_Y f ^ dg (x) X), p = deg f.
    """
    dim = a.dim
    deg = a.degree + b.degree
    out: Dict[Tuple[int, ...], PolyVec] = {}

    def accumulate(sf: SForm, comp: int, negate: bool) -> None:
        for idx, p in sf.items():
            if len(idx) != deg:
                continue
            vec = out.get(idx)
            if vec is None:
                vec = poly.vec_zero(dim)
                out[idx] = vec
            vec[comp] = poly.sub(vec[comp], p) if negate else poly.add(vec[comp], p)

    pieces_a, pieces_b = ([(idx, i, vec[i]) for idx, vec in f.entries.items()
                           for i in range(dim) if vec[i]] for f in (a, b))
    p_sign = a.degree % 2 == 1

    for ia, xi, fa in pieces_a:
        fa_form: SForm = {ia: fa}
        dfa = exterior_d(fa_form, dim)
        for ib, yi, gb in pieces_b:
            gb_form: SForm = {ib: gb}
            # f ^ L_X g (x) Y
            t = wedge(fa_form, lie_derivative_basis(gb_form, xi))
            accumulate(t, yi, False)
            # - L_Y f ^ g (x) X
            t = wedge(lie_derivative_basis(fa_form, yi), gb_form)
            accumulate(t, xi, True)
            # (-1)^p df ^ i_X g (x) Y
            t = wedge(dfa, contract_basis(gb_form, xi))
            accumulate(t, yi, p_sign)
            # (-1)^p i_Y f ^ dg (x) X
            t = wedge(contract_basis(fa_form, yi), exterior_d(gb_form, dim))
            accumulate(t, xi, p_sign)

    return VectorForm(dim, deg, out)


class PolyTensorField:
    """Tensor field with polynomial coefficients, stored on basis fields."""

    def __init__(self, dim: int, arity: int, entries: Dict[Index, PolyVec]):
        self.dim = dim
        self.arity = arity
        self.entries = entries

    def at_point(self, point: Sequence) -> PointTensor:
        return PointTensor(self.dim, self.dim, self.arity,
                           {idx: poly.vec_eval(v, point)
                            for idx, v in self.entries.items()})


def nijenhuis_field_by_lie_brackets(j: StructureField) -> PolyTensorField:
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis fields,
    each bracket a global lie_bracket of polynomial fields."""
    dim = j.dim
    entries = {(a, a): poly.vec_zero(dim) for a in range(dim)}
    for a, b in itertools.combinations(range(dim), 2):
        ja, jb = j.cols[a], j.cols[b]
        val = lie_bracket(ja, jb, dim)
        val = poly.vec_sub(val, poly.apply_columns(
            j.cols, lie_bracket(ja, const_field(dim, b), dim)))
        val = poly.vec_sub(val, poly.apply_columns(
            j.cols, lie_bracket(const_field(dim, a), jb, dim)))
        # [ea, eb] = 0 for coordinate fields
        entries[(a, b)] = val
        entries[(b, a)] = [poly.neg(c) for c in val]
    return PolyTensorField(dim, 2, entries)


def structure_as_field(j: StructureField) -> PolyTensorField:
    return PolyTensorField(j.dim, 1, {(a,): col for a, col in enumerate(j.cols)})


def dj_field(j: StructureField) -> PolyTensorField:
    """dj(form slot, derivative slot) with polynomial entries."""
    dim = j.dim
    entries = {(a, b): [poly.diff(j.cols[a][i], b + 1) for i in range(dim)]
               for a in range(dim) for b in range(dim)}
    return PolyTensorField(dim, 2, entries)


def differential(field: PolyTensorField, p: int, point: Sequence) -> PointTensor:
    """d^p of the field at the point: arity grows by p derivative slots
    (last), each entry differentiated globally and then evaluated."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    cache: Dict[Tuple[Index, Tuple[int, ...]], PolyVec] = {}

    def deriv(idx: Index, dirs: Tuple[int, ...]) -> PolyVec:
        key = (idx, tuple(sorted(dirs)))
        if key in cache:
            return cache[key]
        if not dirs:
            out = field.entries[idx]
        else:
            prev = deriv(idx, dirs[:-1])
            out = [poly.diff(c, dirs[-1] + 1) for c in prev]
        cache[key] = out
        return out

    def fn(full: Index):
        base, dirs = full[:field.arity], full[field.arity:]
        return poly.vec_eval(deriv(base, dirs), point)

    return PointTensor.from_function(field.dim, field.dim, field.arity + p, fn)


def apply_poly(field: PolyTensorField, args: Sequence[PolyVec]) -> PolyVec:
    """Tensorial application to polynomial vector fields, summed over the
    index tuples built from the arguments' nonzero components."""
    supports = [[(a, f) for a, f in enumerate(arg) if not poly.is_zero(f)]
                for arg in args]
    out = poly.vec_zero(field.dim)
    for combo in itertools.product(*supports):
        coeff = poly.const(1, field.dim)
        for _, f in combo:
            coeff = poly.mul(coeff, f)
        val = field.entries[tuple(a for a, _ in combo)]
        out = poly.vec_add(out, poly.vec_scale_poly(val, coeff))
    return out


def nijenhuis_field_first_differential(j: StructureField) -> PolyTensorField:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX) on basis
    fields, as polynomials."""
    dim = j.dim
    dj = dj_field(j)
    entries: Dict[Index, PolyVec] = {}
    for a in range(dim):
        entries[(a, a)] = poly.vec_zero(dim)
    for a in range(dim):
        ea = const_field(dim, a)
        ja = j.cols[a]
        for b in range(a + 1, dim):
            eb = const_field(dim, b)
            jb = j.cols[b]
            val = [poly.neg(c) for c in apply_poly(dj, [ja, eb])]
            val = poly.vec_sub(val, apply_poly(dj, [ea, jb]))
            val = poly.vec_add(val, apply_poly(dj, [jb, ea]))
            val = poly.vec_add(val, apply_poly(dj, [eb, ja]))
            entries[(a, b)] = val
            entries[(b, a)] = [poly.neg(c) for c in val]
    return PolyTensorField(dim, 2, entries)


def higher_nijenhuis_by_entries(j: StructureField, point: Sequence) -> PointTensor:
    """The arity-4 invariant R(x, y, N(z, v)) - R(z, v, N(x, y)), where
    R(x, y, z) = dN(x, y, Jz) + J dN(x, y, z) + N(dj(z, x), y)
    + N(x, dj(z, y)) - dj(z, N(x, y)), one apply per term and entry:
    R on every basis triple, then every basis 4-tuple.  J, dj, N and dN
    come from the global fields, differentiated and then evaluated."""
    dim = j.dim
    pt = [Fraction(x) for x in point]
    j_at = j.at_point(pt)
    dj = differential(structure_as_field(j), 1, pt)
    n_field = nijenhuis_field_by_lie_brackets(j)
    n_pt, dn = n_field.at_point(pt), differential(n_field, 1, pt)
    basis = linalg.identity(dim)

    def jmul(x):
        return j_at.apply([x])

    def r_basis(idx: Index):
        ea, eb, ec = (basis[k] for k in idx)
        out = dn.apply([ea, eb, jmul(ec)])
        out = linalg.vec_add(out, jmul(dn.apply([ea, eb, ec])))
        out = linalg.vec_add(out, n_pt.apply([dj.apply([ec, ea]), eb]))
        out = linalg.vec_add(out, n_pt.apply([ea, dj.apply([ec, eb])]))
        return linalg.vec_sub(out, dj.apply([ec, n_pt.apply([ea, eb])]))

    r_pt = PointTensor.from_function(dim, dim, 3, r_basis)

    def fn(idx: Index):
        a, b, c, d = idx
        return linalg.vec_sub(
            r_pt.apply([basis[a], basis[b], n_pt.entries[(c, d)]]),
            r_pt.apply([basis[c], basis[d], n_pt.entries[(a, b)]]))

    return PointTensor.from_function(dim, dim, 4, fn)


def higher_nijenhuis_bracket_by_apply(j: StructureField, point: Sequence) -> PointTensor:
    """The ten-term bracket expression one pair-pattern orbit at a time,
    sixteen applies on basis vectors per representative, the rest filled
    by sign: [F, G](p) = DG(p) F(p) - DF(p) G(p) for the pair fields
    F, G among N(e_a, e_b) and J N(e_a, e_b), and [e_a, F](p) the
    derivative of F in direction a.  The fields' values and derivatives
    at the point are read off their 1-jets, as the package reads them."""
    dim = j.dim
    jet = j.jet(point, 2)
    n_jets = torsion_jets(jet, 1)
    n_field = VectorForm(dim, 2, n_jets)
    jn_field = VectorForm(dim, 2, dict(zip(n_jets, poly.jet_apply_columns(
        jet, list(n_jets.values()), 1))))
    j_at = jet_differential(VectorForm.from_columns(jet), 0)
    n_at, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    jn_at, djn = jet_differential(jn_field, 0), jet_differential(jn_field, 1)
    basis = linalg.identity(dim)

    def napp(x, y):
        return n_at.apply([x, y])

    def jmul(x):
        return j_at.apply([x])

    def fn(idx: Index):
        a, b, c, d = idx
        ea, eb, ec, ed = (basis[k] for k in idx)
        u_ab, u_cd = n_at.entries[(a, b)], n_at.entries[(c, d)]
        w_ab, w_cd = jn_at.entries[(a, b)], jn_at.entries[(c, d)]
        t1 = linalg.vec_sub(djn.apply([ec, ed, u_ab]), dn.apply([ea, eb, w_cd]))
        t2 = linalg.vec_sub(dn.apply([ec, ed, w_ab]), djn.apply([ea, eb, u_cd]))
        out = [-x - y for x, y in zip(t1, t2)]
        out = linalg.vec_add(out, napp(djn.entries[(c, d, a)], eb))
        out = linalg.vec_add(out, napp(ea, djn.entries[(c, d, b)]))
        out = linalg.vec_add(out, jmul(napp(dn.entries[(c, d, a)], eb)))
        out = linalg.vec_add(out, jmul(napp(ea, dn.entries[(c, d, b)])))
        out = linalg.vec_sub(out, napp(djn.entries[(a, b, c)], ed))
        out = linalg.vec_sub(out, napp(ec, djn.entries[(a, b, d)]))
        out = linalg.vec_sub(out, jmul(napp(dn.entries[(a, b, c)], ed)))
        out = linalg.vec_sub(out, jmul(napp(ec, dn.entries[(a, b, d)])))
        return out

    return PointTensor.from_orbits(dim, dim, 4, pair_pattern_rep, fn)


def higher_nijenhuis_bracket_full_w(j: StructureField, point: Sequence) -> PointTensor:
    """The ten-term bracket route as it was before it summed W only where
    both pairs are sorted: W is one contraction sum of six terms at every
    index tuple, on dN, dJN, N and JN read at every tuple, and H one sum
    of two over W, W - W(c, d, a, b), again at every tuple."""
    dim = j.dim
    jet = j.jet(point, 2)
    n_jets = torsion_jets(jet, 1)
    n_field = VectorForm(dim, 2, n_jets)
    jn_field = VectorForm(dim, 2, dict(zip(n_jets, poly.jet_apply_columns(
        jet, list(n_jets.values()), 1))))
    n_at, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    jn_at, djn = jet_differential(jn_field, 0), jet_differential(jn_field, 1)
    w = tensor.contraction_sum(dim, dim, 4, [
        (1, dn, jn_at, 2, None), (1, djn, n_at, 2, None),
        (1, n_at, djn, 0, (2, 3, 0, 1)), (1, jn_at, dn, 0, (2, 3, 0, 1)),
        (1, n_at, djn, 1, (0, 2, 3, 1)), (1, jn_at, dn, 1, (0, 2, 3, 1))])
    return tensor.contraction_sum(dim, dim, 4, [(1, None, w, None, None),
                                                (-1, None, w, None, (2, 3, 0, 1))])


def shift_by_fractions(p: poly.Poly, point: Sequence, order: int) -> poly.Poly:
    """p(point + y) cut above total degree order, each monomial expanded
    binomially over Fractions, one variable at a time, with every partial
    product and every sum a Fraction operation."""
    if not p:
        return {}
    pt = [Fraction(v) for v in point]
    out: poly.Poly = {}
    for e, c in p.items():
        partial = [((), 0, c)]
        for x, k in zip(pt, e):
            nxt = []
            for head, deg, coeff in partial:
                # (x + y)^k = sum_s C(k, s) x^(k - s) y^s
                for s in range(k if x == 0 else 0, min(k, order - deg) + 1):
                    nxt.append((head + (s,), deg + s,
                                coeff * math.comb(k, s) * x ** (k - s)))
            partial = nxt
        for head, _, coeff in partial:
            total = out.get(head, Fraction(0)) + coeff
            if total:
                out[head] = total
            else:
                out.pop(head, None)
    return out


def jet_mul_by_fractions(p: poly.Poly, q: poly.Poly, order: int) -> poly.Poly:
    """p q cut above total degree order, one Fraction multiplication and
    one Fraction addition per pair of terms."""
    out: poly.Poly = {}
    q_terms = [(e, c, sum(e)) for e, c in q.items()]
    for e1, c1 in p.items():
        room = order - sum(e1)
        if room < 0:
            continue
        for e2, c2, d2 in q_terms:
            if d2 > room:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def jet_substitute_by_fractions(p: poly.Poly, subs: Sequence[poly.Poly],
                                out_num_vars: int, order) -> poly.Poly:
    """p with subs[i] for variable i+1, cut above total degree order, one
    polynomial per call: the image of each monomial is the image one
    degree lower times one substitution (jet_mul_by_fractions), cached
    within the call, and the images are summed one Fraction operation per
    term, a zero sum popped.  A monomial above the cut is skipped unless a
    substitution has a constant term."""
    if not p:
        return {}
    n = len(next(iter(p)))
    if len(subs) != n:
        raise poly.PolyError(f"{len(subs)} substitutions for {n} variables")
    images: Dict[Tuple[int, ...], poly.Poly] = {(0,) * n: poly.const(1, out_num_vars)}

    def image(e):
        if e not in images:
            i = max(a for a, k in enumerate(e) if k)
            lower = e[:i] + (e[i] - 1,) + e[i + 1:]
            images[e] = jet_mul_by_fractions(image(lower), subs[i], order)
        return images[e]

    top = math.inf if any(poly.constant_term(s) for s in subs) else order
    out: poly.Poly = {}
    for e, c in p.items():
        if sum(e) > top:
            continue
        for e2, c2 in image(e).items():
            s = out.get(e2, Fraction(0)) + c * c2
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
    return out


def jet_apply_columns_by_fractions(cols: Sequence[PolyVec], x: PolyVec,
                                   order: int) -> PolyVec:
    """sum_k x[k] cols[k] cut above degree order, as a chain of vec_adds
    of per-column Fraction products."""
    out = poly.vec_zero(len(cols[0]))
    for col, c in zip(cols, x):
        if c:
            out = poly.vec_add(out, [jet_mul_by_fractions(e, c, order) for e in col])
    return out


def jet_brackets_by_fractions(fields: Sequence[PolyVec],
                              pairs: Sequence[Tuple[int, int]],
                              order: int) -> List[PolyVec]:
    """[fields[i], fields[k]] cut above degree order, one Fraction
    multiplication and one Fraction addition per pair of terms."""
    def low_terms(f: PolyVec):
        return [[(e, c, sum(e)) for e, c in comp.items() if sum(e) <= order]
                for comp in f]

    def partials(f: PolyVec):
        # partials(f)[i][a]: terms of d_a f^i of degree <= order
        table = [[[] for _ in range(len(f))] for _ in f]
        for row, comp in zip(table, f):
            for e, c in comp.items():
                deg = sum(e) - 1
                if deg > order:
                    continue
                for a, k in enumerate(e):
                    if k:
                        row[a].append((e[:a] + (k - 1,) + e[a + 1:], c * k, deg))
        return table

    prepared = {i: (low_terms(fields[i]), partials(fields[i]))
                for i in {i for pair in pairs for i in pair}}
    out: List[PolyVec] = []
    for i, k in pairs:
        (x_low, dx), (y_low, dy) = prepared[i], prepared[k]
        bracket: PolyVec = []
        for r in range(len(dy)):
            acc: Dict[poly.Exponent, Fraction] = {}
            for a in range(len(x_low)):
                for terms, dterms, plus in ((x_low[a], dy[r][a], True),
                                            (y_low[a], dx[r][a], False)):
                    for e1, c1, d1 in terms:
                        for e2, c2, d2 in dterms:
                            if d1 + d2 <= order:
                                e = tuple(u + v for u, v in zip(e1, e2))
                                t = c1 * c2
                                acc[e] = acc.get(e, Fraction(0)) + (t if plus else -t)
            bracket.append({e: c for e, c in acc.items() if c})
        out.append(bracket)
    return out


def torsion_jets_by_stages(jet: List[PolyVec], order: int) -> Dict[Index, PolyVec]:
    """invariants.torsion_jets as it was before poly.jet_torsion summed it
    in one pass: four stages, each a list of Fraction polynomials the next
    reads, namely w = d_b(J e_a) - d_a(J e_b) by poly.diff and vec_sub, the
    brackets [J e_a, J e_b] (poly.jet_brackets), J w
    (poly.jet_apply_columns) and their sum (vec_add)."""
    pairs = list(itertools.combinations(range(len(jet)), 2))
    ws = [poly.vec_sub([poly.diff(c, b + 1) for c in jet[a]],
                       [poly.diff(c, a + 1) for c in jet[b]]) for a, b in pairs]
    return {pair: poly.vec_add(val, jw) for pair, val, jw in zip(
        pairs, poly.jet_brackets(jet, pairs, order),
        poly.jet_apply_columns(jet, ws, order))}


def _one_type(m) -> bool:
    """Whether every entry is a Fraction, or every entry a QuadExt over one
    radicand: field operations then keep that type, so zeros can be skipped."""
    kind = type(m[0][0])
    if kind is Fraction:
        return all(type(x) is Fraction for row in m for x in row)
    if kind is QuadExt:
        d = m[0][0].d
        return all(type(x) is QuadExt and x.d == d for row in m for x in row)
    return False


def fraction_rref(m):
    """Reduced row echelon form and the pivot column list, over Fractions."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sparse = rows > 0 and cols > 0 and _one_type(a)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        inv = prow[c]
        # rows r.. vanish left of c, so a sparse support starts at c
        support = ([k for k in range(c, cols) if prow[k] != 0] if sparse
                   else range(cols))
        for k in support:
            prow[k] = prow[k] / inv
        for i in range(rows):
            row = a[i]
            if i != r and row[c] != 0:
                f = row[c]
                for k in support:
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
    return a, pivots


class FractionEchelon:
    """Reduced rows of a growing span, each stored by its support with a
    1 at its pivot column, reduced over Fractions."""

    def __init__(self, vectors=()):
        self.rows: List[Tuple[int, list]] = []  # (pivot, [(column, value)])
        for v in vectors:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v):
        """The remainder of v after eliminating every pivot column."""
        out = list(v)
        for p, support in self.rows:
            f = out[p]
            if f != 0:
                for k, y in support:
                    out[k] = out[k] - f * y
        return out

    def contains(self, v) -> bool:
        return linalg.vec_is_zero(self.reduce(v))

    def insert(self, v):
        """Add v to the span and return the pivot value its remainder is
        divided by, or 0 when v already lay there."""
        rem = self.reduce(v)
        p = next((k for k, x in enumerate(rem) if x != 0), None)
        if p is None:
            return 0
        inv = rem[p]
        self.rows.append((p, [(k, x / inv) for k, x in enumerate(rem) if x != 0]))
        return inv


def fraction_det(m):
    """The product of FractionEchelon's pivots, signed by the permutation
    taking row i to its pivot column."""
    span = FractionEchelon()
    result = Fraction(1)
    for row in m:
        pivot = span.insert(row)
        if not pivot:
            return Fraction(0) * result  # keeps the field type when exotic
        result = result * pivot
    pivots = [p for p, _ in span.rows]
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return -result if inversions % 2 else result


def dense_rref(m):
    """Reduced row echelon form, every row operation over every column."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def membership_violation_by_pairs(n_tensor: PointTensor, j_map: PointTensor):
    """First (a, b, label) where N(j a, b) = N(a, j b) = -j N(a, b) fails."""
    dim = n_tensor.dim_in
    jm = j_map.to_matrix()
    for a in range(dim):
        for b in range(dim):
            ea = linalg.basis_vector(dim, a)
            eb = linalg.basis_vector(dim, b)
            ja = [jm[i][a] for i in range(dim)]
            jb = [jm[i][b] for i in range(dim)]
            base = n_tensor.apply([ea, eb])
            minus_j_base = [-x for x in linalg.mat_vec(jm, base)]
            if n_tensor.apply([ja, eb]) != minus_j_base:
                return (a, b, "N(j a, b)")
            if n_tensor.apply([ea, jb]) != minus_j_base:
                return (a, b, "N(a, j b)")
    return None


def linear_nijenhuis_by_cases(n: int, free: Dict[Tuple[int, int], List[Fraction]]) -> PointTensor:
    """Assemble the full tensor from values on odd-odd pairs (s < t, 0-based)."""
    dim = 2 * n
    zero = [Fraction(0)] * dim
    minus_j0 = PointTensor.from_matrix(standard_matrix(n)).neg()
    # -j0 c, the value on both mixed pairs (e_{2s}, e_{2t+1}) and (e_{2s+1}, e_{2t})
    mixed = {st: minus_j0.apply([c]) for st, c in free.items()}

    def value(idx: Tuple[int, int]) -> List[Fraction]:
        """N(e_a, e_b) for a < b."""
        a, b = idx
        s, sa = a // 2, a % 2
        t, tb = b // 2, b % 2
        if s == t:
            return zero  # complex line: N(e, j0 e) = 0
        c = free.get((s, t), zero)
        if sa == 0 and tb == 0:
            return c
        if sa != tb:
            return mixed.get((s, t), zero)
        return [-x for x in c]

    return PointTensor.from_orbits(dim, dim, 2, alternating_rep, value)


def appendix_tensor_by_minors(n: int) -> PointTensor:
    """The dense tensor with complex components zbar_1 wbar_k - zbar_k wbar_1,
    the conjugate 2x2 minors computed at every basis pair."""
    dim = 2 * n

    def conj_slot(u, k):
        # complex slot k, 1-based: (re, -im)
        return (u[2 * k - 2], -u[2 * k - 1])

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def fn(idx):
        u = linalg.basis_vector(dim, idx[0])
        v = linalg.basis_vector(dim, idx[1])
        out = [Fraction(0)] * dim
        for k in range(2, n + 1):
            first = cmul(conj_slot(u, 1), conj_slot(v, k))
            second = cmul(conj_slot(u, k), conj_slot(v, 1))
            out[2 * k - 2] = first[0] - second[0]
            out[2 * k - 1] = first[1] - second[1]
        return out

    return PointTensor.from_orbits(dim, dim, 2, alternating_rep, fn)


def doubling_by_formula(a_tensor: PointTensor) -> PointTensor:
    """The doubling [A(x1,x2) - A(y1,y2)] (+) [-A(x1,y2) - A(y1,x2)] of an
    antisymmetric A on R^n, four applies of A at every basis pair."""
    n = a_tensor.dim_in
    dim = 2 * n

    def split(v):
        return v[:n], v[n:]

    def n_fn(idx):
        x1, y1 = split(linalg.basis_vector(dim, idx[0]))
        x2, y2 = split(linalg.basis_vector(dim, idx[1]))
        first = [p - q for p, q in zip(a_tensor.apply([x1, x2]),
                                       a_tensor.apply([y1, y2]))]
        second = [-p - q for p, q in zip(a_tensor.apply([x1, y2]),
                                         a_tensor.apply([y1, x2]))]
        return first + second

    return PointTensor.from_orbits(dim, dim, 2, alternating_rep, n_fn)


def left_invariant_by_identities(g) -> PointTensor:
    """The doubled group's tensor at the identity from the four generating
    identities, case by case on the blocks of each basis pair:
      N((xi,0),(eta,0)) = (-[xi,eta], [xi,eta])
      N((0,xi),(0,eta)) = ([xi,eta], -[xi,eta])
      N((xi,0),(0,eta)) = N((0,xi),(eta,0)) = ([xi,eta], [xi,eta])
    """
    n = g.dim
    dim = 2 * n

    def fn(idx):
        a, b = idx
        xa, ba = a % n, a // n
        xb, bb = b % n, b // n
        br = g.tensor.entries[(xa, xb)]
        if ba == 0 and bb == 0:
            first, second = [-x for x in br], br
        elif ba == 1 and bb == 1:
            first, second = br, [-x for x in br]
        else:
            first, second = br, br
        return [*first, *second]

    return PointTensor.from_orbits(dim, dim, 2, alternating_rep, fn)


def _poly_det(m: List[List[poly.Poly]], num_vars: int) -> poly.Poly:
    """Determinant of a polynomial matrix by minor expansion with memo."""
    size = len(m)
    memo: Dict[Tuple[int, Tuple[int, ...]], poly.Poly] = {}

    def minor(row: int, cols: Tuple[int, ...]) -> poly.Poly:
        if row == size:
            return poly.const(1, num_vars)
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = poly.zero()
        for pos, c in enumerate(cols):
            if poly.is_zero(m[row][c]):
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = poly.mul(m[row][c], minor(row + 1, rest))
            acc = poly.add(acc, term) if pos % 2 == 0 else poly.sub(acc, term)
        memo[key] = acc
        return acc

    return minor(0, tuple(range(size)))


def _symbolic_alpha_vanishes(n_tensor: PointTensor,
                             jm: Sequence[Sequence]) -> bool:
    """Whether the Gram certificate vanishes identically in the sample vector.

    Uses the invariant complement of the first complex line as the fixed
    hyperplane; identical vanishing there means nu > 2 off a measure-zero
    set, which settles degeneracy.
    """
    dim = n_tensor.dim_in
    basis = greedy_complement(jm, linalg.basis_vector(dim, 0))
    # the columns sum_a x_a N(e_a, v), v in the basis, and their Gram
    # matrix, by the uncut jet kernels, which skip the many zero entries
    h = [poly.var(a + 1, dim) for a in range(dim)]
    columns = [poly.jet_apply_columns([[poly.const(c, dim) for c in n_tensor.apply(
        [linalg.basis_vector(dim, a), v])] for a in range(dim)], [h], math.inf)[0]
        for v in basis]
    gram = poly.jet_apply_columns([[u[i] for u in columns] for i in range(dim)],
                                  columns, math.inf)
    return poly.is_zero(_poly_det(gram, dim))


def alpha_N_by_apply(n_tensor: PointTensor, xi, pi_basis) -> Fraction:
    """The Gram determinant of N(xi, v), v in the basis, one Fraction apply
    and one Fraction product at a time."""
    images = [n_tensor.apply([xi, v]) for v in pi_basis]
    gram = [[sum((x * y for x, y in zip(u, w)), Fraction(0)) for w in images]
            for u in images]
    return fraction_det(gram) if gram else Fraction(1)


def greedy_complement(jm, xi):
    """e_a and j e_a for each e_a outside the span picked so far, which
    starts as the complex line of xi."""
    dim = len(jm)
    acc = [list(xi), linalg.mat_vec(jm, xi)]
    picked = []
    for a in range(dim):
        e_a = linalg.basis_vector(dim, a)
        if len(dense_rref(acc)[1]) == len(dense_rref(acc + [e_a])[1]):
            continue
        j_e = linalg.mat_vec(jm, e_a)
        picked.extend([e_a, j_e])
        acc.extend([e_a, j_e])
    return picked


def general_position_by_fractions(n_tensor: PointTensor, sample_count: int, seed: int,
                                  jm: Sequence[Sequence]) -> GenPosReport:
    """general_position_test one point at a time on Fractions, over the
    full box of the grid: the samples, then every t with t_k <= d_k.  At
    each point nu is read off the dense rref of the columns N(xi, e_k), taken
    by apply, and the certificate is the Gram determinant of Fraction
    applies over the greedy complement of the complex line of xi."""
    dim = n_tensor.dim_in
    e = [linalg.basis_vector(dim, k) for k in range(dim)]

    def examine(xi):
        nu = dim - len(dense_rref([n_tensor.apply([xi, ek]) for ek in e])[1])
        cert = alpha_N_by_apply(n_tensor, xi, greedy_complement(jm, xi))
        assert (nu == 2) == (cert > 0), f"nu = {nu} with certificate {cert} at {xi}"
        return nu, cert

    rng, degeneracy = random.Random(seed), []
    while len(degeneracy) < sample_count:
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if any(xi):
            nu, cert = examine(xi)
            if nu == 2:
                return GenPosReport("general_position", len(degeneracy) + 1, xi, degeneracy, cert)
            degeneracy.append(xi)
    picks = [v.index(1) for v in greedy_complement(jm, e[0])[0::2]]
    degrees = [min(len(picks), sum(1 for b in picks if any(n_tensor.entries[(a, b)])))
               for a in picks]
    for t in itertools.product(*(range(d + 1) for d in degrees)):
        coords = {0: 1, **dict(zip(picks, t))}
        xi = [Fraction(coords.get(a, 0)) for a in range(dim)]
        nu, cert = examine(xi)
        if nu == 2:
            return GenPosReport("general_position", len(degeneracy), xi, degeneracy, cert)
    return GenPosReport("degenerate", len(degeneracy), None, degeneracy)


def permutation_sign(idx: Sequence[int]) -> int:
    """Sign of the permutation sorting idx, from its cycle lengths; 0 on a
    repeated index."""
    if len(set(idx)) < len(idx):
        return 0
    order = sorted(range(len(idx)), key=lambda k: idx[k])
    sign, seen = 1, set()
    for start in range(len(order)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = order[k]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


def is_fully_symmetric_by_swaps(t: PointTensor) -> bool:
    return all(t.is_symmetric_in(s, s + 1) for s in range(t.arity - 1))


def is_alternating_by_swaps(t: PointTensor) -> bool:
    return all(t.is_antisymmetric_in(s, s + 1) for s in range(t.arity - 1))


def has_pair_pattern_by_swaps(t: PointTensor) -> bool:
    """Antisymmetric in slots (0,1) and (2,3), and T(a,b,c,d) = -T(c,d,a,b)."""
    if not (t.is_antisymmetric_in(0, 1) and t.is_antisymmetric_in(2, 3)):
        return False
    return all(x == -y for (a, b, c, d), v in t.entries.items()
               for x, y in zip(v, t.entries[(c, d, a, b)]))


def lie_bracket_by_table(dim: int, constants, x: Sequence, y: Sequence):
    """[x, y] from the constants of [e_i, e_j], filled into a table of every
    ordered pair i != j (a reversed key gives the negative)."""
    table = {}
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            if (i, j) in constants:
                table[(i, j)] = [Fraction(c) for c in constants[(i, j)]]
            elif (j, i) in constants:
                table[(i, j)] = [-Fraction(c) for c in constants[(j, i)]]
            else:
                table[(i, j)] = [Fraction(0)] * dim
    out = [Fraction(0)] * dim
    for i in range(dim):
        for j in range(dim):
            if x[i] == 0 or y[j] == 0 or i == j:
                continue
            f = Fraction(x[i]) * Fraction(y[j])
            for k in range(dim):
                out[k] += f * table[(i, j)][k]
    return out


def jacobi_violation_by_basis(g) -> Optional[Tuple[int, int, int]]:
    """First basis triple a < b < c where [x, [y, z]] summed over the
    cyclic shifts is nonzero, bracketing basis vectors with g.bracket."""
    basis = linalg.identity(g.dim)
    for a, b, c in itertools.combinations(range(g.dim), 3):
        total = [Fraction(0)] * g.dim
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = g.bracket(basis[y], basis[z])
            total = linalg.vec_add(total, g.bracket(basis[x], inner))
        if not linalg.vec_is_zero(total):
            return (a, b, c)
    return None


def digest(value) -> str:
    """First 16 hex digits of the SHA-256 of the value's repr, with each
    PointTensor as (dim_in, dim_out, arity, sorted entries), each entry a
    list: it tells a Fraction from an int as well as one value from
    another."""
    def plain(x):
        if isinstance(x, PointTensor):
            return (x.dim_in, x.dim_out, x.arity,
                    sorted((idx, list(v)) for idx, v in x.entries.items()))
        if isinstance(x, list):
            return [plain(y) for y in x]
        return x
    return hashlib.sha256(repr(plain(value)).encode()).hexdigest()[:16]


def slot_polys(t: PointTensor, head: Index) -> PolyVec:
    """t(e_head, h, ..., h)/(arity - len(head))! for t symmetric in the
    slots after head: the coefficient of h^alpha is the entry at head plus
    the sorted tuple with multiplicities alpha, over alpha!."""
    n = t.dim_in
    out: PolyVec = [{} for _ in range(t.dim_out)]
    for rest in itertools.combinations_with_replacement(range(n), t.arity - len(head)):
        alpha = tuple(rest.count(b) for b in range(n))
        w = math.prod(map(math.factorial, alpha))
        for comp, c in zip(out, t.entries[head + rest]):
            if c:
                comp[alpha] = c / w
    return out


def slot_entry(polys: PolyVec, rest: Index, n: int, sign: int = 1) -> List[Fraction]:
    """The inverse of slot_polys at one sorted tuple rest: alpha! times the
    coefficient of h^alpha in each component, alpha the multiplicities of
    rest, times sign."""
    alpha = tuple(rest.count(b) for b in range(n))
    w = sign * math.prod(map(math.factorial, alpha))
    return [w * c.get(alpha, 0) for c in polys]


def gradient(v: PolyVec, n: int) -> List[PolyVec]:
    """The columns d_b v of Dv, b < n."""
    return [[poly.diff(c, b + 1) for c in v] for b in range(n)]


def taylor_map(u: jets.TruncatedMap) -> PolyVec:
    """U(h) = u(x + h) - y: the sum of the slot_polys of the symbols."""
    out: PolyVec = [{} for _ in range(u.dim_out)]
    for s in u.symbols:
        for comp, part in zip(out, slot_polys(s.tensor, ())):
            comp.update(part)
    return out


def cr_polynomial_by_fractions(u: jets.TruncatedMap, m_cols: Sequence[PolyVec],
                               l_cols: Sequence[PolyVec], top: int) -> List[PolyVec]:
    """R_a(h) = J_M(y + U(h)) d_a U - sum_b J_L[b][a](x + h) d_b U for each
    basis direction a, cut above degree top, U = taylor_map(u), from the
    columns of the structures' jets at the base points, as Fraction
    polynomials: J_M's entries through one poly.jet_substitute call, the
    two products by poly.jet_apply_columns and their difference by
    poly.vec_sub."""
    n = u.dim_in
    big_u = taylor_map(u)
    d_u = gradient(big_u, n)
    m_flat = poly.jet_substitute([p for col in m_cols for p in col], big_u, n, top)
    m_at_u = [m_flat[c * u.dim_out:(c + 1) * u.dim_out] for c in range(len(m_cols))]
    return [poly.vec_sub(m_part, l_part) for m_part, l_part in zip(
        poly.jet_apply_columns(m_at_u, d_u, top), poly.jet_apply_columns(d_u, l_cols, top))]


def symmetrize_by_polynomials(p_k: PointTensor, j_l_at: PointTensor,
                              j_m_at: PointTensor) -> jets.JetSymbol:
    """jets.symmetrize with Q_a, g and u as polynomial vectors: every
    product by A or B, and every application of T v = -B Dv(h)[A h], is a
    poly.jet_apply_columns call on constant polynomial columns.  The symbol
    is certified by B d_a u - sum_b A[b][a] d_b u = Q_a as polynomials, u
    read back from it; a failure raises what jets._fail_with_witness
    raises."""
    jets._check_defect_shapes(p_k, j_l_at, j_m_at)
    if not p_k.respects(jets._trailing_rep):
        jets._fail_with_witness(p_k, j_l_at, j_m_at)
    k, n = p_k.arity, p_k.dim_in
    q = [slot_polys(p_k, (a,)) for a in range(n)]

    def apply(cols: Sequence[PolyVec], xs: Sequence[PolyVec]) -> List[PolyVec]:
        return poly.jet_apply_columns(cols, xs, math.inf)

    def columns(m: PointTensor, c) -> List[PolyVec]:
        """c m as constant polynomial columns."""
        return [[poly.const(c * x, n) for x in m.entries[(b,)]]
                for b in range(m.dim_in)]

    a_cols, b_cols = columns(j_l_at, 1), columns(j_m_at, 1)
    minus_b, half_b = columns(j_m_at, -1), columns(j_m_at, Fraction(-1, 2))
    h = [poly.var(b + 1, n) for b in range(n)]
    [a_h] = apply(a_cols, [h])

    def t_op(v: PolyVec) -> PolyVec:
        """T v = -B Dv(h)[A h]: p - q on the type-(p, q) part."""
        return apply(minus_b, apply(gradient(v, n), [a_h]))[0]

    [g] = apply(apply(half_b, q), [h])
    # pi in Newton form on the nodes k - 2, k - 4, .., -k
    u = poly.vec_scale(g, Fraction(1, 2 ** (k - 1) * math.factorial(k)))
    for j in range(k - 2, -1, -1):
        u = poly.vec_add(poly.vec_sub(t_op(u), poly.vec_scale(u, k - 2 * j - 2)),
                         poly.vec_scale(g, Fraction(1, 2 ** j * math.factorial(j + 1))))

    phi = PointTensor.from_orbits(
        n, p_k.dim_out, k, symmetric_rep, lambda rep: slot_entry(u, rep, n))
    du = gradient(slot_polys(phi, ()), n)
    if list(map(poly.vec_sub, apply(b_cols, du), apply(du, a_cols))) != q:
        jets._fail_with_witness(p_k, j_l_at, j_m_at)
    return jets.JetSymbol(k, phi)
