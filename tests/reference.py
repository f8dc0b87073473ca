"""Reference routes for the tests.

The package reads every derivative at a point off jets
(invariants.jet_differential).  Most functions here take the older road
instead: differentiate the global polynomial fields, then evaluate.  They
share no code with the jet routes beyond the polynomial arithmetic, which
is what makes them useful as oracles.

The rational eliminations as they were before they ran on integer
numerators, one normalized Fraction per row operation (fraction_rref,
FractionEchelon, fraction_det), are the oracles of linalg's fraction-free
kernels.

Then come the dense forms of routines the package now runs sparsely:
elimination over every column, the antilinearity check one basis pair at
a time, the greedy invariant complement by repeated rank tests, the
arity-4 invariant's R-contraction one entry at a time, and its bracket
expression one orbit at a time by applies on basis vectors
(higher_nijenhuis_bracket_by_apply).  The polynomial
jet kernels as they were before they summed integer numerators, one
Fraction operation per pair of terms (shift_by_fractions,
jet_mul_by_fractions, jet_apply_columns_by_fractions,
jet_brackets_by_fractions), go with them.

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

The symbolic Gram determinant in the sample vector, expanded by cofactors
(_symbolic_alpha_vanishes, _poly_det), decided degeneracy before the exact
grid of genpos._grid; it is that grid's oracle in dimensions 4-6.
The Gram certificate summed from Fraction applies (alpha_N_by_apply) is
the oracle of genpos.alpha_N, which sums it on integer numerators.

Some small helpers only the tests use live here too: matrix products,
the full solution set of a linear system, and a vector form evaluated on
constant vectors or composed with a structure.

digest fingerprints exact outputs, so a test can pin what an earlier
construction returned without keeping that construction.
"""

import hashlib
import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from nijcalc import linalg, poly
from nijcalc.forms import VectorForm
from nijcalc.genpos import _complex_complement
from nijcalc.invariants import jet_differential, torsion_jets
from nijcalc.poly import PolyVec
from nijcalc.quadext import QuadExt
from nijcalc.structures import StructureField
from nijcalc.tensor import Index, PointTensor, pair_pattern_rep


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
    basis = _complex_complement(jm, linalg.basis_vector(dim, 0))
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
    PointTensor as (dim_in, dim_out, arity, sorted entries): it tells a
    Fraction from an int as well as one value from another."""
    def plain(x):
        if isinstance(x, PointTensor):
            return (x.dim_in, x.dim_out, x.arity, sorted(x.entries.items()))
        if isinstance(x, list):
            return [plain(y) for y in x]
        return x
    return hashlib.sha256(repr(plain(value)).encode()).hexdigest()[:16]
