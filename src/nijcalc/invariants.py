"""Torsion invariants of structure fields, each by two independent routes.

The chart carries the flat connection, so differentials of tensor fields
are plain iterated partial derivatives: form slots first, derivative
slots last.  The torsion tensor is computed both from vector-field
brackets and from the first differential of the structure; the arity-4
invariant both from the ten-term bracket expression and from the
R-contraction of the torsion differential.  Disagreement between routes
is an internal error, never silently resolved.

At a point, both torsion routes read only the 1-jet of J there
(StructureField.jet); torsion_jets expands the torsion fields around a
point to any order from the next jet of J, for callers that need their
derivatives too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, poly
from .poly import Poly, PolyVec
from .structures import StructureField, standard_matrix
from .tensor import Index, PointTensor

Vec = List[Fraction]


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed."""


def basis_vec(dim: int, a: int) -> Vec:
    return [Fraction(1) if i == a else Fraction(0) for i in range(dim)]


def const_field(dim: int, a: int) -> PolyVec:
    return [poly.const(1, dim) if i == a else poly.zero() for i in range(dim)]


class PolyTensorField:
    """Tensor field with polynomial coefficients, stored on basis fields."""

    def __init__(self, dim: int, arity: int, entries: Dict[Index, PolyVec]):
        self.dim = dim
        self.arity = arity
        self.entries = entries

    @classmethod
    def from_function(cls, dim: int, arity: int, fn) -> "PolyTensorField":
        entries = {idx: fn(idx)
                   for idx in itertools.product(range(dim), repeat=arity)}
        return cls(dim, arity, entries)

    def apply_poly(self, args: Sequence[PolyVec]) -> PolyVec:
        """Tensorial application to polynomial vector fields, summed over
        the index tuples built from the arguments' nonzero components."""
        supports = [[(a, f) for a, f in enumerate(arg) if not poly.is_zero(f)]
                    for arg in args]
        out = poly.vec_zero(self.dim)
        for combo in itertools.product(*supports):
            coeff = poly.const(1, self.dim)
            for _, f in combo:
                coeff = poly.mul(coeff, f)
            val = self.entries[tuple(a for a, _ in combo)]
            out = poly.vec_add(out, poly.vec_scale_poly(val, coeff))
        return out

    def at_point(self, point: Sequence) -> PointTensor:
        return PointTensor(self.dim, self.dim, self.arity,
                           {idx: poly.vec_eval(v, point)
                            for idx, v in self.entries.items()})

    def differential(self, p: int, point: Sequence) -> PointTensor:
        """d^p at the point: arity grows by p derivative slots (last)."""
        if p < 0:
            raise ValueError("p must be nonnegative")
        cache: Dict[Tuple[Index, Tuple[int, ...]], PolyVec] = {}

        def deriv(idx: Index, dirs: Tuple[int, ...]) -> PolyVec:
            key = (idx, tuple(sorted(dirs)))
            if key in cache:
                return cache[key]
            if not dirs:
                out = self.entries[idx]
            else:
                prev = deriv(idx, dirs[:-1])
                out = [poly.diff(c, dirs[-1] + 1) for c in prev]
            cache[key] = out
            return out

        def fn(full: Index) -> Vec:
            base, dirs = full[:self.arity], full[self.arity:]
            return poly.vec_eval(deriv(base, dirs), point)

        return PointTensor.from_function(self.dim, self.dim, self.arity + p, fn)


def structure_as_field(j: StructureField) -> PolyTensorField:
    return PolyTensorField(j.dim, 1, {(a,): j.cols[a] for a in range(j.dim)})


def dj_field(j: StructureField) -> PolyTensorField:
    """dj(form slot, derivative slot) with polynomial entries."""
    dim = j.dim
    entries = {(a, b): [poly.diff(j.cols[a][i], b + 1) for i in range(dim)]
               for a in range(dim) for b in range(dim)}
    return PolyTensorField(dim, 2, entries)


# ---------------------------------------------------------------------------
# torsion tensor, two routes
# ---------------------------------------------------------------------------

def nijenhuis_field_bracket(j: StructureField) -> PolyTensorField:
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis fields."""
    dim = j.dim
    entries: Dict[Index, PolyVec] = {}
    for a in range(dim):
        entries[(a, a)] = poly.vec_zero(dim)
    for a in range(dim):
        ea = const_field(dim, a)
        ja = j.cols[a]
        for b in range(a + 1, dim):
            eb = const_field(dim, b)
            jb = j.cols[b]
            val = poly.lie_bracket(ja, jb, dim)
            val = poly.vec_sub(val, j.apply_to_field(poly.lie_bracket(ja, eb, dim)))
            val = poly.vec_sub(val, j.apply_to_field(poly.lie_bracket(ea, jb, dim)))
            # [ea, eb] = 0 for coordinate fields
            entries[(a, b)] = val
            entries[(b, a)] = [poly.neg(c) for c in val]
    return PolyTensorField(dim, 2, entries)


def nijenhuis_field_first_differential(j: StructureField) -> PolyTensorField:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX)."""
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
            val = [poly.neg(c) for c in dj.apply_poly([ja, eb])]
            val = poly.vec_sub(val, dj.apply_poly([ea, jb]))
            val = poly.vec_add(val, dj.apply_poly([jb, ea]))
            val = poly.vec_add(val, dj.apply_poly([eb, ja]))
            entries[(a, b)] = val
            entries[(b, a)] = [poly.neg(c) for c in val]
    return PolyTensorField(dim, 2, entries)


def torsion_jets(jet: List[PolyVec], order: int) -> Dict[Index, PolyVec]:
    """Jets of the torsion fields N(e_a, e_b), a < b, in pair order.

    jet is the (order + 1)-jet of J (StructureField.jet); the result is cut
    above degree order.  Bracket formula on basis fields, where
    [J e_a, e_b] = -d_b(J e_a):
    N(e_a, e_b) = [J e_a, J e_b] + J d_b(J e_a) - J d_a(J e_b).
    A field vanishing identically near the point gets a zero jet, not a
    gap, so positions in the pair order never move.
    """
    dim = len(jet)
    pairs = list(itertools.combinations(range(dim), 2))
    out: Dict[Index, PolyVec] = {}
    for (a, b), val in zip(pairs, poly.jet_brackets(jet, pairs, order)):
        w = poly.vec_sub([poly.diff(c, b + 1) for c in jet[a]],
                         [poly.diff(c, a + 1) for c in jet[b]])
        for c in range(dim):
            if w[c]:
                val = poly.vec_add(val, [poly.jet_mul(e, w[c], order)
                                         for e in jet[c]])
        out[(a, b)] = val
    return out


def _pair_tensor(dim: int, values: Dict[Index, Vec]) -> PointTensor:
    """The antisymmetric arity-2 tensor with the given values for a < b."""
    entries: Dict[Index, Vec] = {}
    for a in range(dim):
        entries[(a, a)] = [Fraction(0)] * dim
    for (a, b), val in values.items():
        entries[(a, b)] = val
        entries[(b, a)] = [-c for c in val]
    return PointTensor(dim, dim, 2, entries)


def _torsion_first_differential(jet: List[PolyVec]) -> PointTensor:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX) at the
    point, from J and dj there, both read off the 1-jet of J."""
    dim = len(jet)
    units = [tuple(int(k == b) for k in range(dim)) for b in range(dim)]
    dj = PointTensor(dim, dim, 2, {
        (a, b): [c.get(units[b], Fraction(0)) for c in jet[a]]
        for a in range(dim) for b in range(dim)})
    cols = [[poly.constant_term(c) for c in col] for col in jet]
    basis = [basis_vec(dim, a) for a in range(dim)]
    values: Dict[Index, Vec] = {}
    for a, b in itertools.combinations(range(dim), 2):
        ea, eb, ja, jb = basis[a], basis[b], cols[a], cols[b]
        val = [-x for x in dj.apply([ja, eb])]
        val = linalg.vec_sub(val, dj.apply([ea, jb]))
        val = linalg.vec_add(val, dj.apply([jb, ea]))
        values[(a, b)] = linalg.vec_add(val, dj.apply([eb, ja]))
    return _pair_tensor(dim, values)


def nijenhuis_tensor(j: StructureField, point: Sequence,
                     cross_check: bool = True) -> PointTensor:
    """Torsion at the point; raises if the two routes disagree there.

    Both routes read only the 1-jet of J at the point: the bracket route
    is torsion_jets at order 0, the other the first-differential formula.
    """
    pt = [Fraction(x) for x in point]
    jet = j.jet(pt, 1)
    bracket = _pair_tensor(j.dim, {
        idx: [poly.constant_term(c) for c in val]
        for idx, val in torsion_jets(jet, 0).items()})
    if cross_check:
        other = _torsion_first_differential(jet)
        if bracket != other:
            witness = next(idx for idx in bracket.entries
                           if bracket.entries[idx] != other.entries[idx])
            raise InternalInconsistencyError(
                f"torsion routes disagree at basis pair {witness}")
    return bracket


# ---------------------------------------------------------------------------
# arity-4 invariant, two routes
# ---------------------------------------------------------------------------

def _jacobian_at(field: PolyVec, point: Sequence, dim: int) -> List[Vec]:
    """Rows indexed by component, columns by derivative direction."""
    return [[poly.eval_poly(poly.diff(field[i], c + 1), point)
             for c in range(dim)] for i in range(dim)]


def _col(m: List[Vec], c: int) -> Vec:
    return [row[c] for row in m]


def higher_nijenhuis_bracket(j: StructureField, point: Sequence,
                             n_field: Optional[PolyTensorField] = None) -> PointTensor:
    """Ten-term bracket expression on constant extensions of basis vectors.

    All derivative bookkeeping reduces to values and Jacobians at the point
    of the pair fields N(e_a, e_b) and J N(e_a, e_b), a < b.  Only orbit
    representatives of the pair pattern are evaluated (see
    PointTensor.from_pair_pattern).
    """
    dim = j.dim
    pt = [Fraction(x) for x in point]
    if n_field is None:
        n_field = nijenhuis_field_bracket(j)
    j_pt = j.eval_matrix(pt)
    n_pt = n_field.at_point(pt)

    val_n: Dict[Tuple[int, int], Vec] = {}
    jac_n: Dict[Tuple[int, int], List[Vec]] = {}
    val_jn: Dict[Tuple[int, int], Vec] = {}
    jac_jn: Dict[Tuple[int, int], List[Vec]] = {}
    for a, b in itertools.combinations(range(dim), 2):
        nf = n_field.entries[(a, b)]
        val_n[(a, b)] = poly.vec_eval(nf, pt)
        jac_n[(a, b)] = _jacobian_at(nf, pt, dim)
        jnf = j.apply_to_field(nf)
        val_jn[(a, b)] = poly.vec_eval(jnf, pt)
        jac_jn[(a, b)] = _jacobian_at(jnf, pt, dim)

    def napp(x: Vec, y: Vec) -> Vec:
        return n_pt.apply([x, y])

    def jmul(x: Vec) -> Vec:
        return linalg.mat_vec(j_pt, x)

    def fn(idx: Index) -> Vec:
        a, b, c, d = idx
        u_ab, u_cd = val_n[(a, b)], val_n[(c, d)]
        w_ab, w_cd = val_jn[(a, b)], val_jn[(c, d)]
        du_ab, du_cd = jac_n[(a, b)], jac_n[(c, d)]
        dw_ab, dw_cd = jac_jn[(a, b)], jac_jn[(c, d)]
        # [F, G](p) = DG(p) F(p) - DF(p) G(p)
        t1 = linalg.vec_sub(linalg.mat_vec(dw_cd, u_ab), linalg.mat_vec(du_ab, w_cd))
        t2 = linalg.vec_sub(linalg.mat_vec(du_cd, w_ab), linalg.mat_vec(dw_ab, u_cd))
        out = [-x - y for x, y in zip(t1, t2)]
        # [e_a, F](p) is column a of the Jacobian of F
        out = linalg.vec_add(out, napp(_col(dw_cd, a), basis_vec(dim, b)))
        out = linalg.vec_add(out, napp(basis_vec(dim, a), _col(dw_cd, b)))
        out = linalg.vec_add(out, jmul(napp(_col(du_cd, a), basis_vec(dim, b))))
        out = linalg.vec_add(out, jmul(napp(basis_vec(dim, a), _col(du_cd, b))))
        out = linalg.vec_sub(out, napp(_col(dw_ab, c), basis_vec(dim, d)))
        out = linalg.vec_sub(out, napp(basis_vec(dim, c), _col(dw_ab, d)))
        out = linalg.vec_sub(out, jmul(napp(_col(du_ab, c), basis_vec(dim, d))))
        out = linalg.vec_sub(out, jmul(napp(basis_vec(dim, c), _col(du_ab, d))))
        return out

    return PointTensor.from_pair_pattern(dim, dim, fn)


def higher_nijenhuis_differential(j: StructureField, point: Sequence,
                                  n_field: Optional[PolyTensorField] = None) -> PointTensor:
    """R-contraction route: R(x, y, z) = dN(x, y, Jz) + J dN(x, y, z)
    + N(dj(z, x), y) + N(x, dj(z, y)) - dj(z, N(x, y)), and the invariant is
    R(x, y, N(z, v)) - R(z, v, N(x, y))."""
    dim = j.dim
    pt = [Fraction(x) for x in point]
    if n_field is None:
        n_field = nijenhuis_field_bracket(j)
    j_pt = j.eval_matrix(pt)
    n_pt = n_field.at_point(pt)
    dn_pt = n_field.differential(1, pt)
    dj_pt = dj_field(j).at_point(pt)

    def jmul(x: Vec) -> Vec:
        return linalg.mat_vec(j_pt, x)

    basis = [basis_vec(dim, k) for k in range(dim)]

    def r_basis(idx: Index) -> Vec:
        ea, eb, ec = (basis[k] for k in idx)
        out = dn_pt.apply([ea, eb, jmul(ec)])
        out = linalg.vec_add(out, jmul(dn_pt.apply([ea, eb, ec])))
        out = linalg.vec_add(out, n_pt.apply([dj_pt.apply([ec, ea]), eb]))
        out = linalg.vec_add(out, n_pt.apply([ea, dj_pt.apply([ec, eb])]))
        out = linalg.vec_sub(out, dj_pt.apply([ec, n_pt.apply([ea, eb])]))
        return out

    r_pt = PointTensor.from_function(dim, dim, 3, r_basis)

    def fn(idx: Index) -> Vec:
        a, b, c, d = idx
        return linalg.vec_sub(
            r_pt.apply([basis[a], basis[b], n_pt.entries[(c, d)]]),
            r_pt.apply([basis[c], basis[d], n_pt.entries[(a, b)]]))

    return PointTensor.from_function(dim, dim, 4, fn)


def higher_nijenhuis(j: StructureField, point: Sequence,
                     cross_check: bool = True) -> PointTensor:
    """Arity-4 invariant at the point; raises if the two routes disagree.

    The bracket route computes one entry per pair-pattern orbit and fills
    the rest by sign; the differential route computes every entry.  Their
    entrywise agreement therefore certifies the pair pattern as well as
    the values.
    """
    pt = [Fraction(x) for x in point]
    n_field = nijenhuis_field_bracket(j)
    a = higher_nijenhuis_bracket(j, pt, n_field)
    if cross_check:
        b = higher_nijenhuis_differential(j, pt, n_field)
        if a != b:
            witness = next(idx for idx in a.entries
                           if a.entries[idx] != b.entries[idx])
            raise InternalInconsistencyError(
                f"arity-4 routes disagree at basis tuple {witness}")
    return a


def nijenhuis_differential(j: StructureField, p: int, point: Sequence) -> PointTensor:
    """d^p of the torsion field at the point (arity 2 + p)."""
    return nijenhuis_field_bracket(j).differential(p, [Fraction(x) for x in point])


# ---------------------------------------------------------------------------
# the linear space of torsion-type tensors for the standard structure
# ---------------------------------------------------------------------------

def nijenhuis_space_basis(n: int) -> List[PointTensor]:
    """Basis of {N antisymmetric | N(j0 x, y) = N(x, j0 y) = -j0 N(x, y)}.

    Solved as an exact nullspace problem in the entries N(e_a, e_b), a < b.
    The dimension is n^2 (n - 1).
    """
    dim = 2 * n
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    pos = {p: k for k, p in enumerate(pairs)}
    nunk = len(pairs) * dim

    def slot(a: int, b: int, i: int) -> Tuple[int, Fraction]:
        # column and sign of entry N(e_a, e_b)^i among the unknowns
        if a < b:
            return pos[(a, b)] * dim + i, Fraction(1)
        return pos[(b, a)] * dim + i, Fraction(-1)

    def j0_index(a: int) -> Tuple[int, Fraction]:
        # j0 e_a = sign * e_partner
        return (a + 1, Fraction(1)) if a % 2 == 0 else (a - 1, Fraction(-1))

    rows: List[Vec] = []
    for (a, b) in pairs:
        for first_slot in (True, False):
            t, sgn = j0_index(a if first_slot else b)
            other = b if first_slot else a
            src = (t, other) if first_slot else (a, t)
            for i in range(dim):
                row = [Fraction(0)] * nunk
                if src[0] != src[1]:
                    col, s = slot(src[0], src[1], i)
                    row[col] += sgn * s
                # (j0 v)^i = v^{i-1} for odd i, -v^{i+1} for even i (0-based)
                k_src = i - 1 if i % 2 == 1 else i + 1
                s_src = Fraction(1) if i % 2 == 1 else Fraction(-1)
                col2, s2 = slot(a, b, k_src)
                row[col2] += s_src * s2
                if any(row):
                    rows.append(row)

    basis_vecs = linalg.nullspace(rows) if rows else []
    out: List[PointTensor] = []
    for v in basis_vecs:
        entries: Dict[Index, Vec] = {}
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    entries[(a, b)] = [Fraction(0)] * dim
                else:
                    vals = []
                    for i in range(dim):
                        col, s = slot(a, b, i)
                        vals.append(s * v[col])
                    entries[(a, b)] = vals
        out.append(PointTensor(dim, dim, 2, entries))
    return out


# ---------------------------------------------------------------------------
# compatibility torsion of a deformation against the standard part
# ---------------------------------------------------------------------------

def compatibility_nijenhuis(j0_cols: List[PolyVec], delta_cols: List[PolyVec],
                            dim: int) -> PolyTensorField:
    """N_(j0, D)(X, Y) = [j0 X, D Y] + [D X, j0 Y] - j0 [X, D Y]
    - j0 [D X, Y] - D [X, j0 Y] - D [j0 X, Y] on basis fields."""

    def matvec(cols: List[PolyVec], x: PolyVec) -> PolyVec:
        out = poly.vec_zero(dim)
        for k in range(dim):
            if not poly.is_zero(x[k]):
                out = poly.vec_add(out, poly.vec_scale_poly(cols[k], x[k]))
        return out

    def fn(idx: Index) -> PolyVec:
        a, b = idx
        ea, eb = const_field(dim, a), const_field(dim, b)
        j0a, j0b = j0_cols[a], j0_cols[b]
        da, db = delta_cols[a], delta_cols[b]
        out = poly.lie_bracket(j0a, db, dim)
        out = poly.vec_add(out, poly.lie_bracket(da, j0b, dim))
        out = poly.vec_sub(out, matvec(j0_cols, poly.lie_bracket(ea, db, dim)))
        out = poly.vec_sub(out, matvec(j0_cols, poly.lie_bracket(da, eb, dim)))
        out = poly.vec_sub(out, matvec(delta_cols, poly.lie_bracket(ea, j0b, dim)))
        out = poly.vec_sub(out, matvec(delta_cols, poly.lie_bracket(j0a, eb, dim)))
        return out

    return PolyTensorField.from_function(dim, 2, fn)


# ---------------------------------------------------------------------------
# identity checks used by the validation suite
# ---------------------------------------------------------------------------

def first_differential_antilinearity_defect(j: StructureField,
                                            point: Sequence) -> Optional[Index]:
    """First basis pair where dj(J x, y) != -J dj(x, y), or None."""
    pt = [Fraction(x) for x in point]
    dim = j.dim
    dj_pt = dj_field(j).at_point(pt)
    j_pt = j.eval_matrix(pt)
    for a in range(dim):
        ja = [j_pt[i][a] for i in range(dim)]
        for b in range(dim):
            eb = basis_vec(dim, b)
            lhs = dj_pt.apply([ja, eb])
            rhs = [-x for x in linalg.mat_vec(j_pt, dj_pt.apply([basis_vec(dim, a), eb]))]
            if lhs != rhs:
                return (a, b)
    return None


def second_differential_identity_defect(j: StructureField,
                                        point: Sequence) -> Optional[Index]:
    """First basis triple violating
    d2j(Jx, y, z) = -J d2j(x, y, z) - dj(dj(x, z), y) - dj(dj(x, y), z)."""
    pt = [Fraction(x) for x in point]
    dim = j.dim
    jf = structure_as_field(j)
    dj_pt = jf.differential(1, pt)
    d2j_pt = jf.differential(2, pt)
    j_pt = j.eval_matrix(pt)
    for a in range(dim):
        ja = [j_pt[i][a] for i in range(dim)]
        ea = basis_vec(dim, a)
        for b in range(dim):
            eb = basis_vec(dim, b)
            for c in range(dim):
                ec = basis_vec(dim, c)
                lhs = d2j_pt.apply([ja, eb, ec])
                rhs = [-x for x in linalg.mat_vec(j_pt, d2j_pt.apply([ea, eb, ec]))]
                rhs = linalg.vec_sub(rhs, dj_pt.apply([dj_pt.apply([ea, ec]), eb]))
                rhs = linalg.vec_sub(rhs, dj_pt.apply([dj_pt.apply([ea, eb]), ec]))
                if lhs != rhs:
                    return (a, b, c)
    return None


def standard_point_structure(n: int) -> PointTensor:
    return PointTensor.from_matrix(standard_matrix(n))
