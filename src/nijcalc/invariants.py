"""Torsion invariants of structure fields, each by two independent routes.

The chart carries the flat connection, so differentials of tensor fields
are plain iterated partial derivatives: form slots first, derivative
slots last.  The torsion tensor is computed both from vector-field
brackets and from the first differential of the structure; the arity-4
invariant both from the ten-term bracket expression and from the
R-contraction of the torsion differential.  Disagreement between routes
is an internal error, never silently resolved.

Derivatives at a point come from jets, never from differentiating a
global field and evaluating it: J is shifted to the point
(StructureField.jet), torsion_jets expands the torsion fields there from
the next jet of J, and jet_differential reads d^p of any such jet off its
degree-p coefficients.  Both torsion routes read only the 1-jet of J, the
arity-4 routes and the identity checks its 2-jet.  The global torsion
field (nijenhuis_field_bracket) is torsion_jets at the origin, uncut; it
serves only the symbolic verdicts in classify.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import forms, linalg, poly
from .poly import PolyVec
from .structures import StructureField, standard_matrix
from .tensor import (Index, PointTensor, alternating_rep, pair_pattern_rep,
                     post_compose, slot_compose, solution_basis, unit_basis)

Vec = List[Fraction]
# the 2-jet of J at a point and the 1-jets of the torsion fields there
Arity4Jets = Tuple[List[PolyVec], Dict[Index, PolyVec]]


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed."""


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


def columns_field(cols: Sequence[PolyVec]) -> Dict[Index, PolyVec]:
    """The arity-1 entries {(a,): cols[a]} of a matrix field given by its
    columns, such as J or a jet of J."""
    return {(a,): col for a, col in enumerate(cols)}


def jet_differential(jets: Dict[Index, PolyVec], p: int) -> PointTensor:
    """d^p at the base point of a tensor field given by its jets there.

    jets maps every basis tuple of the field to the jet of its value,
    known to order p at least (StructureField.jet, torsion_jets).  The p
    derivative slots come last: the entry at (idx, c_1, .., c_p) is the coefficient of y^alpha in
    jets[idx] times alpha!, where alpha counts the directions c_i.
    """
    dim = len(next(iter(jets.values())))
    weights = []
    for dirs in itertools.product(range(dim), repeat=p):
        alpha = tuple(dirs.count(k) for k in range(dim))
        weights.append((dirs, alpha, math.prod(math.factorial(k) for k in alpha)))
    zero = Fraction(0)
    entries: Dict[Index, Vec] = {}
    for base, vec in jets.items():
        for dirs, alpha, w in weights:
            vals = [c.get(alpha, zero) for c in vec]
            entries[base + dirs] = vals if w == 1 else [w * c for c in vals]
    return PointTensor(dim, dim, len(base) + p, entries)


# ---------------------------------------------------------------------------
# torsion tensor, two routes
# ---------------------------------------------------------------------------

def nijenhuis_field_bracket(j: StructureField) -> PolyTensorField:
    """The global torsion field: its own jet at the origin, uncut, since
    N has degree below 2 deg J."""
    order = 2 * max(j.max_entry_degree(), 0)
    return PolyTensorField(j.dim, 2, _pair_fields(j.dim, torsion_jets(j.cols, order)))


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
        out[(a, b)] = poly.vec_add(val, poly.jet_apply_columns(jet, w, order))
    return out


def _pair_fields(dim: int, values: Dict[Index, PolyVec]) -> Dict[Index, PolyVec]:
    """Every entry of the antisymmetric arity-2 field with the given
    entries for a < b (as torsion_jets lists them)."""
    entries = {(a, a): poly.vec_zero(dim) for a in range(dim)}
    for (a, b), val in values.items():
        entries[(a, b)] = val
        entries[(b, a)] = [poly.neg(c) for c in val]
    return entries


def _torsion_first_differential(jet: List[PolyVec]) -> PointTensor:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX) at the
    point, from J and dj there, both read off the 1-jet of J: with
    u(X, Y) = dj(JX, Y) + dj(X, JY), N is u with its slots swapped minus u.
    Every entry is computed, none filled by sign."""
    field = columns_field(jet)
    j_at, dj = jet_differential(field, 0), jet_differential(field, 1)
    u = slot_compose(dj, j_at, 0).add(slot_compose(dj, j_at, 1))
    return u.swap_slots(0, 1).sub(u)


def nijenhuis_tensor(j: StructureField, point: Sequence) -> PointTensor:
    """Torsion at the point; raises if the two routes disagree there.

    Both routes read only the 1-jet of J at the point: the bracket route
    is torsion_jets at order 0, filled by sign from the pairs a < b, the
    other the first-differential formula, which computes every entry, so
    their agreement certifies antisymmetry too.
    """
    jet = j.jet(point, 1)
    n_jets = torsion_jets(jet, 0)
    bracket = PointTensor.from_orbits(j.dim, j.dim, 2, alternating_rep, lambda idx: [
        poly.constant_term(c) for c in n_jets[idx]])
    other = _torsion_first_differential(jet)
    if bracket != other:
        raise InternalInconsistencyError(
            f"torsion routes disagree at basis pair {_first_difference(bracket, other)}")
    return bracket


# ---------------------------------------------------------------------------
# arity-4 invariant, two routes
# ---------------------------------------------------------------------------

def _arity4_jets(j: StructureField, point: Sequence) -> Arity4Jets:
    """What both arity-4 routes read: the 2-jet of J at the point and the
    1-jets of the torsion fields N(e_a, e_b), a < b."""
    jet = j.jet(point, 2)
    return jet, torsion_jets(jet, 1)


def higher_nijenhuis_bracket(j: StructureField, point: Sequence,
                             jets: Optional[Arity4Jets] = None) -> PointTensor:
    """Ten-term bracket expression on constant extensions of basis vectors.

    All derivative bookkeeping reduces to values and first derivatives at
    the point of the pair fields N(e_a, e_b) and J N(e_a, e_b), a < b,
    read off their 1-jets; jets is the pair (2-jet of J, torsion 1-jets)
    that higher_nijenhuis shares between the routes.  Only orbit
    representatives of the pair pattern are evaluated (from_orbits with
    pair_pattern_rep).
    """
    dim = j.dim
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    n_fields = _pair_fields(dim, n_jets)
    jn_fields = _pair_fields(dim, {idx: poly.jet_apply_columns(jet, val, 1)
                                   for idx, val in n_jets.items()})
    j_at = jet_differential(columns_field(jet), 0)
    n_at, dn = jet_differential(n_fields, 0), jet_differential(n_fields, 1)
    jn_at, djn = jet_differential(jn_fields, 0), jet_differential(jn_fields, 1)
    basis = linalg.identity(dim)

    def napp(x: Vec, y: Vec) -> Vec:
        return n_at.apply([x, y])

    def jmul(x: Vec) -> Vec:
        return j_at.apply([x])

    def fn(idx: Index) -> Vec:
        a, b, c, d = idx
        ea, eb, ec, ed = (basis[k] for k in idx)
        u_ab, u_cd = n_at.entries[(a, b)], n_at.entries[(c, d)]
        w_ab, w_cd = jn_at.entries[(a, b)], jn_at.entries[(c, d)]
        # [F, G](p) = DG(p) F(p) - DF(p) G(p)
        t1 = linalg.vec_sub(djn.apply([ec, ed, u_ab]), dn.apply([ea, eb, w_cd]))
        t2 = linalg.vec_sub(dn.apply([ec, ed, w_ab]), djn.apply([ea, eb, u_cd]))
        out = [-x - y for x, y in zip(t1, t2)]
        # [e_a, F](p) is the derivative of F in direction a
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


def higher_nijenhuis_differential(j: StructureField, point: Sequence,
                                  jets: Optional[Arity4Jets] = None) -> PointTensor:
    """R-contraction route: R(x, y, z) = dN(x, y, Jz) + J dN(x, y, z)
    + N(dj(z, x), y) + N(x, dj(z, y)) - dj(z, N(x, y)), and the invariant is
    R(x, y, N(z, v)) - R(z, v, N(x, y)).  J, dj, N and dN at the point are
    read off the jets, as in higher_nijenhuis_bracket.

    The route is a chain of whole-tensor contractions (slot_compose,
    post_compose), each computing every entry: the terms with dj come out
    in the slot orders (z, x, y) and (x, z, y) and are brought to (x, y, z)
    by swap_slots.  No entry is filled by symmetry."""
    dim = j.dim
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    j_field, n_fields = columns_field(jet), _pair_fields(dim, n_jets)
    j_at, dj = jet_differential(j_field, 0), jet_differential(j_field, 1)
    n, dn = jet_differential(n_fields, 0), jet_differential(n_fields, 1)
    # N(dj(z, x), y) - dj(z, N(x, y)) at (z, x, y)
    zxy = slot_compose(n, dj, 0).sub(slot_compose(dj, n, 1))
    r = slot_compose(dn, j_at, 2).add(post_compose(j_at, dn))
    r = r.add(zxy.swap_slots(0, 1).swap_slots(1, 2))
    r = r.add(slot_compose(n, dj, 1).swap_slots(1, 2))
    s = slot_compose(r, n, 2)
    return s.sub(s.swap_slots(0, 2).swap_slots(1, 3))


def higher_nijenhuis(j: StructureField, point: Sequence) -> PointTensor:
    """Arity-4 invariant at the point; raises if the two routes disagree.

    The bracket route computes one entry per pair-pattern orbit and fills
    the rest by sign; the differential route, a chain of contractions,
    computes every entry.  Their entrywise agreement therefore certifies
    the pair pattern as well as the values.  Both read the same jets,
    built once here.
    """
    jets = _arity4_jets(j, point)
    a = higher_nijenhuis_bracket(j, point, jets)
    b = higher_nijenhuis_differential(j, point, jets)
    if a != b:
        raise InternalInconsistencyError(
            f"arity-4 routes disagree at basis tuple {_first_difference(a, b)}")
    return a


def nijenhuis_differential(j: StructureField, p: int, point: Sequence) -> PointTensor:
    """d^p of the torsion field at the point (arity 2 + p), from the
    order-p torsion jets."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    jet = j.jet(point, p + 1)
    return jet_differential(_pair_fields(j.dim, torsion_jets(jet, p)), p)


# ---------------------------------------------------------------------------
# the linear space of torsion-type tensors for the standard structure
# ---------------------------------------------------------------------------

def nijenhuis_space_basis(n: int) -> List[PointTensor]:
    """Basis of {N antisymmetric | N(j0 x, y) = N(x, j0 y) = -j0 N(x, y)}.

    The unknowns are the antisymmetric unit tensors, by pair a < b and
    then by component, and the basis is the solution basis of
    N(j0 x, y) + j0 N(x, y) = 0 on them.  The dimension is n^2 (n - 1).
    """
    j0 = PointTensor.from_matrix(standard_matrix(n))
    # for antisymmetric N the relation in the second slot follows from the first
    return solution_basis(lambda t: slot_compose(t, j0, 0).add(post_compose(j0, t)),
                          unit_basis(2 * n, 2 * n, 2, alternating_rep))


# ---------------------------------------------------------------------------
# compatibility torsion of a deformation against the standard part
# ---------------------------------------------------------------------------

def compatibility_nijenhuis(j0_cols: List[PolyVec], delta_cols: List[PolyVec],
                            dim: int) -> PolyTensorField:
    """N_(j0, D)(X, Y) = [j0 X, D Y] + [D X, j0 Y] - j0 [X, D Y]
    - j0 [D X, Y] - D [X, j0 Y] - D [j0 X, Y] on basis fields: the
    Froelicher-Nijenhuis bracket [j0, D] of the two vector-valued 1-forms."""
    bracket = forms.fn_bracket_one_forms_direct(j0_cols, delta_cols, dim)
    return PolyTensorField(dim, 2, _pair_fields(dim, {
        p: bracket.value_on_basis(p) for p in itertools.combinations(range(dim), 2)}))


# ---------------------------------------------------------------------------
# identity checks used by the validation suite
# ---------------------------------------------------------------------------

def _first_difference(a: PointTensor, b: PointTensor) -> Optional[Index]:
    """The first index tuple, in sorted order, where a and b differ."""
    return next((idx for idx in sorted(a.entries)
                 if a.entries[idx] != b.entries[idx]), None)


def first_differential_antilinearity_defect(j: StructureField,
                                            point: Sequence) -> Optional[Index]:
    """First basis pair where dj(J x, y) != -J dj(x, y), or None."""
    field = columns_field(j.jet(point, 1))
    j_at, dj = jet_differential(field, 0), jet_differential(field, 1)
    return _first_difference(slot_compose(dj, j_at, 0), post_compose(j_at, dj).neg())


def second_differential_identity_defect(j: StructureField,
                                        point: Sequence) -> Optional[Index]:
    """First basis triple violating
    d2j(Jx, y, z) = -J d2j(x, y, z) - dj(dj(x, z), y) - dj(dj(x, y), z)."""
    field = columns_field(j.jet(point, 2))
    j_at = jet_differential(field, 0)
    dj, d2j = jet_differential(field, 1), jet_differential(field, 2)
    # s(x, y, z) = dj(dj(x, y), z)
    s = slot_compose(dj, dj, 0)
    rhs = post_compose(j_at, d2j).neg().sub(s.swap_slots(1, 2)).sub(s)
    return _first_difference(slot_compose(d2j, j_at, 0), rhs)
