"""Torsion invariants of structure fields, each by two independent routes.

The chart carries the flat connection, so differentials of tensor fields
are plain iterated partial derivatives: form slots first, derivative
slots last.  The torsion tensor is computed both from vector-field
brackets and from the first differential of the structure; the arity-4
invariant both from the ten-term bracket expression and from the
R-contraction of the torsion differential.  Disagreement between routes
is an internal error, never silently resolved.

The routes are different formulas run by the same kernels: at the point
each is a signed sum of contractions, one contraction_sum on integer
numerators, with no tensor applied to basis vectors.  The torsion jets
are one integer pass over J's columns (poly.jet_torsion), J applied to
them one poly.jet_apply_columns call.  An identity check reports the
first nonzero entry of the sum of its terms.

Derivatives at a point come from jets, never from differentiating a
global field and evaluating it: J is shifted to the point
(StructureField.jet, one poly.shift substitution of point + y for every
entry), torsion_jets expands the torsion fields there from
the next jet of J, and jet_differential reads d^p of any such jet off its
degree-p coefficients.  Both torsion routes read only the 1-jet of J
(torsion_from_jets takes any higher jet and reads its low terms), the
arity-4 routes and the identity checks its 2-jet.  Each jet is a
forms.VectorForm, of degree 1 for J and 2 for the torsion.  The global
torsion 2-form (nijenhuis_field_bracket) is torsion_jets at the origin,
uncut; it serves only the symbolic verdicts in classify; polarized, it
is the compatibility torsion of a deformation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import poly
from .forms import VectorForm
from .poly import PolyVec
from .structures import StructureField, standard_matrix
from .tensor import (Index, PointTensor, alternating_rep, contraction_sum,
                     pair_pattern_rep, solution_basis, unit_basis)

# the 2-jet of J at a point and the 1-jets of the torsion fields there
Arity4Jets = Tuple[List[PolyVec], Dict[Index, PolyVec]]


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed."""


def jet_differential(field: VectorForm, p: int) -> PointTensor:
    """d^p at the base point of a vector-valued form given by its jet there.

    field holds the jet of the form, known to order p at least
    (StructureField.jet, torsion_jets), and is read by value_on_basis at
    every basis tuple of its degree slots.  The p derivative slots come
    last: the entry at (idx, c_1, .., c_p) is the coefficient of y^alpha in
    the value on idx times alpha!, where alpha counts the directions c_i.
    """
    dim = field.dim
    weights = []
    for dirs in itertools.product(range(dim), repeat=p):
        alpha = tuple(dirs.count(k) for k in range(dim))
        weights.append((dirs, alpha, math.prod(math.factorial(k) for k in alpha)))
    zero = Fraction(0)
    entries: Dict[Index, List[Fraction]] = {}
    for base in itertools.product(range(dim), repeat=field.degree):
        vec = field.value_on_basis(base)
        for dirs, alpha, w in weights:
            vals = [c.get(alpha, zero) for c in vec]
            entries[base + dirs] = vals if w == 1 else [w * c for c in vals]
    return PointTensor(dim, dim, field.degree + p, entries)


# ---------------------------------------------------------------------------
# torsion tensor, two routes
# ---------------------------------------------------------------------------

def nijenhuis_field_bracket(j: StructureField) -> VectorForm:
    """The global torsion 2-form: its own jet at the origin, uncut."""
    return VectorForm(j.dim, 2, torsion_jets(j.cols, math.inf))


def torsion_jets(jet: List[PolyVec], order: int) -> Dict[Index, PolyVec]:
    """Jets of the torsion fields N(e_a, e_b), a < b, in pair order: the
    entries of the jet of the torsion 2-form (VectorForm(dim, 2, ...)).

    jet is the (order + 1)-jet of J (StructureField.jet); the result is cut
    above degree order; with order math.inf, jet is J and the result
    global.  Bracket formula on basis fields, where
    [J e_a, e_b] = -d_b(J e_a):
    N(e_a, e_b) = [J e_a, J e_b] + J d_b(J e_a) - J d_a(J e_b),
    summed in one integer pass over J's columns (poly.jet_torsion).
    A field vanishing identically near the point gets a zero jet, not a
    gap, so positions in the pair order never move.
    """
    return dict(zip(itertools.combinations(range(len(jet)), 2), poly.jet_torsion(jet, order)))


def _torsion_first_differential(jet: List[PolyVec]) -> PointTensor:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX) at the
    point, from J and dj there, both read off the 1-jet of J: with
    u(X, Y) = dj(JX, Y) + dj(X, JY), N is u with its slots swapped minus u,
    one sum of four contractions.  Every entry is computed, none filled by
    sign."""
    field = VectorForm.from_columns(jet)
    j_at, dj = jet_differential(field, 0), jet_differential(field, 1)
    dim = len(jet)
    return contraction_sum(dim, dim, 2, [(sign, dj, j_at, slot, perm) for slot in (0, 1)
                                         for sign, perm in ((1, (1, 0)), (-1, None))])


def torsion_from_jets(jet: List[PolyVec], n_jets: Dict[Index, PolyVec]) -> PointTensor:
    """Torsion at the base point of jet, a jet of J of order 1 or more, and
    n_jets = torsion_jets(jet, order) for any order >= 0; raises if the two
    routes disagree there.

    Both routes read only degree <= 1 of jet: the bracket route is the
    value of the 2-form n_jets, filled by sign from the pairs a < b, the
    other the first-differential formula, which computes every entry, so
    their agreement certifies antisymmetry too.  Callers that already hold
    higher jets (classify) pass them and build nothing twice.
    """
    bracket = jet_differential(VectorForm(len(jet), 2, n_jets), 0)
    other = _torsion_first_differential(jet)
    if bracket != other:
        raise InternalInconsistencyError(
            f"torsion routes disagree at basis pair {_first_nonzero(bracket.sub(other))}")
    return bracket


def nijenhuis_tensor(j: StructureField, point: Sequence) -> PointTensor:
    """Torsion at the point from the 1-jet of J there (torsion_from_jets);
    raises if the two routes disagree."""
    jet = j.jet(point, 1)
    return torsion_from_jets(jet, torsion_jets(jet, 0))


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
    """Ten-term bracket expression on constant extensions of basis
    vectors: H(a, b, c, d) = W(a, b, c, d) - W(c, d, a, b), where
    W = dN(a, b, JN_cd) + dJN(a, b, N_cd) + N(d_a JN_cd, e_b)
    + JN(d_a N_cd, e_b) + N(e_a, d_b JN_cd) + JN(e_a, d_b N_cd) for the
    pair fields N_cd = N(e_c, e_d), JN_cd = J N(e_c, e_d): the brackets
    [N_ab, JN_cd] + [JN_ab, N_cd] give the first two terms, those with
    e_a, e_b the rest.  The fields are read off their 1-jets; jets is the
    pair (2-jet of J, torsion 1-jets) that higher_nijenhuis shares.

    W is one contraction_sum of six terms, the last four computed in the
    slot orders (c, d, a, b) and (a, c, d, b); H is filled from W by sign,
    one value per pair-pattern orbit (from_orbits, pair_pattern_rep).
    """
    dim = j.dim
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    n_field = VectorForm(dim, 2, n_jets)
    jn_field = VectorForm(dim, 2, dict(zip(n_jets, poly.jet_apply_columns(
        jet, list(n_jets.values()), 1))))
    n_at, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    jn_at, djn = jet_differential(jn_field, 0), jet_differential(jn_field, 1)
    w = contraction_sum(dim, dim, 4, [
        (1, dn, jn_at, 2, None), (1, djn, n_at, 2, None),
        (1, n_at, djn, 0, (2, 3, 0, 1)), (1, jn_at, dn, 0, (2, 3, 0, 1)),
        (1, n_at, djn, 1, (0, 2, 3, 1)), (1, jn_at, dn, 1, (0, 2, 3, 1))]).entries
    return PointTensor.from_orbits(dim, dim, 4, pair_pattern_rep, lambda idx: [
        x - y for x, y in zip(w[idx], w[idx[2:] + idx[:2]])])


def higher_nijenhuis_differential(j: StructureField, point: Sequence,
                                  jets: Optional[Arity4Jets] = None) -> PointTensor:
    """R-contraction route: R(x, y, z) = dN(x, y, Jz) + J dN(x, y, z)
    + N(dj(z, x), y) + N(x, dj(z, y)) - dj(z, N(x, y)), and the invariant is
    S(x, y, z, v) - S(z, v, x, y) with S(x, y, z, v) = R(x, y, N(z, v)).
    J, dj, N and dN at the point are read off the jets, as in
    higher_nijenhuis_bracket.

    R is one sum of five contractions, the terms with dj computed in the
    slot orders (z, x, y) and (x, z, y), and the invariant one sum of two,
    R with N in its last slot and the same in the slot order (z, v, x, y).
    Every entry is computed, none filled by sign."""
    dim = j.dim
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    j_field, n_field = VectorForm.from_columns(jet), VectorForm(dim, 2, n_jets)
    j_at, dj = jet_differential(j_field, 0), jet_differential(j_field, 1)
    n, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    r = contraction_sum(dim, dim, 3, [
        (1, dn, j_at, 2, None), (1, j_at, dn, None, None), (1, n, dj, 0, (2, 0, 1)),
        (-1, dj, n, 1, (2, 0, 1)), (1, n, dj, 1, (0, 2, 1))])
    return contraction_sum(dim, dim, 4, [(1, r, n, 2, None), (-1, r, n, 2, (2, 3, 0, 1))])


def higher_nijenhuis(j: StructureField, point: Sequence) -> PointTensor:
    """Arity-4 invariant at the point; raises if the two routes disagree.

    The bracket route fills one value per pair-pattern orbit and the rest
    by sign; the differential route computes every entry.  Their entrywise
    agreement therefore certifies the pair pattern as well as the values.
    Both read the same jets, built once here, and both are sums of
    contractions (contraction_sum) of different tensors: dN, dJN, N and JN
    for the bracket route, J, dj, N and dN for the differential route.
    """
    jets = _arity4_jets(j, point)
    a = higher_nijenhuis_bracket(j, point, jets)
    b = higher_nijenhuis_differential(j, point, jets)
    if a != b:
        raise InternalInconsistencyError(
            f"arity-4 routes disagree at basis tuple {_first_nonzero(a.sub(b))}")
    return a


def nijenhuis_differential(j: StructureField, p: int, point: Sequence) -> PointTensor:
    """d^p of the torsion field at the point (arity 2 + p), from the
    order-p torsion jets."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    jet = j.jet(point, p + 1)
    return jet_differential(VectorForm(j.dim, 2, torsion_jets(jet, p)), p)


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
    return solution_basis(lambda t: contraction_sum(
        2 * n, 2 * n, 2, [(1, t, j0, 0, None), (1, j0, t, None, None)]),
        unit_basis(2 * n, 2 * n, 2, alternating_rep))


# ---------------------------------------------------------------------------
# compatibility torsion of a deformation against the standard part
# ---------------------------------------------------------------------------

def compatibility_nijenhuis(j0_cols: List[PolyVec], delta_cols: List[PolyVec],
                            dim: int) -> VectorForm:
    """N_(j0, D)(X, Y) = [j0 X, D Y] + [D X, j0 Y] - j0 [X, D Y]
    - j0 [D X, Y] - D [X, j0 Y] - D [j0 X, Y] on basis fields: the
    Froelicher-Nijenhuis bracket [j0, D] of the two vector-valued 1-forms.
    The bracket is bilinear and symmetric on 1-forms and the torsion T(K)
    (torsion_jets uncut) is [K, K]/2, so [j0, D] = T(j0 + D) - T(j0) - T(D)."""
    t_sum, t_j0, t_d = (torsion_jets(cols, math.inf) for cols in (
        [poly.vec_add(a, b) for a, b in zip(j0_cols, delta_cols)], j0_cols, delta_cols))
    return VectorForm(dim, 2, {
        p: poly.vec_sub(poly.vec_sub(t_sum[p], t_j0[p]), t_d[p]) for p in t_sum})


# ---------------------------------------------------------------------------
# identity checks used by the validation suite
# ---------------------------------------------------------------------------

def _first_nonzero(t: PointTensor) -> Optional[Index]:
    """The first index tuple, in sorted order, with a nonzero entry."""
    return next((idx for idx in sorted(t.entries) if any(t.entries[idx])), None)


def first_differential_antilinearity_defect(j: StructureField,
                                            point: Sequence) -> Optional[Index]:
    """First basis pair where dj(J x, y) != -J dj(x, y), or None: the first
    nonzero entry of the sum of the two sides."""
    field = VectorForm.from_columns(j.jet(point, 1))
    j_at, dj = jet_differential(field, 0), jet_differential(field, 1)
    return _first_nonzero(contraction_sum(
        j.dim, j.dim, 2, [(1, dj, j_at, 0, None), (1, j_at, dj, None, None)]))


def second_differential_identity_defect(j: StructureField,
                                        point: Sequence) -> Optional[Index]:
    """First basis triple violating
    d2j(Jx, y, z) = -J d2j(x, y, z) - dj(dj(x, z), y) - dj(dj(x, y), z):
    the first nonzero entry of the sum of the four terms, the third
    computed in the slot order (x, z, y)."""
    field = VectorForm.from_columns(j.jet(point, 2))
    j_at = jet_differential(field, 0)
    dj, d2j = jet_differential(field, 1), jet_differential(field, 2)
    return _first_nonzero(contraction_sum(j.dim, j.dim, 3, [
        (1, d2j, j_at, 0, None), (1, j_at, d2j, None, None),
        (1, dj, dj, 0, (0, 2, 1)), (1, dj, dj, 0, None)]))
