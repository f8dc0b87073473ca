"""Torsion invariants of structure fields, each by two independent routes.

The chart carries the flat connection, so differentials of tensor fields
are plain iterated partial derivatives: form slots first, derivative
slots last.  The torsion tensor is computed both from vector-field
brackets and from the first differential of the structure; the arity-4
invariant both from the ten-term bracket expression and from the
R-contraction of the torsion differential.  Disagreement between routes
is an internal error, never silently resolved.

The routes are different formulas run by the same kernels, on integer
readings from the jet to the cross-check: d^p of a jet is a tensor built
from its numerators (jet_differential), each route is a sum of
contractions whose tensor feeds the next; routes are compared by the
first index where their rows differ (first_difference), an identity
checked by the first nonzero of a sum (first_nonzero_sum).
jet_differential and the arity-4 routes return tensors on integers, for
the next contraction; a result a caller reads (the torsion, the arity-4
invariant, nijenhuis_differential) comes with its Fraction entries built.
The torsion jets are one integer pass over J's columns (poly.jet_torsion).

The two routes of each invariant do not do the same work.  One computes
every entry: the first-differential torsion and the R-contraction of the
arity-4 invariant.  The other sums only what its symmetry needs and fills
the rest by sign: the bracket torsion at the pairs a < b, the bracket
arity-4 invariant at the pair-pattern representatives from W summed where
both pairs are sorted.  The cross-check compares every index tuple, so it
certifies the symmetry as well as the values.

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
from typing import Dict, List, Optional, Sequence, Tuple

from . import poly
from .forms import VectorForm
from .poly import PolyVec
from .structures import StructureField, standard_matrix
from .tensor import (Index, PointTensor, alternating_rep, contraction_sum, dense_row,
                     first_difference, first_nonzero_sum, pair_pattern_rep, solution_basis,
                     unit_basis)

# the 2-jet of J at a point and the 1-jets of the torsion fields there
Arity4Jets = Tuple[List[PolyVec], Dict[Index, PolyVec]]


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed."""


def jet_differential(field: VectorForm, p: int) -> PointTensor:
    """d^p at the base point of a vector-valued form given by its jet there.

    field holds the jet of the form, known to order p at least
    (StructureField.jet, torsion_jets), and is read at every basis tuple
    of its degree slots, by sign from the sorted tuple.  The p derivative
    slots come last: the entry at (idx, c_1, .., c_p) is the coefficient of
    y^alpha in the value on idx times alpha!, where alpha counts the
    directions c_i.  The tensor is built from its integer reading, one
    walk over the numerators of the degree-p coefficients.
    """
    if p < 0:
        raise ValueError(f"jet differential order {p} is negative")
    dim = field.dim
    dirs = [(d, tuple(d.count(k) for k in range(dim)))
            for d in itertools.product(range(dim), repeat=p)]
    # (key, alpha) -> (i, numerator, denominator) of alpha! (y^alpha at key)_i
    coeffs = {}
    for alpha in dict.fromkeys(alpha for _, alpha in dirs):
        w = math.prod(map(math.factorial, alpha))
        for key, vec in field.entries.items():
            if row := [(i, *(c if w == 1 else w * c).as_integer_ratio())
                       for i, comp in enumerate(vec) if (c := comp.get(alpha))]:
                coeffs[key, alpha] = row
    den = math.lcm(*(d for row in coeffs.values() for _, _, d in row))
    # by sign, the numerators over den of the components times sign
    signed = {s: {k: [(i, s * n * (den // d)) for i, n, d in row] for k, row in coeffs.items()}
              for s in (1, -1)} | {0: {}}
    rows = {base + d: signed[sign].get((key, alpha), [])
            for base in itertools.product(range(dim), repeat=field.degree)
            for key, sign in [alternating_rep(base)] for d, alpha in dirs}
    return PointTensor.from_rows(dim, dim, field.degree + p, den, rows)


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
    gap, so positions in the pair order never move; a negative order raises.
    """
    if order < 0:
        raise ValueError(f"torsion jet order {order} is negative")
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


def _with_entries(t: PointTensor) -> PointTensor:
    """t, its Fraction entries built: the call returning a result pays for its values."""
    t.entries  # computed on first use and kept
    return t


def torsion_from_jets(jet: List[PolyVec], n_jets: Dict[Index, PolyVec]) -> PointTensor:
    """Torsion at the base point of jet, a jet of J of order 1 or more, and
    n_jets = torsion_jets(jet, order) for any order >= 0; raises if the two
    routes disagree there.

    Both routes read only degree <= 1 of jet: the bracket route is the
    value of the 2-form n_jets, filled by sign from the pairs a < b, the
    other the first-differential formula, which computes every entry, so
    their agreement certifies antisymmetry too; only the returned tensor
    gets Fractions.  Callers that already hold higher jets (classify) pass
    them and build nothing twice.
    """
    bracket = jet_differential(VectorForm(len(jet), 2, n_jets), 0)
    idx = first_difference(bracket, _torsion_first_differential(jet))
    if idx is not None:
        raise InternalInconsistencyError(f"torsion routes disagree at basis pair {idx}")
    return _with_entries(bracket)


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


def _at_sorted_pairs(t: PointTensor) -> PointTensor:
    """t with its rows kept only where its first two slots, a pair of
    form slots, are sorted a < b: the other rows are empty, so the
    contraction kernel skips them."""
    return PointTensor.from_rows(t.dim_in, t.dim_out, t.arity, t.den, {
        idx: row if idx[0] < idx[1] else () for idx, row in t.rows.items()})


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

    W is one contraction sum of six terms, the last four computed in the
    slot orders (c, d, a, b) and (a, c, d, b), summed only where both
    pairs are sorted, a < b and c < d: dN, dJN and the N and JN fed into
    slots hold rows only at sorted form slots (_at_sorted_pairs), and the
    kernel skips the empty ones.  H is read at the pair-pattern
    representatives, a < b, c < d and (a, b) < (c, d), as the difference
    of two such rows of W, and every other tuple is filled by sign
    (PointTensor.from_orbit_rows), so H has the pair pattern by
    construction; higher_nijenhuis compares it with the differential
    route, which computes every entry, at all dim^4 tuples.
    """
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    dim = len(jet)
    n_field = VectorForm(dim, 2, n_jets)
    jn_field = VectorForm(dim, 2, dict(zip(n_jets, poly.jet_apply_columns(
        jet, list(n_jets.values()), 1))))
    n_at, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    jn_at, djn = jet_differential(jn_field, 0), jet_differential(jn_field, 1)
    n_in, jn_in, dn, djn = map(_at_sorted_pairs, (n_at, jn_at, dn, djn))
    w = contraction_sum(dim, dim, 4, [
        (1, dn, jn_in, 2, None), (1, djn, n_in, 2, None),
        (1, n_at, djn, 0, (2, 3, 0, 1)), (1, jn_at, dn, 0, (2, 3, 0, 1)),
        (1, n_at, djn, 1, (0, 2, 3, 1)), (1, jn_at, dn, 1, (0, 2, 3, 1))])
    rows = w.rows

    def difference(r: Index) -> List[Tuple[int, int]]:
        row = dense_row(rows[r], dim)
        for i, n in rows[r[2:] + r[:2]]:
            row[i] -= n
        return [(i, n) for i, n in enumerate(row) if n]

    return PointTensor.from_orbit_rows(dim, dim, 4, pair_pattern_rep, w.den, difference)


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
    Every entry is computed, none filled by sign, and R stays on integers."""
    jet, n_jets = jets if jets is not None else _arity4_jets(j, point)
    dim = len(jet)
    j_field, n_field = VectorForm.from_columns(jet), VectorForm(dim, 2, n_jets)
    j_at, dj = jet_differential(j_field, 0), jet_differential(j_field, 1)
    n, dn = jet_differential(n_field, 0), jet_differential(n_field, 1)
    r = contraction_sum(dim, dim, 3, [
        (1, dn, j_at, 2, None), (1, j_at, dn, None, None), (1, n, dj, 0, (2, 0, 1)),
        (-1, dj, n, 1, (2, 0, 1)), (1, n, dj, 1, (0, 2, 1))])
    return contraction_sum(dim, dim, 4, [(1, r, n, 2, None), (-1, r, n, 2, (2, 3, 0, 1))])


def higher_nijenhuis(j: StructureField, point: Sequence) -> PointTensor:
    """Arity-4 invariant at the point; raises if the two routes disagree.

    Both routes are sums of contractions of different tensors off the same
    jets, built once here: dN, dJN, N and JN for the bracket route, J, dj,
    N and dN for the differential route.  The bracket route sums W where
    both pairs are sorted, reads H at the pair-pattern representatives and
    fills every other tuple by sign, so it has the pair pattern by
    construction; the differential route computes every entry.  Their
    agreement at all dim^4 tuples (first_difference) certifies the pair
    pattern as well as the values.
    """
    jets = _arity4_jets(j, point)
    h = higher_nijenhuis_differential(j, point, jets)
    bracket = higher_nijenhuis_bracket(j, point, jets)
    idx = first_difference(bracket, h)
    if idx is not None:
        raise InternalInconsistencyError(f"arity-4 routes disagree at basis tuple {idx}")
    return _with_entries(h)


def nijenhuis_differential(j: StructureField, p: int, point: Sequence) -> PointTensor:
    """d^p of the torsion field at the point (arity 2 + p), from the
    order-p torsion jets."""
    jet = j.jet(point, p + 1)
    return _with_entries(jet_differential(VectorForm(j.dim, 2, torsion_jets(jet, p)), p))


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

def first_differential_antilinearity_defect(j: StructureField,
                                            point: Sequence) -> Optional[Index]:
    """First basis pair where dj(J x, y) != -J dj(x, y), or None: the first
    nonzero entry of the sum of the two sides (first_nonzero_sum)."""
    field = VectorForm.from_columns(j.jet(point, 1))
    j_at, dj = jet_differential(field, 0), jet_differential(field, 1)
    hit = first_nonzero_sum(j.dim, j.dim, 2, [[(1, dj, j_at, 0, None), (1, j_at, dj, None, None)]])
    return hit and hit[0]


def second_differential_identity_defect(j: StructureField,
                                        point: Sequence) -> Optional[Index]:
    """First basis triple violating
    d2j(Jx, y, z) = -J d2j(x, y, z) - dj(dj(x, z), y) - dj(dj(x, y), z):
    the first nonzero entry of the sum of the four terms, the third
    computed in the slot order (x, z, y)."""
    field = VectorForm.from_columns(j.jet(point, 2))
    j_at, dj, d2j = (jet_differential(field, p) for p in (0, 1, 2))
    hit = first_nonzero_sum(j.dim, j.dim, 3, [[
        (1, d2j, j_at, 0, None), (1, j_at, d2j, None, None),
        (1, dj, dj, 0, (0, 2, 1)), (1, dj, dj, 0, None)]])
    return hit and hit[0]
