"""Pointwise classification data extracted from the torsion of a structure.

Four-dimensional structures with nonzero torsion carry a flag of
distributions: the image plane of the torsion tensor, its first derived
space, and (when the flag keeps growing) the full tangent space.  From the
flag one builds an adapted frame (xi1..xi4) normalized by the relations

    N(xi1, xi3) = xi1,   N(xi2, xi3) = -xi2,
    N(xi1, xi4) = xi2,   N(xi2, xi4) = xi1,        xi2 = j xi1,

together with the line pair (U1, U2), affine normalization data for the
xi3 and xi4 directions, and orientation signs.  The eigenline step may
leave the rationals; scalars are then exact elements of a quadratic
extension Q(sqrt(d)).

The pointwise data come from jets at the point, never from global
fields: the torsion generators N(e_a, e_b) are expanded in the offset
from the point (invariants.torsion_jets), the frame reads their 1-jets
(values and the first derived space, from bracket values
[X, Y](p) = DY(p) X(p) - DX(p) Y(p)), and the Tanaka forms read their
2-jets, built only once the frame exists.  The global constructions
(pi2, derived_distribution) remain for callers that want the
distributions as polynomial modules.

Separately, lie_check decides whether the torsion product N(., .) obeys
the composition law N(x, N(y, z)) = 0, reporting the image span, the
annihilator, a filtration by images of torsion derivatives, and graded
bracket constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg, poly
from .forms import VectorForm, algebraic_bracket, fn_bracket
from .genpos import annihilator
from .invariants import (InternalInconsistencyError, jet_differential,
                         nijenhuis_field_bracket, nijenhuis_tensor, torsion_jets)
from .quadext import QuadExt, sqrt_exact
from .structures import StructureError, StructureField
from .tensor import PointTensor, kernel_matrix

Scalar = Union[Fraction, QuadExt]
Vec = List[Scalar]


class HypothesisError(StructureError):
    """A construction hypothesis fails at the point; `stage` says which.

    stage is "torsion" (the torsion tensor vanishes), "derived" (the first
    derived space does not have dimension 3), or "second_derived" (the
    flag stops before filling the tangent space).
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


# ---------------------------------------------------------------------------
# scalar helpers: Fraction and QuadExt mix via the reflected operators
# ---------------------------------------------------------------------------

def _sign(s: Scalar) -> int:
    if isinstance(s, QuadExt):
        return s.sign()
    return -1 if s < 0 else (1 if s > 0 else 0)


def _coords_in(basis: List[Sequence[Scalar]],
               target: Sequence[Scalar]) -> Optional[Vec]:
    """target = sum c_i basis[i], or None."""
    rows = [[b[i] for b in basis] for i in range(len(target))]
    return linalg.solve(rows, list(target))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """A module of polynomial vector fields with its fiber at a base point."""

    rank: int
    generators: Tuple[Tuple[poly.Poly, ...], ...]
    fiber: Tuple[Tuple[Fraction, ...], ...]
    base_point: Tuple[Fraction, ...]
    dim: int


def make_distribution(generators: Sequence[Sequence[poly.Poly]],
                      point: Sequence) -> Distribution:
    """Bundle polynomial generator fields with their evaluated fiber."""
    gens = tuple(tuple(g) for g in generators if not poly.vec_is_zero(list(g)))
    if not gens:
        raise StructureError("no nonzero generators")
    dim = len(gens[0])
    fiber = linalg.span_basis([poly.vec_eval(list(g), point) for g in gens])
    return Distribution(rank=len(fiber), generators=gens,
                        fiber=tuple(tuple(v) for v in fiber),
                        base_point=tuple(Fraction(c) for c in point), dim=dim)


def _torsion_generators(j: StructureField) -> List[List[poly.Poly]]:
    """The global torsion fields N(e_a, e_b), a < b, that do not vanish."""
    return [g for g in torsion_jets(j.cols, math.inf).values()
            if not poly.vec_is_zero(g)]


def pi2(j: StructureField, point: Sequence) -> Distribution:
    """Image plane of the torsion tensor as a distribution, at a point.

    Needs a four-dimensional structure whose torsion does not vanish at
    the point.  The image span is then two-dimensional and closed under
    j; both facts follow from the pair symmetries and are asserted.
    """
    if j.dim != 4:
        raise StructureError("the image-plane construction needs dimension 4")
    gens = _torsion_generators(j)
    if not gens:
        raise HypothesisError("torsion", "torsion vanishes identically")
    dist = make_distribution(gens, point)
    _check_torsion_plane([list(v) for v in dist.fiber], j.eval_matrix(point))
    return dist


def _check_torsion_plane(fiber: List[Vec], jm: List[List[Fraction]]) -> None:
    """The torsion image at the point, given by a basis, must be nonzero;
    it is then a j-closed plane by the pair symmetries, which is asserted."""
    if not fiber:
        raise HypothesisError("torsion", "torsion vanishes at the point")
    if len(fiber) != 2:
        raise InternalInconsistencyError(
            f"torsion image has rank {len(fiber)}, expected 2")
    for v in fiber:
        if not linalg.in_span(linalg.mat_vec(jm, v), fiber):
            raise InternalInconsistencyError("torsion image is not j-closed")


def derived_distribution(dist: Distribution, point: Sequence) -> Distribution:
    """D + [D, D], with the fiber taken at the point.

    Brackets of the listed generators suffice: bracketing f X with g Y
    differs from fg [X, Y] by terms valued in the module itself, so the
    fiber needs no products with coordinate functions and no degree cap.
    """
    gens = [list(g) for g in dist.generators]
    # a bracket has degree below twice the generators' degree: no cut
    cut = 2 * max(poly.total_degree(c) for g in gens for c in g)
    pairs = list(itertools.combinations(range(len(gens)), 2))
    return make_distribution(gens + poly.jet_brackets(gens, pairs, cut), point)


def _values(jets: Sequence[Sequence[poly.Poly]]) -> List[Vec]:
    """Values at the base point of vector-field jets."""
    return [[poly.constant_term(c) for c in f] for f in jets]


def _derived_fiber(gens: List[List[poly.Poly]]) -> List[Vec]:
    """Fiber of D + [D, D] at the point, from the generators' 1-jets:
    their values and the bracket values [g_i, g_k](p), i < k.

    gens lists the torsion fields N(e_a, e_b), a < b, as torsion_jets
    gives them.  Unlike the global generator list of pi2, a field that
    vanishes identically stays, as a zero jet; it adds only zero columns,
    so spans and the particular solutions of the frame solves come out
    the same.
    """
    pairs = list(itertools.combinations(range(len(gens)), 2))
    return linalg.span_basis(
        _values(gens) + _values(poly.jet_brackets(gens, pairs, 0)))


def _second_level(gens: List[List[poly.Poly]]) -> Tuple[List[Vec], List[List[Vec]]]:
    """Values at the point of the flag's level one and level two, from the
    generators' 2-jets.

    Level one lists the generators, then their brackets [g_i, g_k] for the
    ordered pairs i != k (the bracket is computed once per unordered pair,
    as a 1-jet).  The second result is top[i][k] = [g_i, level1_k](p); the
    second derived space is spanned by level one and top.
    """
    n = len(gens)
    pairs = list(itertools.combinations(range(n), 2))
    half = dict(zip(pairs, poly.jet_brackets(gens, pairs, 1)))
    level1 = gens + [half[(i, k)] if i < k else [poly.neg(c) for c in half[(k, i)]]
                     for i in range(n) for k in range(n) if i != k]
    # level1 starts with the generators, so jet_brackets can index into it
    top_pairs = [(i, k) for i in range(n) for k in range(len(level1))]
    top_vals = _values(poly.jet_brackets(level1, top_pairs, 0))
    m = len(level1)
    return _values(level1), [top_vals[i * m:(i + 1) * m] for i in range(n)]


# ---------------------------------------------------------------------------
# the adapted frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UTXiFrame:
    """Adapted frame at a point: lines, normalization data, signs.

    xi3 is pinned up to shifts by the image plane and the half-space sign;
    t_metric stores the chosen representative (the invariant datum is the
    affine pair +-xi3 + plane).  xi4 is pinned by N(xi1, xi4) = xi2 up to
    plane shifts; xi_metric stores the representative.  Scalars live in Q,
    or in Q(sqrt(d)) with d = field_discriminant.
    """

    xi1: Tuple[Scalar, ...]
    xi2: Tuple[Scalar, ...]
    xi3: Tuple[Scalar, ...]
    xi4: Tuple[Scalar, ...]
    u1: Tuple[Scalar, ...]
    u2: Tuple[Scalar, ...]
    t_metric: Tuple[Scalar, ...]
    xi_metric: Tuple[Scalar, ...]
    t_orientation: int
    xi_orientation: int
    plane: Tuple[Tuple[Fraction, ...], ...]
    field_discriminant: Optional[Fraction]
    base_point: Tuple[Fraction, ...]


def _eigvec(m: List[List[Fraction]], lam: Scalar) -> Vec:
    w: Vec = [m[0][1], lam - m[0][0]]
    if linalg.vec_is_zero(w):
        w = [lam - m[1][1], m[1][0]]
    return w


def _frame_ingredients(j: StructureField, point: Sequence):
    """Shared start of the frame ops: plane, raw xi3, torsion, pairing
    matrix and J at the point, all from the 2-jet of J there."""
    if j.dim != 4:
        raise StructureError("the image-plane construction needs dimension 4")
    jet = j.jet(point, 2)
    gens = list(torsion_jets(jet, 1).values())
    gen_vals = _values(gens)
    fiber = linalg.span_basis(gen_vals)
    jm = [[poly.constant_term(col[i]) for col in jet] for i in range(4)]
    _check_torsion_plane(fiber, jm)
    derived = _derived_fiber(gens)
    if len(derived) == 2:
        raise HypothesisError(
            "derived", "the first derived space equals the image plane")
    if len(derived) == 4:
        raise HypothesisError(
            "derived", "the first derived space already fills the tangent "
            "space; the frame construction needs the corank-1 case")
    xi3_raw = next(v for v in derived if not linalg.in_span(v, fiber))
    n_at = nijenhuis_tensor(j, point)
    b1, b2 = fiber
    m_cols = []
    for b in (b1, b2):
        coords = _coords_in([b1, b2], n_at.apply([b, xi3_raw]))
        if coords is None:
            raise InternalInconsistencyError(
                "pairing against the derived direction leaves the plane")
        m_cols.append(coords)
    m = [[m_cols[0][0], m_cols[1][0]], [m_cols[0][1], m_cols[1][1]]]
    return fiber, xi3_raw, n_at, m, jm


def utxi_invariant(j: StructureField, point: Sequence,
                   xi3_choice: Optional[Sequence] = None) -> UTXiFrame:
    """Adapted frame from the torsion flag at a point.

    Hypotheses (a HypothesisError names the failing stage): nonzero
    torsion at the point, and a three-dimensional first derived space of
    the image plane.  The two invariant lines of eta -> N(eta, xi3) on
    the plane fix xi1 and xi2 = j xi1; the positive eigenvalue rescales
    xi3; xi4 solves N(xi1, xi4) = xi2 and never lies in the derived
    space, so it completes the basis.

    xi3_choice overrides the canonical derived-direction pick; it must
    lie in the derived space but not in the plane.  Shifting the choice
    by plane vectors changes nothing but the stored representative;
    choosing the opposite half-space interchanges the lines U1 and U2.
    """
    plane, xi3_raw, n_at, m, jm = _frame_ingredients(j, point)
    b1, b2 = plane
    if m[0][0] + m[1][1] != 0:
        raise InternalInconsistencyError("plane pairing map has a trace")
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det >= 0:
        raise InternalInconsistencyError(
            "plane pairing map does not reverse orientation")
    lam = sqrt_exact(-det)
    disc = lam.d if isinstance(lam, QuadExt) else None

    if xi3_choice is None:
        chosen: Vec = list(xi3_raw)
    else:
        if len(xi3_choice) != 4:
            raise StructureError("xi3 choice has wrong length")
        if any(isinstance(c, float) for c in xi3_choice):
            raise StructureError(f"float in xi3 choice {list(xi3_choice)!r}: must be exact")
        chosen = [c if isinstance(c, QuadExt) else Fraction(c)
                  for c in xi3_choice]
    coords = _coords_in([b1, b2, xi3_raw], chosen)
    if coords is None:
        raise StructureError("xi3 choice is outside the derived space")
    alpha = coords[2]
    if alpha == 0:
        raise StructureError("xi3 choice lies in the image plane")
    orient = _sign(alpha)
    target = lam if orient > 0 else -1 * lam

    w = _eigvec(m, target)
    xi1 = linalg.vec_add(linalg.vec_scale(b1, w[0]), linalg.vec_scale(b2, w[1]))
    lead = next(c for c in xi1 if c != 0)
    xi1 = linalg.vec_scale(xi1, 1 / lead)
    xi2 = PointTensor.from_matrix(jm).apply([xi1])

    scale = (alpha if orient > 0 else -1 * alpha) * lam
    xi3 = linalg.vec_scale(chosen, 1 / scale)

    xi4 = linalg.solve(kernel_matrix(n_at, xi1), list(xi2))
    if xi4 is None:
        raise InternalInconsistencyError("no solution for the fourth frame vector")
    if _coords_in([b1, b2, xi3_raw], xi4) is not None:
        raise InternalInconsistencyError(
            "fourth frame vector fell inside the derived space")

    checks = [
        (n_at.apply([xi1, xi3]), list(xi1)),
        (n_at.apply([xi2, xi3]), linalg.vec_scale(xi2, Fraction(-1))),
        (n_at.apply([xi1, xi4]), list(xi2)),
        (n_at.apply([xi2, xi4]), list(xi1)),
    ]
    for got, want in checks:
        if got != want:
            raise InternalInconsistencyError("frame relation failed exactly")

    return UTXiFrame(
        xi1=tuple(xi1), xi2=tuple(xi2), xi3=tuple(xi3), xi4=tuple(xi4),
        u1=tuple(xi1), u2=tuple(xi2),
        t_metric=tuple(xi3), xi_metric=tuple(xi4),
        t_orientation=orient, xi_orientation=1,
        plane=tuple(tuple(v) for v in plane),
        field_discriminant=disc,
        base_point=tuple(Fraction(c) for c in point))


# ---------------------------------------------------------------------------
# graded bracket forms on the full flag
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TanakaForms:
    """Frame scalars of the two bracket-induced forms on the flag.

    omega2 is the single scalar of the pairing U1 x U2 into the level-3
    direction; omega1 holds the values on xi1 and xi2 of the pairing
    against the level-3 direction into the top quotient line.
    """

    omega2: Scalar
    omega1: Tuple[Scalar, Scalar]
    frame: UTXiFrame


def _bracket_scalar(coeffs_a: Vec, coeffs_b: Vec, values: List[List[Vec]],
                    frame_basis: List[Vec], component: int) -> Scalar:
    """Frame component of [sum a_i A_i, sum b_k B_k] at the point, where
    values[i][k] = [A_i, B_k](p).

    Constant coefficients keep the bracket bilinear, so its value is the
    double sum of a_i b_k values[i][k]; the frame is a basis, so that sum
    is solved for its frame coordinates once.
    """
    total: Vec = [Fraction(0)] * len(frame_basis)
    for ca, row in zip(coeffs_a, values):
        for cb, val in zip(coeffs_b, row):
            if ca != 0 and cb != 0 and not linalg.vec_is_zero(val):
                total = linalg.vec_add(total, linalg.vec_scale(val, ca * cb))
    coords = _coords_in(frame_basis, total)
    if coords is None:
        raise InternalInconsistencyError("bracket value outside the frame span")
    return coords[component]


def tanaka_forms(j: StructureField, point: Sequence,
                 xi3_choice: Optional[Sequence] = None) -> TanakaForms:
    """Bracket-induced forms on the flag, as exact frame scalars.

    Needs the full flag: plane of rank 2, first derived space of rank 3,
    second step filling the tangent space; a HypothesisError names the
    first failing stage.  omega2 is the xi3-component of a bracket of
    plane sections through xi1 and xi2; omega1 pairs plane sections
    against a section through xi3 and reads the xi4-component.  Both are
    fiber values, independent of the section choices.  Only values at
    the point enter, so the generators' 2-jets suffice (_second_level).
    """
    frame = utxi_invariant(j, point, xi3_choice=xi3_choice)
    gens = list(torsion_jets(j.jet(point, 3), 2).values())
    level1_vals, top = _second_level(gens)
    flag = linalg.Echelon()
    seen = set()
    for v in itertools.chain(level1_vals, *top):
        key = tuple(v)
        if key not in seen:
            seen.add(key)
            if flag.insert(v) and flag.rank == 4:
                break
    if flag.rank != 4:
        raise HypothesisError(
            "second_derived", "the flag stops before filling the tangent space")

    frame_basis: List[Vec] = [list(frame.xi1), list(frame.xi2),
                              list(frame.xi3), list(frame.xi4)]
    c1 = _coords_in(level1_vals[:len(gens)], frame.xi1)
    c2 = _coords_in(level1_vals[:len(gens)], frame.xi2)
    if c1 is None or c2 is None:
        raise InternalInconsistencyError("frame vectors escape the plane module")
    omega2 = _bracket_scalar(c1, c2, top, frame_basis, 2)

    c3 = _coords_in(level1_vals, frame.xi3)
    if c3 is None:
        raise InternalInconsistencyError("xi3 escapes the derived module")
    w1 = _bracket_scalar(c1, c3, top, frame_basis, 3)
    w2 = _bracket_scalar(c2, c3, top, frame_basis, 3)
    return TanakaForms(omega2=omega2, omega1=(w1, w2), frame=frame)


# ---------------------------------------------------------------------------
# the Lie verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieWitness:
    """A failing instance N(e_a, N(e_b, e_c)) != 0 with an evaluation point."""

    indices: Tuple[int, int, int]
    point: Tuple[Fraction, ...]
    value: Tuple[Fraction, ...]


@dataclass(frozen=True)
class LieReport:
    is_lie: bool
    pi_basis: Tuple[Tuple[Fraction, ...], ...]
    annihilator_basis: Tuple[Tuple[Fraction, ...], ...]
    filtration: Optional[Tuple[Tuple[Tuple[Fraction, ...], ...], ...]]
    graded_levels: Optional[Tuple[int, ...]]
    graded_brackets: Optional[Dict[Tuple[int, int], Tuple[Fraction, ...]]]
    witness: Optional[LieWitness]


def _witness_point(residual: List[poly.Poly], samples: List[List[Fraction]],
                   dim: int) -> Tuple[List[Fraction], List[Fraction]]:
    for pt in samples:
        val = poly.vec_eval(residual, pt)
        if any(val):
            return [Fraction(c) for c in pt], val
    # a nonzero polynomial of total degree k cannot vanish on {0..k}^dim
    deg = max(poly.total_degree(p) for p in residual)
    for pt in itertools.product(range(deg + 1), repeat=dim):
        val = poly.vec_eval(residual, pt)
        if any(val):
            return [Fraction(c) for c in pt], val
    raise InternalInconsistencyError("nonzero residual with no witness point")


def _product_vanishes_at(n_at: PointTensor) -> bool:
    dim = n_at.dim_in
    for b in range(dim):
        for c in range(b + 1, dim):
            inner = n_at.entries[(b, c)]
            if not any(inner):
                continue
            for e in linalg.identity(dim):
                if any(n_at.apply([e, inner])):
                    return False
    return True


def lie_check(j: StructureField, sample_points: Sequence[Sequence]) -> LieReport:
    """Decide whether the torsion product satisfies N(x, N(y, z)) = 0.

    The product of the polynomial entry fields is expanded symbolically,
    so the verdict is exact rather than sampled.  At each sample point
    the report also checks the pointwise equivalence with the inclusion
    of the image span in the annihilator, which is the algebraic form of
    the same law.  On a Lie verdict the filtration by images of torsion
    derivatives at the first sample point is returned, with the graded
    bracket constants and the rank-2 solvability check.
    """
    if not sample_points:
        raise StructureError("need at least one sample point")
    dim = j.dim
    nf = nijenhuis_field_bracket(j)
    is_lie = True
    witness = None
    for a in range(dim):
        row = [nf.value_on_basis((a, i)) for i in range(dim)]
        for b in range(dim):
            for c in range(b + 1, dim):
                residual = poly.apply_columns(row, nf.value_on_basis((b, c)))
                if not poly.vec_is_zero(residual):
                    is_lie = False
                    pt, val = _witness_point(
                        residual, [list(p) for p in sample_points], dim)
                    witness = LieWitness(indices=(a, b, c), point=tuple(pt),
                                         value=tuple(val))
                    break
            if witness:
                break
        if witness:
            break

    n_first = pi_basis = ann_basis = None
    for pt in sample_points:
        n_at = nijenhuis_tensor(j, pt)
        image = linalg.span_basis(
            [n_at.entries[(a, b)] for a in range(dim)
             for b in range(a + 1, dim)])
        ann = annihilator(n_at, linalg.identity(dim))
        included = all(linalg.in_span(list(v), ann) for v in image)
        if included != _product_vanishes_at(n_at):
            raise InternalInconsistencyError(
                "pointwise product law disagrees with the inclusion test")
        if n_first is None:
            n_first, pi_basis, ann_basis = n_at, image, ann

    first = list(sample_points[0])
    filtration = levels = brackets = None
    if is_lie:
        filtration, levels, brackets = _graded_report(nf, first, n_first)
    return LieReport(
        is_lie=is_lie,
        pi_basis=tuple(tuple(v) for v in pi_basis),
        annihilator_basis=tuple(tuple(v) for v in ann_basis),
        filtration=filtration, graded_levels=levels, graded_brackets=brackets,
        witness=witness)


def bracket_identity_report(j: StructureField) -> Dict[str, bool]:
    """Five bracket identities of the structure form J and the torsion form N.

    Each key maps to whether its identity holds exactly, as polynomials:
    jj_algebraic_zero ([J, J] algebraic = 0), jj_fn_is_twice_torsion
    ([J, J] Froelicher-Nijenhuis = 2 N, the calibration anchor, which
    holds for every structure), nn_algebraic_zero, nn_fn_zero and
    jn_fn_zero.  The report decides no verdict: on the bundled examples
    nn_algebraic_zero is False for ex2 and ex5 and True for ex6, the one
    with a Lie verdict, while nn_fn_zero and jn_fn_zero hold on all three.
    """
    jf = VectorForm.from_structure(j)
    nf = nijenhuis_field_bracket(j)
    return {
        "jj_algebraic_zero": algebraic_bracket(jf, jf).is_zero(),
        "jj_fn_is_twice_torsion": fn_bracket(jf, jf) == nf.scale(Fraction(2)),
        "nn_algebraic_zero": algebraic_bracket(nf, nf).is_zero(),
        "nn_fn_zero": fn_bracket(nf, nf).is_zero(),
        "jn_fn_zero": fn_bracket(jf, nf).is_zero(),
    }


def _graded_report(nf: VectorForm, point: Sequence, n_at: PointTensor):
    """Filtration by images of torsion derivatives, plus bracket constants.

    Level k collects the image spans of the derivative tensors up to
    order k; the filtration stabilizes once k passes the entry degree of
    the torsion field, so shifting the torsion entries to the point to
    that degree makes every derivative a jet lookup.  Bracket constants
    expand N on lifted level representatives over the lifted basis.  A
    Lie verdict forces the second commutant span N(Im N, Im N) to vanish,
    asserted at the end.
    """
    dim = nf.dim
    max_deg = max((poly.total_degree(p) for e in nf.entries.values()
                   for p in e if not poly.is_zero(p)), default=0)
    shifted = VectorForm(dim, 2, {idx: [poly.shift(c, point, max_deg) for c in val]
                                  for idx, val in nf.entries.items()})
    spans: List[List[List[Fraction]]] = []
    current: List[List[Fraction]] = []
    for k in range(max_deg + 1):
        d = jet_differential(shifted, k)
        vals = [v for v in d.entries.values() if any(v)]
        current = linalg.span_basis(current + vals)
        spans.append(current)
        if len(current) == dim:
            break
    lifted: List[List[Fraction]] = []
    levels: List[int] = []
    echelon = linalg.Echelon()
    for k, basis in enumerate(spans):
        for v in basis:
            if echelon.insert(v):
                lifted.append(v)
                levels.append(k)
    brackets: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    for i in range(len(lifted)):
        for k in range(len(lifted)):
            val = n_at.apply([lifted[i], lifted[k]])
            if not any(val):
                continue
            coords = _coords_in(lifted, val)
            if coords is None:
                raise InternalInconsistencyError(
                    "graded bracket value escapes the filtration")
            brackets[(i, k)] = tuple(coords)
    image = [list(v) for v in spans[0]]
    for u in image:
        for v in image:
            if any(n_at.apply([u, v])):
                raise InternalInconsistencyError(
                    "second commutant of a Lie verdict is nonzero")
    return (tuple(tuple(tuple(c) for c in s) for s in spans),
            tuple(levels), brackets)
