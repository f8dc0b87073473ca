"""Almost complex structure fields on a chart and their construction.

A StructureField is a 2n x 2n matrix of polynomials in the chart
coordinates x1..x2n; column j is the image of the basis field e_{j+1}.
The defining identity J^2 = -I either holds exactly or all entries of
J^2 + I vanish to some order at a base point, which is exactly what the
jet-level computations need; validate reports which, and to what order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg, poly
from .poly import Poly, PolyVec
from .tensor import PointTensor, alternating_rep, first_nonzero_sum, slot_compose


class StructureError(ValueError):
    """Malformed or invalid structure input."""


class StructureField:
    """Polynomial matrix field J(x) with J(x)^2 = -I (exactly or to order)."""

    def __init__(self, cols: List[PolyVec], name: str = ""):
        dim = len(cols)
        if dim % 2 != 0 or dim == 0:
            raise StructureError(f"dimension {dim} is not a positive even number")
        for j, col in enumerate(cols):
            if len(col) != dim:
                raise StructureError("matrix is not square")
            for i, p in enumerate(col):
                for e, c in p.items():
                    if c is None or isinstance(c, (float, str)) or len(e) != dim:
                        raise StructureError(f"entry ({i}, {j}) has the term {c!r} at {e!r}: "
                                             f"coefficients must be exact, exponents of length {dim}")
        self.dim = dim
        self.cols = cols
        self.name = name

    # column j (0-based) = J e_{j+1}
    def column(self, j: int) -> PolyVec:
        return self.cols[j]

    def entry(self, i: int, j: int) -> Poly:
        return self.cols[j][i]

    def eval_matrix(self, point: Sequence) -> List[List[Fraction]]:
        return [[poly.eval_poly(self.cols[j][i], point) for j in range(self.dim)]
                for i in range(self.dim)]

    def at_point(self, point: Sequence) -> PointTensor:
        return PointTensor.from_matrix(self.eval_matrix(point))

    def jet(self, point: Sequence, order: int) -> List[PolyVec]:
        """Columns of J(point + y) cut above degree order: the order-jet
        of J at the point, in the offset y.  One poly.shift call shifts
        every entry, so they share one table of monomial images.  A point
        with another number of coordinates than dim raises StructureError."""
        n = self.dim
        if len(point) != n:
            raise StructureError(f"point has {len(point)} coordinates, expected {n}")
        flat = poly.shift([p for col in self.cols for p in col], point, order)
        return [flat[j * n:(j + 1) * n] for j in range(n)]

    def negated(self) -> "StructureField":
        cols = [[poly.neg(p) for p in col] for col in self.cols]
        name = f"-({self.name})" if self.name else ""
        return StructureField(cols, name=name)

    def square_plus_identity(self) -> List[List[Poly]]:
        """Entries of J^2 + I as polynomials, [i][j]."""
        n = self.dim
        out = [[poly.zero() for _ in range(n)] for _ in range(n)]
        for j in range(n):
            jj_col = poly.apply_columns(self.cols, self.cols[j])  # J (J e_j)
            for i in range(n):
                e = jj_col[i]
                if i == j:
                    e = poly.add(e, poly.const(1, n))
                out[i][j] = e
        return out

    def max_entry_degree(self) -> int:
        return max((poly.total_degree(p) for col in self.cols for p in col), default=-1)

    def __eq__(self, other):
        if not isinstance(other, StructureField):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    __hash__ = None


@dataclass(frozen=True)
class ValidationReport:
    status: str                  # "exact" | "valid_mod_order_k" | "invalid"
    order: Optional[int] = None  # vanishing order of J^2 + I at the base point
    failing_entry: Optional[Tuple[int, int]] = None


def vanishing_order(p: Poly, point: Sequence) -> Optional[int]:
    """Order of vanishing of p at the point (None for the zero polynomial);
    a point with another number of coordinates than p has variables
    raises PolyError."""
    return _vanishing_orders([p], point)[0]


def _vanishing_orders(ps: Sequence[Poly], point: Sequence) -> List[Optional[int]]:
    return [min(map(sum, q), default=None) for q in poly.shift(ps, point, math.inf)]


def validate(j: StructureField, base_point: Optional[Sequence] = None,
             order: Optional[int] = None) -> ValidationReport:
    """Check J^2 = -I exactly, or modulo the requested vanishing order."""
    pt = list(base_point) if base_point is not None else [Fraction(0)] * j.dim
    if len(pt) != j.dim:
        raise StructureError(f"base point has {len(pt)} coordinates, expected {j.dim}")
    err = j.square_plus_identity()
    orders = _vanishing_orders([p for row in err for p in row], pt)
    worst: Optional[int] = None
    worst_entry = None
    for idx, o in enumerate(orders):
        if o is not None and (worst is None or o < worst):
            worst = o
            worst_entry = divmod(idx, j.dim)
    if worst is None:
        return ValidationReport("exact")
    if worst == 0:
        return ValidationReport("invalid", order=0, failing_entry=worst_entry)
    if order is not None and worst < order:
        return ValidationReport("invalid", order=worst, failing_entry=worst_entry)
    return ValidationReport("valid_mod_order_k", order=worst)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def standard_matrix(n: int) -> List[List[Fraction]]:
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for r in range(n):
        m[2 * r + 1][2 * r] = Fraction(1)
        m[2 * r][2 * r + 1] = Fraction(-1)
    return m


def standard_structure(n: int) -> StructureField:
    """j0: e_{2r-1} -> e_{2r}, e_{2r} -> -e_{2r-1}, constant coefficients."""
    if n < 1:
        raise StructureError("n must be at least 1")
    dim = 2 * n
    m = standard_matrix(n)
    cols = [[poly.const(m[i][j], dim) for i in range(dim)] for j in range(dim)]
    return StructureField(cols, name=f"standard j0 on R^{dim}")


def from_anticommuting_part(a_odd_cols: List[PolyVec], name: str = "") -> StructureField:
    """J = j0 + A from the odd columns of A; even columns forced to -j0 A e_odd.

    a_odd_cols[t] is the column A e_{2t+1}.  The even-column relation is the
    unique one making A anticommute with j0, so J^2 + I = A^2.
    """
    dim = 2 * len(a_odd_cols)
    j0 = standard_structure(len(a_odd_cols)).cols
    cols: List[PolyVec] = []
    for t, odd in enumerate(a_odd_cols):
        if len(odd) != dim:
            raise StructureError("column length mismatch")
        even = [poly.neg(p) for p in poly.apply_columns(j0, odd)]
        cols += [poly.vec_add(j0[2 * t], odd), poly.vec_add(j0[2 * t + 1], even)]
    return StructureField(cols, name=name)


def example_structure(which: str, eps: Union[int, Fraction] = 0,
                      f_text: str = "x5") -> StructureField:
    """Bundled example structures: ex2, ex5(eps), ex6(f-text)."""
    if which == "ex2":
        a_col = [poly.var(2, 4), poly.zero(), poly.zero(), poly.zero()]
        zero_col = poly.vec_zero(4)
        return from_anticommuting_part([zero_col, a_col], name="ex2")
    if which == "ex5":
        f = poly.parse_poly("x2^2", 4)
        g = poly.scale(poly.parse_poly("x3^2", 4), eps)
        a_col = [f, g, poly.zero(), poly.zero()]
        zero_col = poly.vec_zero(4)
        return from_anticommuting_part([zero_col, a_col], name=f"ex5(eps={Fraction(eps)})")
    if which == "ex6":
        f = poly.parse_poly(f_text, 6)
        if poly.eval_poly(f, [0] * 6) != 0:
            raise StructureError("ex6 needs f(0) = 0 so that a(0) = 0")
        a_col = [f, poly.zero(), poly.zero(), poly.zero(), poly.zero(), poly.zero()]
        zero_col = poly.vec_zero(6)
        return from_anticommuting_part([zero_col, a_col, zero_col],
                                       name=f"ex6(f={f_text})")
    raise StructureError(f"unknown example {which!r}")


# ---------------------------------------------------------------------------
# Nijenhuis-data realization
# ---------------------------------------------------------------------------

def linear_membership_violation(n_tensor: PointTensor,
                                j_map: PointTensor) -> Optional[Tuple]:
    """First index pair where N(j a, b) = N(a, j b) = -j N(a, b) fails, or None.

    N and j are read once for both sides, N(j a, b) + j N(a, b) and
    N(a, j b) + j N(a, b), and the first nonzero is found on their
    accumulated sums (first_nonzero_sum): no Fraction is built."""
    dim = n_tensor.dim_in
    hit = first_nonzero_sum(dim, dim, 2, [
        [(1, n_tensor, j_map, slot, None), (1, j_map, n_tensor, None, None)] for slot in (0, 1)])
    return None if hit is None else (*hit[0], ("N(j a, b)", "N(a, j b)")[hit[1]])


def realize_nijenhuis(n_tensor: PointTensor) -> StructureField:
    """A structure J with J(0) = j0 and Nijenhuis tensor at 0 equal to the input.

    Input must be antisymmetric and satisfy the antilinearity relations for
    the standard structure.  The output has linear coefficients and
    J^2 + I vanishing to order 2 at 0, which pins the full 1-jet of J and
    hence the Nijenhuis tensor at the origin.
    """
    dim = n_tensor.dim_in
    if dim % 2 != 0 or n_tensor.dim_out != dim or n_tensor.arity != 2:
        raise StructureError("need an arity-2 tensor on an even-dimensional space")
    if not n_tensor.is_antisymmetric_in(0, 1):
        raise StructureError("tensor is not antisymmetric")
    n = dim // 2
    viol = linear_membership_violation(n_tensor, PointTensor.from_matrix(standard_matrix(n)))
    if viol is not None:
        raise StructureError(f"antilinearity fails at basis pair {viol[:2]} ({viol[2]})")
    # free data: c_{s,t} = N(e_{2s-1}, e_{2t-1}) for s < t; odd columns of A
    # get a_{2t} = sum_{s<t} c_{s,t} x^{2s}, even columns follow by
    # anticommutation with j0.
    a_odd_cols: List[PolyVec] = []
    for t in range(n):
        col = poly.vec_zero(dim)
        for s in range(t):
            c = n_tensor.entries[(2 * s, 2 * t)]
            exp = tuple(1 if k == 2 * s + 1 else 0 for k in range(dim))
            col = poly.vec_add(col, [poly.monomial(exp, ci) for ci in c])
        a_odd_cols.append(col)
    return from_anticommuting_part(a_odd_cols, name="realized")


# ---------------------------------------------------------------------------
# Lie algebra data and the doubled-group tensor
# ---------------------------------------------------------------------------

class LieAlgebraSpec:
    """Structure constants c^k_{ij} for a real Lie algebra, exact, held as
    the antisymmetric arity-2 tensor of the bracket."""

    def __init__(self, dim: int, constants: Dict[Tuple[int, int], Sequence]):
        """constants[(i, j)] for i < j is the vector [e_i, e_j], 0-based;
        a key (j, i) gives its negative, and a missing pair brackets to 0.
        A key off 0..dim-1, a diagonal key, or a pair given both ways with
        values that are not negatives of each other raises StructureError."""
        for (i, j), value in constants.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise StructureError(f"structure constant key {(i, j)} is outside 0..{dim - 1}")
            if i == j:
                raise StructureError(f"diagonal structure constant key {(i, j)}")
            if (j, i) in constants and [Fraction(x) for x in value] != [
                    -Fraction(y) for y in constants[(j, i)]]:
                raise StructureError(f"keys {(i, j)} and {(j, i)} give values that are not negatives")
        self.dim = dim

        def orbit_value(pair: Tuple[int, int]) -> List:
            if pair in constants:
                return constants[pair]
            return [-Fraction(x) for x in constants.get(pair[::-1], [0] * dim)]

        self.tensor = PointTensor.from_orbits(dim, dim, 2, alternating_rep, orbit_value)
        jac = self.jacobi_violation()
        if jac is not None:
            raise StructureError(f"Jacobi identity fails on basis triple {jac}")

    def bracket(self, x: Sequence, y: Sequence) -> List[Fraction]:
        """[x, y] for exact coordinate vectors (floats are refused)."""
        return self.tensor.apply([x, y])

    def jacobi_violation(self) -> Optional[Tuple[int, int, int]]:
        """First basis triple a < b < c where the cyclic sum of
        [x, [y, z]] is nonzero, or None."""
        nested = slot_compose(self.tensor, self.tensor, 1).entries  # [x, [y, z]]
        for a, b, c in itertools.combinations(range(self.dim), 3):
            if any(map(sum, zip(nested[(a, b, c)], nested[(b, c, a)], nested[(c, a, b)]))):
                return (a, b, c)
        return None


def doubled_block_j(n: int) -> PointTensor:
    """j(xi, eta) = (-eta, xi) on R^n + R^n in block coordinates."""
    dim = 2 * n
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        m[i][n + i] = Fraction(-1)
        m[n + i][i] = Fraction(1)
    return PointTensor.from_matrix(m)


def linear_nijenhuis_from_free_data(n: int, free: Dict[Tuple[int, int], List[Fraction]]) -> PointTensor:
    """The linear Nijenhuis tensor for j0 = standard_matrix(n) with
    N(e_{2s}, e_{2t}) = free[(s, t)], 0 <= s < t < n, and zero on the
    pairs not given: the real basis b_s = e_{2s}, with j0 b_s = e_{2s+1}."""
    return _antilinear_extension(PointTensor.from_matrix(standard_matrix(n)),
                                 [divmod(a, 2) for a in range(2 * n)], free)


def doubled_nijenhuis_from_free_data(n: int, free: Dict[Tuple[int, int], List[Fraction]]) -> PointTensor:
    """The linear Nijenhuis tensor for doubled_block_j(n) with
    N(e_s, e_t) = free[(s, t)], 0 <= s < t < n, in block coordinates, and
    zero on the pairs not given: the real basis b_s = e_s, with
    j b_s = e_{n+s}."""
    return _antilinear_extension(doubled_block_j(n), [(a % n, a // n) for a in range(2 * n)], free)


def _antilinear_extension(j_map: PointTensor, layout: List[Tuple[int, int]],
                          free: Dict[Tuple[int, int], List[Fraction]]) -> PointTensor:
    """The antisymmetric N with N(j x, y) = N(x, j y) = -j N(x, y) and
    N(b_s, b_t) = free[(s, t)] for s < t, zero on the pairs not given.

    layout[a] = (s, p) says e_a = j^p b_s.  Then N(j^p b_s, j^q b_t) is
    (-j)^(p+q) c_{s,t}, that is c, -j c or -c, for s < t; minus the value
    at the swapped pair for s > t; and zero for s = t, as
    N(b, j b) = -j N(b, b) = 0.  A key other than a pair s < t of real
    indices raises StructureError.
    """
    dim = j_map.dim_in
    pairs = set(itertools.combinations(range(dim // 2), 2))
    for key in free:
        if key not in pairs:
            raise StructureError(f"free-data key {key!r} is not a pair s < t in 0..{dim // 2 - 1}")
    minus_j = j_map.neg()
    powers = {st: (c, minus_j.apply([c]), [-x for x in c]) for st, c in free.items()}
    zero = [Fraction(0)] * dim

    def value(idx: Tuple[int, int]) -> List[Fraction]:
        """N(e_a, e_b) for a < b."""
        (s, p), (t, q) = layout[idx[0]], layout[idx[1]]
        c_powers = powers.get((min(s, t), max(s, t)))
        if c_powers is None:
            return zero
        return c_powers[p + q] if s < t else [-x for x in c_powers[p + q]]

    return PointTensor.from_orbits(dim, dim, 2, alternating_rep, value)


def left_invariant_structure(g: LieAlgebraSpec) -> Dict[str, PointTensor]:
    """The invariant Nijenhuis data of the doubled group at the identity.

    Block coordinates: first n components are the first summand.  The
    free data are N((e_s, 0), (e_t, 0)) = (-[e_s, e_t], [e_s, e_t]) for
    s < t, the first generating identity; the other three,
      N((0,xi),(0,eta)) = ([xi,eta], -[xi,eta])
      N((xi,0),(0,eta)) = N((0,xi),(eta,0)) = ([xi,eta], [xi,eta]),
    are its antilinear extension (doubled_nijenhuis_from_free_data).
    """
    free = {(s, t): [*(-x for x in br), *br]
            for (s, t), br in g.tensor.entries.items() if s < t}
    return {"nijenhuis_at_identity": doubled_nijenhuis_from_free_data(g.dim, free),
            "j": doubled_block_j(g.dim)}


# ---------------------------------------------------------------------------
# seeded random generators (exact by construction)
# ---------------------------------------------------------------------------

def random_structure(n: int, seed: int, degree: int = 2) -> StructureField:
    """Seeded random structure with exact J^2 = -I and entries of degree <= degree.

    Construction: deformation j0 + A where A has image inside the first
    complex coordinate plane and kernel containing it (so A^2 = 0 and
    anticommutation kills the cross terms), then a constant rational
    conjugation to mix all entries.
    """
    if n < 1:
        raise StructureError("n must be at least 1")
    rng = random.Random(seed)
    dim = 2 * n

    def rand_poly() -> Poly:
        out = poly.zero()
        for _ in range(rng.randint(1, 3)):
            exp = [0] * dim
            for _ in range(rng.randint(0, degree)):
                exp[rng.randrange(dim)] += 1
            c = rng.randint(-3, 3)
            out = poly.add(out, poly.monomial(tuple(exp), c))
        return out

    a_odd_cols: List[PolyVec] = [poly.vec_zero(dim)]  # A kills the target plane
    for _t in range(1, n):
        col = poly.vec_zero(dim)
        col[0] = rand_poly()
        col[1] = rand_poly()
        a_odd_cols.append(col)
    plain = from_anticommuting_part(a_odd_cols)

    # constant conjugation T J T^{-1}; retry until T is invertible
    while True:
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if linalg.det(t) != 0:
            break
    t_inv = linalg.inverse(t)

    def const_cols(m: List[List[Fraction]]) -> List[PolyVec]:
        return [[poly.const(row[k], dim) for row in m] for k in range(dim)]

    # column j of T J(x) T^{-1} is (T J(x)) applied to T^{-1} e_j
    tj_cols = [poly.apply_columns(const_cols(t), col) for col in plain.cols]
    cols = [poly.apply_columns(tj_cols, col) for col in const_cols(t_inv)]
    return StructureField(cols, name=f"random(n={n}, seed={seed})")


def random_linear_nijenhuis(n: int, seed: int) -> PointTensor:
    """Seeded random element of the linear space for j0 on R^{2n}.

    Free data: the values on (e_{2s-1}, e_{2t-1}) for s < t, integers in
    -3..3; everything else follows from antisymmetry and the antilinearity
    relations.
    """
    rng = random.Random(seed)
    dim = 2 * n
    free: Dict[Tuple[int, int], List[Fraction]] = {}
    for s in range(n):
        for t in range(s + 1, n):
            free[(s, t)] = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    return linear_nijenhuis_from_free_data(n, free)
