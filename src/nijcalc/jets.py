"""Order-by-order lifting for the Cauchy-Riemann compatibility of maps.

A truncated map is a base-point pair plus fully symmetric symbols
(Phi, Phi^(2), ..., Phi^(k)).  The order-k coefficient of
j_M o u_* - u_* o j_L is an exact expression in the symbols and the
structure derivatives; once the lower orders vanish it reduces to the
linear equation zeta(Phi^(k)) = P_k, where P_k collects every term built
from lower symbols.  Solvability of that equation is cut out by three
exact conditions on P_k, and the failing one carries the geometric
obstruction.  This module assembles the residual, the defect tensor P_k,
a canonical symmetric solution, and the order-2/3 obstruction tensors.

Residuals are Taylor coefficients.  With U the Taylor polynomial of the
map, R_a(h) = J_M(y + U(h)) d_a U - sum_b J_L[b][a](x + h) d_b U is
computed once per lift step by truncated composition, cut above the
degree the step needs, in one integer pass (poly.jet_cauchy_riemann):
U enters as integer numerators read off the symbols' stored rows, and R
comes back as integer numerators over one den.  Its degree-(r - 1) part
is the order-r residual and depends only on Phi^(1..r), so one
composition built from Phi^(1..k-1) shows that the input orders vanish
and, in its top part, gives -P_k.  The structures are shifted to the base
points once per lift or tower (StructureField.jet) and every derivative
is read off those jets.

Every residual is symmetric in its trailing slots, so it is read off the
composition only at the index tuples (a, rest) whose trailing slots are
sorted, one per orbit: alpha! times the numerator of component i of R_a
at h^alpha, alpha the multiplicities of rest, over the composition's den
reduced to the least one.  The set-partition expansion of the same
coefficient is kept as an independent route.  It is evaluated at the
same representatives, as integer sums over a den of its own, and the two
readings must agree there, cross-multiplied, for each P_k and each public
residual; otherwise InternalInconsistencyError is raised.  It reads the
symbols and the nonzero entries of d^(p-1) J as integer numerators and
contracts each j_M term tail first: d^(p-1) j_M on the symbols at every
block but the first, summed over the partitions of the values those
blocks hold and memoized by that multiset, is applied to the symbol at
the first block.  The counts times the values are summed in one integer
per component.  A tower keeps P_k at these representative rows.  A tensor
over every index tuple, each sharing its representative's row
(PointTensor.from_rows), is built only for the public cr_residual and
build_P_k and as the witness of a failure.

The canonical symbol is solved in polynomial form, by the Koszul
homotopy for dbar written in real terms.  With A = J_L(x), B = J_M(y),
Q_a(h) = P_k(e_a, h, ..., h)/(k - 1)! and u(h) = Phi^(k)(h, ..., h)/k!,
zeta(Phi^(k)) = P_k reads B d_a u - sum_b A[b][a] d_b u = Q_a.  The
antilinear part of Du must be F = -1/2 B Q, so g(h) = sum_a h_a F_a(h) is
sum_q q u_q over the (p, q)-types of u; T v = -B Dv(h)[A h] acts on type
(p, q) as p - q = k - 2q, and u = pi(T) g with pi the degree-(k - 1)
interpolant of 2/(k - lambda) at lambda = k - 2, k - 4, ..., -k.  Since
ker zeta on symmetric symbols is the type-(k, 0) part, this is the unique
solution without a (k, 0) part.  It takes k - 1 applications of T.

The homotopy runs on integer rows.  A homogeneous vector polynomial of
degree k is held by its coefficients times alpha!, one row per sorted
k-tuple of multiplicities alpha, over one denominator; for u these rows
are Phi^(k) at the sorted tuples.  A and B are read as integer numerators
over their dens, and P_k enters as its rows at its representatives
(a, rest): a tower passes them on from the cross-check, and the public
symmetrize reads them off a caller's P_k.  On the rows T's derivation
moves alpha'_c A[b][c] times the row at rest + e_b to alpha' = rest + e_c,
and -B follows; g's row at rest + e_a sums -1/2 (m_a + 1) B P_k(e_a, rest),
m_a the multiplicity of a in rest.  Each Horner step multiplies the
denominator by those of A and B.  The symbol is stored as those rows,
reduced to the least denominator, every index tuple sharing the row of
its sorted tuple, so its Fraction entries are built once per orbit.

Each P_k is decided once, inside symmetrize, by certifying the symbol
solved for it as stored: the symbol is fully symmetric, and u read back
from its stored rows at the sorted tuples satisfies the polynomial
equation above, checked in integers at each (a, rest).  P_k is symmetric
in its trailing slots (a tower's by construction, a caller's by an orbit
check), so that is zeta(Phi^(k)) == P_k over every index tuple, and as
every zeta image meets the three conditions, they need no check of their
own.  The dense defect tensors (defect_conditions)
are built only when a check fails, as the witness of the failure.  The
certified equation is the order-k residual of the lifted map, so
lift_tower starts each later step from the order it has just lifted.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple

from . import linalg, poly
from .forms import VectorForm
from .invariants import (InternalInconsistencyError, higher_nijenhuis,
                         jet_differential, nijenhuis_tensor)
from .structures import StructureError, StructureField
from .tensor import (PointTensor, combination, contraction_sum, dense_row, flatten, matrix_of,
                     post_compose, precompose_all, slot_compose, symmetric_rep, unit_basis)

Index = Tuple[int, ...]

DEFAULT_MAX_ORDER = 4


class DefectConditionError(StructureError):
    """The defect tensor fails one of the three solvability conditions.

    ``condition`` is one of "antilinearity", "swap_conjugation",
    "trailing_symmetry"; ``defect`` is the tensor that should have been
    zero.  Only swap_conjugation can fail for a map whose lower-order
    residuals vanish; it is the invariant content of the condition set.
    """

    def __init__(self, condition: str, defect: PointTensor, message: str):
        super().__init__(message)
        self.condition = condition
        self.defect = defect


# -- jet data ----------------------------------------------------------------

@dataclass(frozen=True)
class JetSymbol:
    """Order-k symbol: a fully symmetric k-linear map between the charts."""

    k: int
    tensor: PointTensor

    def __post_init__(self):
        if self.k < 1:
            raise StructureError(f"symbol order {self.k} < 1")
        if self.tensor.arity != self.k:
            raise StructureError(
                f"order-{self.k} symbol carries an arity-{self.tensor.arity} tensor")
        if not self.tensor.respects(symmetric_rep):
            raise StructureError(f"order-{self.k} symbol is not fully symmetric")


@dataclass(frozen=True)
class TruncatedMap:
    """Base points plus consecutive symbols Phi^(1), ..., Phi^(k)."""

    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]
    symbols: Tuple[JetSymbol, ...]

    def __post_init__(self):
        for name in ("x", "y"):
            point = getattr(self, name)
            if any(c is None or isinstance(c, (float, str)) for c in point):
                raise StructureError(f"float, string or None in base point {name} = {point!r}")
            object.__setattr__(self, name, tuple(Fraction(c) for c in point))
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise StructureError("a truncated map needs at least the order-1 symbol")
        for r, s in enumerate(self.symbols, start=1):
            if s.k != r:
                raise StructureError(f"symbol orders not consecutive from 1 at {s.k}")
            if s.tensor.dim_in != self.dim_in or s.tensor.dim_out != self.dim_out:
                raise StructureError(f"order-{s.k} symbol has mismatched dimensions")
        if len(self.x) != self.dim_in or len(self.y) != self.dim_out:
            raise StructureError("base point lengths do not match the symbol charts")

    @property
    def order(self) -> int:
        return len(self.symbols)

    @property
    def dim_in(self) -> int:
        return self.symbols[0].tensor.dim_in

    @property
    def dim_out(self) -> int:
        return self.symbols[0].tensor.dim_out

    def symbol(self, k: int) -> JetSymbol:
        return self.symbols[k - 1]

    def with_symbol(self, sym: JetSymbol) -> "TruncatedMap":
        return TruncatedMap(self.x, self.y, self.symbols + (sym,))


def truncate(u: TruncatedMap, order: int) -> TruncatedMap:
    """Forget the symbols above the given order."""
    if not 1 <= order <= u.order:
        raise StructureError(f"cannot truncate an order-{u.order} map to {order}")
    return TruncatedMap(u.x, u.y, u.symbols[:order])


@dataclass(frozen=True)
class Obstruction:
    order: int
    residual: PointTensor
    vanishes: bool

    @classmethod
    def from_residual(cls, order: int, residual: PointTensor) -> "Obstruction":
        return cls(order, residual, residual.is_zero())


@dataclass(frozen=True)
class LiftResult:
    """Outcome of a lifting step: the extended map, or the blocking tensor."""

    lifted: Optional[TruncatedMap]
    obstruction: Optional[Obstruction]

    @property
    def ok(self) -> bool:
        return self.obstruction is None


# -- partition enumeration ----------------------------------------------------

def set_partitions(k: int) -> Iterator[List[Index]]:
    """Partitions of range(k); blocks increasing, ordered by least element."""
    if k == 0:
        yield []
        return

    def rec(i: int, blocks: List[List[int]]) -> Iterator[List[Index]]:
        if i == k:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[0]])


def _require_point_tensors(**args) -> None:
    for name, t in args.items():
        if not isinstance(t, PointTensor):
            raise StructureError(
                f"{name} must be a PointTensor, not {type(t).__name__}")


# -- the compatibility residual -------------------------------------------------

def zeta(psi: PointTensor, j_l_at: PointTensor, j_m_at: PointTensor) -> PointTensor:
    """j_M o psi - psi o (j_L (x) 1^(k-1)): the symbol of the residual."""
    return contraction_sum(psi.dim_in, psi.dim_out, psi.arity,
                           [(1, j_m_at, psi, None, None), (-1, psi, j_l_at, 0, None)])


class _StructureJets:
    """J_L and J_M at the base points and their differentials there.

    Each structure is shifted to its base point once, to its entry degree,
    so its jet there is exact and every order is a coefficient lookup.
    l_cols and m_cols are the columns of those jets, in the offsets from x
    and from y; j_l_at and j_m_at are their constant terms.  d_l[p] is
    d^(p-1) J_L at x (slot 0 the matrix argument, the other p-1 slots
    derivative directions), or None where it vanishes; d_m[p] the same
    for J_M at y.  Each order is read once, on first use, and shared by
    every residual cross-check of one lift or tower, whose base points
    never move.
    """

    def __init__(self, u: TruncatedMap, j_l: StructureField, j_m: StructureField):
        self.l_cols, self.m_cols = (j.jet(list(pt), max(j.max_entry_degree(), 0))
                                    for j, pt in ((j_l, u.x), (j_m, u.y)))
        self._jets = tuple(VectorForm.from_columns(c) for c in (self.l_cols, self.m_cols))
        self.j_l_at, self.j_m_at = (jet_differential(f, 0) for f in self._jets)
        self.d_l: List[Optional[PointTensor]] = [None, self.j_l_at]
        self.d_m: List[Optional[PointTensor]] = [None, self.j_m_at]

    def upto(self, top: int) -> Tuple[List[Optional[PointTensor]],
                                      List[Optional[PointTensor]]]:
        while len(self.d_l) <= top:
            p = len(self.d_l)
            for tower, jet in zip((self.d_l, self.d_m), self._jets):
                # d^(p-1) holds the degree-(p-1) coefficients, times alpha!
                nonzero = any(sum(e) == p - 1 for v in jet.entries.values() for c in v for e in c)
                tower.append(jet_differential(jet, p - 1) if nonzero else None)
        return self.d_l, self.d_m


def _factorial_weight(alpha: Index) -> int:
    return math.prod(math.factorial(a) for a in alpha)


def _composition(u: TruncatedMap, jets: _StructureJets,
                 top: int) -> Tuple[int, List[List[Dict[Index, int]]]]:
    """R_a(h) = J_M(y + U(h)) d_a U - sum_b J_L[b][a](x + h) d_b U for each
    basis direction a, cut above degree top, as integer numerators over
    one den (poly.jet_cauchy_riemann), with U(h) = u(x + h) - y.

    R_a is the Taylor polynomial of (j_M o u_* - u_* o j_L)(e_a) at x, so
    its degree-(r - 1) part is the order-r residual and depends only on
    Phi^(1..r).  With top = u.order it holds every residual of u, and its
    top part, which misses the absent Phi^(top + 1), is -P_(top + 1).  U
    is read off the symbols' stored rows: the coefficient of h^alpha in
    U_i is n (r!/alpha!) over d r!, n/d the order-r symbol's component i
    at the sorted tuple of multiplicities alpha.
    """
    n = u.dim_in
    den = math.lcm(*(s.tensor.den * math.factorial(s.k) for s in u.symbols))
    big_u: List[Dict[Index, int]] = [{} for _ in range(u.dim_out)]
    for s in u.symbols:
        w = den // s.tensor.den
        for rep in itertools.combinations_with_replacement(range(n), s.k):
            alpha = tuple(rep.count(b) for b in range(n))
            c = w // _factorial_weight(alpha)
            for i, v in s.tensor.rows[rep]:
                big_u[i][alpha] = c * v
    return poly.jet_cauchy_riemann(jets.m_cols, jets.l_cols, (den, big_u), top)


def _trailing_rep(idx: Index) -> Tuple[Index, int]:
    """Sign rule of a residual: symmetric in the slots after the first."""
    return (idx[0],) + tuple(sorted(idx[1:])), 1


def _residual_terms(u: TruncatedMap, jets: _StructureJets,
                    skip_top: bool) -> Tuple[int, Dict[Index, List[int]]]:
    """Order-k coefficient of j_M o u_* - u_* o j_L at the representatives,
    from set partitions: the tensor route that cross-checks _composition.
    Returned as integer sums over one den, per representative.

    With skip_top the terms containing the order-k symbol are dropped and
    the sign is flipped, which turns the residual into the defect tensor
    P_k that a new order-k symbol must reproduce.

    At a representative (a,) + rest, a set partition of the k slots is
    block 0, slot 0 (value a) with a subset S of rest, and a partition of
    the remaining slots, the tail.  The symbols are fully symmetric and the
    derivative slots of d^(p-1) J commute, so a block reads its sorted
    values and a tail its sorted blocks.  The tail is contracted first:
    d^(p-1) j_M on the symbols at its blocks leaves a matrix of its slot 0,
    and its sum over the partitions of the remaining values, a multiset
    R = rest - S, is memoized by R; as a tail holds the values of one R,
    each distinct tail is contracted once per call.  That matrix applied
    to the symbol at block 0's values gives the j_M terms of S.  A j_L term
    takes the derivative slots of d^(p-1) j_L(a) from S and the symbol's
    remaining slots from R.  Each S is met once per representative, counted
    by the subsets of rest that read it.  Every input is read once as
    integer numerators, and the counts times the values are summed in one
    integer per component.
    """
    k = u.order + 1 if skip_top else u.order
    l_dim, m_dim = u.dim_in, u.dim_out
    d_l, d_m = (tower[:k + 1] for tower in jets.upto(k))
    # integer rows over one den per kind: the symbols at their sorted
    # tuples, and the nonzero entries of d^(p-1) J of each structure
    s_den = math.lcm(*(s.tensor.den for s in u.symbols))
    sym = {rep: dense_row(s.tensor.rows[rep], m_dim, s_den // s.tensor.den) for s in u.symbols
           for rep in itertools.combinations_with_replacement(range(l_dim), s.k)}
    m_tower, l_tower = ([d for d in tower if d is not None] for tower in (d_m, d_l))
    m_den, l_den = (math.lcm(*(d.den for d in tower)) for tower in (m_tower, l_tower))
    # d^(p-1) j_M by its number of slots p: (slot 0, derivative slots,
    # nonzero components) per nonzero entry
    m_entries: Dict[int, List[Tuple[int, Index, List[Tuple[int, int]]]]] = {}
    for d in m_tower:
        for idx, row in d.rows.items():
            if row:
                m_entries.setdefault(len(idx), []).append(
                    (idx[0], idx[1:], [(i, c * (m_den // d.den)) for i, c in row]))
    l_entries = {head: [(i0, c * (l_den // d.den)) for i0, c in row]
                 for d in l_tower for head, row in d.rows.items() if row}
    # the partitions of each number of remaining slots whose tail meets a
    # nonzero d^(p-1) j_M
    tail_parts = [[blocks for blocks in set_partitions(r) if len(blocks) + 1 in m_entries]
                  for r in range(k)]
    # every term over den: a j_M term with block 0 of |S| + 1 values is
    # over m_den s_den^(k - |S|), a j_L term over l_den s_den
    sign = -1 if skip_top else 1
    den = m_den * l_den * s_den ** k
    l_weight = -sign * m_den * s_den ** (k - 1)
    composed: Dict[Index, List[Tuple[int, List[Tuple[int, int]]]]] = {}

    def tail_value(tail: Tuple[Index, ...]) -> Dict[Tuple[int, int], int]:
        """d^(p-1) j_M on the symbols at the blocks of tail, slot 0 left
        open: the nonzero entries (slot 0, component)."""
        acc: Dict[Tuple[int, int], int] = {}
        for i0, idx, comps in m_entries[len(tail) + 1]:
            c = math.prod(sym[b][j] for b, j in zip(tail, idx))
            if c:
                for i, v in comps:
                    acc[i0, i] = acc.get((i0, i), 0) + c * v
        return acc

    def composed_value(r: Index) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """The tail values summed over the partitions of r, each weighted to
        m_den s_den^len(r): the nonzero rows (slot 0, components)."""
        counts: Dict[Tuple[Index, ...], int] = {}
        get = r.__getitem__
        for blocks in tail_parts[len(r)]:
            tail = tuple(sorted([tuple(map(get, b)) for b in blocks]))
            counts[tail] = counts.get(tail, 0) + 1
        acc: Dict[Tuple[int, int], int] = {}
        for tail, mult in counts.items():
            w = mult * s_den ** (len(r) - len(tail))
            for pos, c in tail_value(tail).items():
                acc[pos] = acc.get(pos, 0) + w * c
        rows: Dict[int, List[Tuple[int, int]]] = {}
        for (i0, i), c in acc.items():
            if c:
                rows.setdefault(i0, []).append((i, c))
        return list(rows.items())

    out: Dict[Index, List[int]] = {}
    # one representative (a, i_1 <= .. <= i_(k-1)) per orbit of _trailing_rep
    for rest in itertools.combinations_with_replacement(range(l_dim), k - 1):
        # each sub-multiset S of rest with R = rest - S, counted by the
        # subsets of rest's slots that read it
        runs = [(v, rest.count(v)) for v in sorted(set(rest))]
        splits = []
        for taken in itertools.product(*(range(m + 1) for _, m in runs)):
            s_part = tuple(v for (v, _), t in zip(runs, taken) for _ in range(t))
            r_part = tuple(v for (v, m), t in zip(runs, taken) for _ in range(m - t))
            mult = math.prod(math.comb(m, t) for (_, m), t in zip(runs, taken))
            # with skip_top, S = rest is the order-k symbol's j_M term and
            # S empty its j_L term
            composed_rows = None
            if r_part or not skip_top:
                composed_rows = composed.get(r_part)
                if composed_rows is None:
                    composed_rows = composed[r_part] = composed_value(r_part)
            m_w = sign * l_den * s_den ** len(s_part) * mult
            l_w = l_weight * mult if s_part or not skip_top else 0
            splits.append((s_part, r_part, composed_rows, m_w, l_w))
        for a in range(l_dim):
            acc = [0] * m_dim
            for s_part, r_part, composed_rows, m_w, l_w in splits:
                if composed_rows:
                    phi = sym[tuple(sorted((a,) + s_part))]
                    for i0, comps in composed_rows:
                        c = phi[i0]
                        if c:
                            c *= m_w
                            for i, v in comps:
                                acc[i] += c * v
                if l_w:
                    for i0, c in l_entries.get((a,) + s_part, ()):
                        c *= l_w
                        for i, v in enumerate(sym[tuple(sorted((i0,) + r_part))]):
                            acc[i] += c * v
            out[(a,) + rest] = acc
    return den, out


def _cross_checked(u: TruncatedMap, jets: _StructureJets,
                   r: Tuple[int, List[List[Dict[Index, int]]]],
                   skip_top: bool) -> Tuple[int, List[List[int]]]:
    """The residual (or, with skip_top, P_k) read off the composition r at
    the representatives (a, rest), a outer: alpha! times component i of
    R_a at h^alpha, alpha the multiplicities of rest, negated for P_k, as
    integers over r's den reduced to the least one.  The tensor route must
    agree at every representative, the two integer readings compared
    cross-multiplied."""
    k = u.order + 1 if skip_top else u.order
    sign = -1 if skip_top else 1
    n = u.dim_in
    den, polys = r
    rests = list(itertools.combinations_with_replacement(range(n), k - 1))
    alphas = [tuple(rest.count(b) for b in range(n)) for rest in rests]
    weights = [(alpha, sign * _factorial_weight(alpha)) for alpha in alphas]
    rows = [[w * c.get(alpha, 0) for c in r_a] for r_a in polys for alpha, w in weights]
    g = math.gcd(den, *(c for row in rows for c in row))
    den, rows = den // g, [[c // g for c in row] for row in rows]
    t_den, terms = _residual_terms(u, jets, skip_top)
    if any([c * t_den for c in row] != [c * den for c in terms[(a,) + rest]]
           for row, (a, rest) in zip(rows, itertools.product(range(n), rests))):
        what = f"defect tensor P_{k}" if skip_top else f"order-{k} residual"
        raise InternalInconsistencyError(
            f"the composition and tensor routes disagree on the {what}")
    return den, rows


def _orbit_tensor(n: int, m: int, k: int, head: int, den: int,
                  rep_rows: Sequence[Sequence[int]]) -> PointTensor:
    """The arity-k tensor symmetric in its slots after the first head,
    from dense integer rows over den at its representatives: each tuple
    of the head slots, in product order, followed by each sorted tuple of
    the others.  Every index tuple shares its representative's row,
    reduced to the least den, so the entries are built once per orbit."""
    g = math.gcd(den, *(c for row in rep_rows for c in row))
    shared = [tuple([(i, c // g) for i, c in enumerate(row) if c]) for row in rep_rows]
    # pos: the position of each tuple's sorted tuple among the sorted ones
    # of its length, in product order, grown one slot at a time
    pos, level = [0], [()]
    for j in range(1, k - head + 1):
        at = {t: i for i, t in enumerate(itertools.combinations_with_replacement(range(n), j))}
        up = [[at[tuple(sorted(t + (b,)))] for b in range(n)] for t in level]
        pos = [up[p][b] for p in pos for b in range(n)]
        level = list(at)
    return PointTensor.from_rows(n, m, k, den // g, dict(zip(
        itertools.product(range(n), repeat=k),
        [shared[h * len(level) + p] for h in range(n ** head) for p in pos])))


def cr_residual(u: TruncatedMap, j_l: StructureField,
                j_m: StructureField) -> PointTensor:
    """Order-k coefficient of j_M o u_* - u_* o j_L for k = u.order.

    Zero at every order r <= k exactly when the map conjugates the
    structures modulo terms of order k.  At k = 1 this is the pointwise
    commutator j_M(y) Phi - Phi j_L(x).
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
    den, rows = _cross_checked(u, jets, _composition(u, jets, u.order - 1), skip_top=False)
    residual = _orbit_tensor(u.dim_in, u.dim_out, u.order, 1, den, rows)
    residual.entries  # the caller reads the values: built here, kept
    return residual


def _check_charts(u: TruncatedMap, j_l: StructureField, j_m: StructureField) -> None:
    if u.dim_in != j_l.dim or u.dim_out != j_m.dim:
        raise StructureError("map charts do not match the structure dimensions")


def _defect_rows(u: TruncatedMap, jets: _StructureJets,
                 first: int = 1) -> Tuple[int, List[List[int]]]:
    """P_k for k = u.order + 1 at its representatives (_cross_checked),
    from one composition that first shows a zero residual at the orders
    first..u.order; the orders below first are already certified by the
    caller."""
    r = _composition(u, jets, u.order)
    _require_zero_orders(r, first, u.order)
    return _cross_checked(u, jets, r, skip_top=True)


def _require_zero_orders(r: Tuple[int, List[List[Dict[Index, int]]]],
                         first: int, last: int) -> None:
    """Refuse a map whose residual, the degree-(order - 1) part of the
    composition r, is nonzero at one of the orders first..last."""
    degrees = {sum(e) for r_a in r[1] for c in r_a for e in c}
    for order in range(first, last + 1):
        if order - 1 in degrees:
            raise StructureError(
                f"map fails the compatibility equation at order {order}")


# -- defect tensor and its conditions -------------------------------------------

def _check_defect_shapes(p_k: PointTensor, j_l_at: PointTensor,
                         j_m_at: PointTensor) -> None:
    """Refuse structures at the base points that do not fit P_k: J_L(x)
    must be a square map of P_k's source, J_M(y) one of its target."""
    _require_point_tensors(p_k=p_k, j_l_at=j_l_at, j_m_at=j_m_at)
    for name, j, dim in (("J_L(x)", j_l_at, p_k.dim_in), ("J_M(y)", j_m_at, p_k.dim_out)):
        if (j.arity, j.dim_in, j.dim_out) != (1, dim, dim):
            raise StructureError(
                f"{name} has arity {j.arity} and shape {j.dim_in} -> {j.dim_out}, but "
                f"a defect tensor of shape {p_k.dim_in} -> {p_k.dim_out} needs "
                f"arity 1 and shape {dim} -> {dim}")


def defect_conditions(p_k: PointTensor, j_l_at: PointTensor,
                      j_m_at: PointTensor) -> Dict[str, PointTensor]:
    """The three exact solvability conditions, as defect tensors.

    antilinearity:     j_M o P + P o (j_L on slot 0)
    swap_conjugation:  alternation of P in slots 0,1 minus the same after
                       conjugating both slots by j_L
    trailing_symmetry: first failing symmetry among slots 1..k-1
    """
    _check_defect_shapes(p_k, j_l_at, j_m_at)
    shape = (p_k.dim_in, p_k.dim_out, p_k.arity)
    out: Dict[str, PointTensor] = {}
    out["antilinearity"] = contraction_sum(
        *shape, [(1, j_m_at, p_k, None, None), (1, p_k, j_l_at, 0, None)])
    if p_k.arity >= 2:
        swap = (1, 0) + tuple(range(2, p_k.arity))
        half = slot_compose(p_k, j_l_at, 0)
        out["swap_conjugation"] = contraction_sum(*shape, [
            (1, None, p_k, None, None), (-1, None, p_k, None, swap),
            (-1, half, j_l_at, 1, None), (1, half, j_l_at, 1, swap)])
        trailing = p_k.scale(0)
        for s in range(1, p_k.arity - 1):
            if not p_k.is_symmetric_in(s, s + 1):
                trailing = p_k.sub(p_k.swap_slots(s, s + 1))
                break
        out["trailing_symmetry"] = trailing
    return out


def _fail_with_witness(p_k: PointTensor, j_l_at: PointTensor,
                       j_m_at: PointTensor) -> NoReturn:
    """Raise the first dense condition P_k fails, in the order
    antilinearity, trailing_symmetry, swap_conjugation, with its tensor as
    the witness; when all three hold P_k is solvable and the solve is at
    fault."""
    conds = defect_conditions(p_k, j_l_at, j_m_at)
    for name in ("antilinearity", "trailing_symmetry", "swap_conjugation"):
        defect = conds.get(name)
        if defect is not None and not defect.is_zero():
            raise DefectConditionError(
                name, defect, f"defect tensor fails the {name} condition")
    raise InternalInconsistencyError(
        "symmetrized symbol does not reproduce a solvable defect tensor")


def _require_swap(err: DefectConditionError) -> None:
    """Let a swap_conjugation failure through; the other two conditions
    are identities once the lower residuals vanish, so their failure is
    an internal error."""
    if err.condition != "swap_conjugation":
        raise InternalInconsistencyError(
            f"assembled defect tensor fails {err.condition}") from err


def build_P_k(u: TruncatedMap, j_l: StructureField, j_m: StructureField,
              verify: bool = True) -> PointTensor:
    """Defect tensor the order-(k = u.order + 1) symbol must reproduce.

    Collects every order-k term of the compatibility residual that is
    built from the existing symbols, signed so that appending a symbol
    Phi^(k) with zeta(Phi^(k)) = P_k kills the order-k residual.
    Requires the residual to vanish through order k - 1.  With verify,
    symmetrize decides P_k as in a lift and its symbol is discarded; only
    a swap_conjugation failure is raised as DefectConditionError.
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
    k = u.order + 1
    den, rows = _defect_rows(u, jets)
    p_k = _orbit_tensor(u.dim_in, u.dim_out, k, 1, den, rows)
    if verify:
        try:
            _symmetrized(rows, den, k, jets.j_l_at, jets.j_m_at, lambda: p_k)
        except DefectConditionError as err:
            _require_swap(err)
            raise
    p_k.entries  # the caller reads the values: built here, kept
    return p_k


# -- canonical symmetric solution ------------------------------------------------

def symmetrize(p_k: PointTensor, j_l_at: PointTensor,
               j_m_at: PointTensor) -> JetSymbol:
    """Canonical fully symmetric Phi^(k) with zeta(Phi^(k)) = P_k.

    Solved by the dbar homotopy of the module docstring, with A = J_L(x)
    and B = J_M(y) the structures at the base points, on integer rows.
    The result is the unique solution without a type-(k, 0) part, so it is
    also the completion that projects -1/2 B o P_k slot by slot onto its
    linear and antilinear parts and adjoins the permuted components (the
    display formula at k = 3).

    Its certification decides P_k (module docstring): when the orbit
    check of trailing symmetry or the certification fails, the first
    failing dense condition is raised as DefectConditionError.
    """
    _check_defect_shapes(p_k, j_l_at, j_m_at)
    if not p_k.respects(_trailing_rep):
        _fail_with_witness(p_k, j_l_at, j_m_at)
    n, m, k = p_k.dim_in, p_k.dim_out, p_k.arity
    rests = list(itertools.combinations_with_replacement(range(n), k - 1))
    return _symmetrized([dense_row(p_k.rows[(a,) + rest], m) for a in range(n) for rest in rests],
                        p_k.den, k, j_l_at, j_m_at, lambda: p_k)


def _symmetrized(p_num: List[List[int]], d_p: int, k: int, j_l_at: PointTensor,
                 j_m_at: PointTensor, witness: Callable[[], PointTensor]) -> JetSymbol:
    """symmetrize on P_k's dense integer rows over d_p at its
    representatives (a, rest), a outer; witness() is P_k over every index
    tuple, built only when the certification fails."""
    n, m = j_l_at.dim_in, j_m_at.dim_in
    rests = list(itertools.combinations_with_replacement(range(n), k - 1))
    reps = list(itertools.combinations_with_replacement(range(n), k))
    at = {rep: i for i, rep in enumerate(reps)}
    # up[r][b]: the position in reps of the sorted rests[r] + (b,)
    up = [[at[tuple(sorted(rest + (b,)))] for b in range(n)] for rest in rests]
    d_a, d_b = j_l_at.den, j_m_at.den
    # column c of A as (b, A[b][c]); B by rows
    a_cols = [j_l_at.rows[(c,)] for c in range(n)]
    b_rows = list(zip(*(dense_row(j_m_at.rows[(c,)], m) for c in range(m))))

    def b_times(v: List[int]) -> List[int]:
        return [sum(map(operator.mul, row, v)) for row in b_rows] if any(v) else v
    # T's weights, alpha'_c A[b][c] from rest + (b,) to alpha' = rest + (c,),
    # and g = -1/2 B sum_a h_a Q_a over 2 d_p d_b, both by rows
    steps: List[List[Tuple[int, int]]] = [[] for _ in reps]
    g = [[0] * m] * len(reps)
    for r, rest in enumerate(rests):
        for c in range(n):
            w = rest.count(c) + 1
            for b, x in a_cols[c]:
                steps[up[r][b]].append((up[r][c], w * x))
            if any(row := p_num[c * len(rests) + r]):
                g[up[r][c]] = [x - w * y for x, y in zip(g[up[r][c]], b_times(row))]
    g_den = 2 * d_p * d_b
    # pi in Newton form on the nodes k - 2, k - 4, .., -k: its divided
    # differences are 1/(2^j (j + 1)!), and Horner step j applies
    # T - (k - 2(j + 1)); the denominator grows by d_a d_b a step
    u, den = g, g_den * 2 ** (k - 1) * math.factorial(k)
    for j in range(k - 2, -1, -1):
        du = [[0] * m] * len(reps)
        for src, row in enumerate(u):
            if any(row):
                for dst, w in steps[src]:
                    du[dst] = [x + w * y for x, y in zip(du[dst], row)]
        den *= d_a * d_b
        w_u, w_g = (k - 2 * j - 2) * d_a * d_b, den // (g_den * 2 ** j * math.factorial(j + 1))
        u = [[w_g * y - w_u * x - z for x, y, z in zip(uv, gv, b_times(dv))]
             for uv, dv, gv in zip(u, du, g)]
    phi = _orbit_tensor(n, m, k, 0, den, u)
    # B d_a u - sum_b A[b][a] d_b u = Q_a, u read back from phi's stored
    # rows: over beta! at h^beta, rest of multiplicities beta, it is
    # zeta(Phi)(e_a, rest) = P_k(e_a, rest)
    phi_num, d_phi = [dense_row(phi.rows[rep], m) for rep in reps], phi.den
    for r, rest in enumerate(rests):
        for a in range(n):
            lhs = [d_p * d_a * x for x in b_times(phi_num[up[r][a]])]
            for b, x in a_cols[a]:
                lhs = [y - d_p * d_b * x * z for y, z in zip(lhs, phi_num[up[r][b]])]
            if lhs != [d_phi * d_a * d_b * y for y in p_num[a * len(rests) + r]]:
                _fail_with_witness(witness(), j_l_at, j_m_at)
    # phi is symmetric by construction; JetSymbol's one scan confirms it
    # and builds its entries, one tuple per orbit
    try:
        return JetSymbol(k, phi)
    except StructureError as err:
        raise InternalInconsistencyError("symmetrized symbol is not symmetric") from err


# -- low-order obstructions ------------------------------------------------------

def obstruction_2(phi: PointTensor, j_l: StructureField, j_m: StructureField,
                  x: Sequence, y: Sequence,
                  require_membership: bool = True) -> Obstruction:
    """N_{j_M} o Phi^2 - Phi o N_{j_L} at the base points.

    By default Phi must intertwine the structures at (x, y); vanishing is
    then exactly solvability of the order-2 symbol equation.  Passing
    require_membership=False computes the formal residual for symbols
    outside the system, e.g. to compare a structure with its negation,
    where no nonzero symbol can intertwine.
    """
    _require_point_tensors(phi=phi)
    if phi.arity != 1 or phi.dim_in != j_l.dim or phi.dim_out != j_m.dim:
        raise StructureError("order-1 symbol does not match the structure charts")
    if require_membership and not zeta(phi, j_l.at_point(list(x)),
                                       j_m.at_point(list(y))).is_zero():
        raise StructureError(
            "symbol does not intertwine the structures at the base points")
    residual = precompose_all(nijenhuis_tensor(j_m, list(y)), phi).sub(
        post_compose(phi, nijenhuis_tensor(j_l, list(x))))
    return Obstruction.from_residual(2, residual)


def obstruction_3(phi: PointTensor, j_l: StructureField, j_m: StructureField,
                  x: Sequence, y: Sequence,
                  require_membership: bool = True) -> Obstruction:
    """Higher-tensor conjugation defect at the base points.

    Requires the order-2 residual to vanish; the residual here pushes
    every slot of the higher tensor through Phi and compares with the
    image of the source higher tensor.
    """
    if not obstruction_2(phi, j_l, j_m, x, y, require_membership).vanishes:
        raise StructureError("the order-2 obstruction must vanish first")
    residual = precompose_all(higher_nijenhuis(j_m, list(y)), phi).sub(
        post_compose(phi, higher_nijenhuis(j_l, list(x))))
    return Obstruction.from_residual(3, residual)


# -- lifting ----------------------------------------------------------------------

def _lift_step(u: TruncatedMap, jets: _StructureJets,
               certified: int) -> LiftResult:
    """lift, with the structure jets given and the residual already known
    to vanish at the orders 1..certified."""
    k = u.order + 1
    den, rows = _defect_rows(u, jets, first=certified + 1)
    try:
        sym = _symmetrized(rows, den, k, jets.j_l_at, jets.j_m_at,
                           lambda: _orbit_tensor(u.dim_in, u.dim_out, k, 1, den, rows))
    except DefectConditionError as err:
        _require_swap(err)
        return LiftResult(None, Obstruction.from_residual(k, err.defect))
    return LiftResult(u.with_symbol(sym), None)


def lift(u: TruncatedMap, j_l: StructureField, j_m: StructureField) -> LiftResult:
    """Append the canonical order-(k+1) symbol, or report the obstruction.

    Requires the compatibility residual to vanish through the current
    order.  A swap_conjugation failure of the defect tensor is the
    genuine geometric obstruction and is returned, not raised; the other
    two conditions cannot fail here.  The lifted map keeps every existing
    symbol unchanged.
    """
    _check_charts(u, j_l, j_m)
    return _lift_step(u, _StructureJets(u, j_l, j_m), certified=0)


def lift_tower(u: TruncatedMap, j_l: StructureField, j_m: StructureField,
               k_max: int = DEFAULT_MAX_ORDER) -> LiftResult:
    """Lift repeatedly until k_max or the first obstruction.

    Returns the deepest map reached; the obstruction field carries the
    blocking tensor when lifting stopped early.  The first step checks
    every input order; each later step starts from the order that the
    previous step has just lifted, whose residual zeta(Phi^(k)) - P_k
    symmetrize has certified zero.  With k_max <= u.order no step runs,
    and u is returned once every input order is checked.
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
    if k_max <= u.order:
        _require_zero_orders(_composition(u, jets, u.order - 1), 1, u.order)
        return LiftResult(u, None)
    cur, certified = u, 0
    while cur.order < k_max:
        step = _lift_step(cur, jets, certified)
        if not step.ok:
            return LiftResult(cur, step.obstruction)
        cur = step.lifted
        certified = cur.order
    return LiftResult(cur, None)


# -- symbol spaces -----------------------------------------------------------------

def symmetric_symbol_basis(dim_in: int, dim_out: int, k: int) -> List[PointTensor]:
    """Basis of the fully symmetric arity-k tensors, one per sorted index
    and output component."""
    return unit_basis(dim_in, dim_out, k, symmetric_rep)


def zeta_matrix(j_l_at: PointTensor, j_m_at: PointTensor,
                k: int) -> List[List[Fraction]]:
    """Matrix of zeta on the symmetric symbol space, columns per basis
    element, rows per (index, component) of the value."""
    return matrix_of(lambda b: zeta(b, j_l_at, j_m_at),
                     symmetric_symbol_basis(j_l_at.dim_in, j_m_at.dim_in, k))


def solve_symbol(p_k: PointTensor, j_l_at: PointTensor,
                 j_m_at: PointTensor) -> Optional[PointTensor]:
    """Some symmetric Phi with zeta(Phi) = P_k, or None when unsolvable.

    Independent of the symmetrize construction: solves the linear system
    over the symmetric symbol basis directly.
    """
    k = p_k.arity
    sol = linalg.solve(zeta_matrix(j_l_at, j_m_at, k), flatten(p_k))
    return None if sol is None else combination(
        sol, symmetric_symbol_basis(p_k.dim_in, p_k.dim_out, k))
