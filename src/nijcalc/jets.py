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
computed once per lift step by truncated composition (poly.jet_substitute),
cut above the degree the step needs.  Its degree-(r - 1) part is the
order-r residual and depends only on Phi^(1..r), so one polynomial built
from Phi^(1..k-1) shows that the input orders vanish and, in its top
part, gives -P_k.  The structures are shifted to the base points once per
lift or tower (StructureField.jet) and every derivative is read off those
jets.

Every residual is symmetric in its trailing slots, so each residual
tensor is read off the composition at the index tuples whose trailing
slots are sorted, one per orbit, and filled over the orbits
(PointTensor.from_orbits).  The set-partition expansion of the same
coefficient is kept as an independent route.  It is evaluated at the same
representatives and must agree with the composition there for each P_k
and each public residual; otherwise InternalInconsistencyError is raised.
Its terms are keyed canonically, since the symbols are fully symmetric
and derivative slots commute; each representative counts its keys, each
distinct key is evaluated once on integer numerators of the symbols and
of the nonzero entries of d^(p-1) J, and the counts times the values are
summed in one integer per component.

The canonical symbol is solved in polynomial form, by the Koszul
homotopy for dbar written in real terms.  With A = J_L(x), B = J_M(y),
Q_a(h) = P_k(e_a, h, ..., h)/(k - 1)! and u(h) = Phi^(k)(h, ..., h)/k!,
zeta(Phi^(k)) = P_k reads B d_a u - sum_b A[b][a] d_b u = Q_a.  The
antilinear part of Du must be F = -1/2 B Q, so g(h) = sum_a h_a F_a(h) is
sum_q q u_q over the (p, q)-types of u; T v = -B Dv(h)[A h] acts on type
(p, q) as p - q = k - 2q, and u = pi(T) g with pi the degree-(k - 1)
interpolant of 2/(k - lambda) at lambda = k - 2, k - 4, ..., -k.  Since
ker zeta on symmetric symbols is the type-(k, 0) part, this is the unique
solution without a (k, 0) part.  It takes k - 1 applications of T, each
a sparse polynomial operation, exact over Q.

Each P_k is checked against the three conditions once, inside
symmetrize.  Trailing symmetry is an orbit check; antilinearity and swap
conjugation are checked as polynomial identities in Q_a and its first
partials, which for a P_k symmetric in its trailing slots hold exactly
when the dense defect tensors vanish.  Those tensors (defect_conditions)
are built only when a check fails, as the witness of the failure.
symmetrize then certifies the symbol it returns: the symbol is fully
symmetric, and u read back from its sorted representatives satisfies the
polynomial equation above.  As P_k is symmetric in its trailing slots,
that is zeta(Phi^(k)) == P_k over every index tuple.  That equation is
the order-k residual of the lifted map, so lift_tower starts each later
step from the order it has just lifted.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg, poly
from .forms import VectorForm
from .invariants import (InternalInconsistencyError, higher_nijenhuis,
                         jet_differential, nijenhuis_tensor)
from .poly import PolyVec
from .structures import StructureError, StructureField
from .tensor import (PointTensor, combination, contraction_sum, flatten, matrix_of,
                     post_compose, precompose_all, slot_compose, symmetric_rep, unit_basis)

Index = Tuple[int, ...]
Vector = List[Fraction]

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
    require_nonzero_first: bool = False

    def __post_init__(self):
        for name in ("x", "y"):
            point = getattr(self, name)
            if any(isinstance(c, float) for c in point):
                raise StructureError(f"float in base point {name} = {point!r}: must be exact")
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
        if self.require_nonzero_first and self.symbols[0].tensor.is_zero():
            raise StructureError("order-1 symbol is zero but was flagged nondegenerate")

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
        return TruncatedMap(self.x, self.y, self.symbols + (sym,),
                            self.require_nonzero_first)


def truncate(u: TruncatedMap, order: int) -> TruncatedMap:
    """Forget the symbols above the given order."""
    if not 1 <= order <= u.order:
        raise StructureError(f"cannot truncate an order-{u.order} map to {order}")
    return TruncatedMap(u.x, u.y, u.symbols[:order], u.require_nonzero_first)


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
        self.l_cols, self.m_cols = (j.jet(list(pt), j.max_entry_degree())
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


def _slot_polys(t: PointTensor, head: Index) -> PolyVec:
    """t(e_head, h, ..., h)/(arity - len(head))! for t symmetric in the
    slots after head: the coefficient of h^alpha is the entry at head plus
    the sorted tuple with multiplicities alpha, over alpha!."""
    n = t.dim_in
    out: PolyVec = [{} for _ in range(t.dim_out)]
    for rest in itertools.combinations_with_replacement(range(n), t.arity - len(head)):
        alpha = tuple(rest.count(b) for b in range(n))
        w = _factorial_weight(alpha)
        for comp, c in zip(out, t.entries[head + rest]):
            if c:
                comp[alpha] = c / w
    return out


def _slot_entry(polys: PolyVec, rest: Index, n: int, sign: int = 1) -> Vector:
    """The inverse of _slot_polys at one sorted tuple rest: alpha! times the
    coefficient of h^alpha in each component, alpha the multiplicities of
    rest, times sign."""
    alpha = tuple(rest.count(b) for b in range(n))
    w = sign * _factorial_weight(alpha)
    return [w * c.get(alpha, 0) for c in polys]


def _gradient(v: PolyVec, n: int) -> List[PolyVec]:
    """The columns d_b v of Dv, b < n."""
    return [[poly.diff(c, b + 1) for c in v] for b in range(n)]


def _taylor_map(u: TruncatedMap) -> PolyVec:
    """U(h) = u(x + h) - y: the sum of the _slot_polys of the symbols."""
    out: PolyVec = [{} for _ in range(u.dim_out)]
    for s in u.symbols:
        for comp, part in zip(out, _slot_polys(s.tensor, ())):
            comp.update(part)
    return out


def _cr_polynomial(u: TruncatedMap, jets: _StructureJets, top: int) -> List[PolyVec]:
    """R_a(h) = J_M(y + U(h)) d_a U - sum_b J_L[b][a](x + h) d_b U for each
    basis direction a, cut above degree top; U is _taylor_map(u).

    R_a is the Taylor polynomial of (j_M o u_* - u_* o j_L)(e_a) at x, so
    its degree-(r - 1) part is the order-r residual and depends only on
    Phi^(1..r).  With top = u.order it holds every residual of u, and its
    top part, which misses the absent Phi^(top + 1), is -P_(top + 1).
    """
    n = u.dim_in
    big_u = _taylor_map(u)
    d_u = _gradient(big_u, n)
    m_at_u = [[poly.jet_substitute(p, big_u, n, top) for p in col]
              for col in jets.m_cols]
    return [poly.vec_sub(m_part, l_part) for m_part, l_part in zip(
        poly.jet_apply_columns(m_at_u, d_u, top),
        poly.jet_apply_columns(d_u, jets.l_cols, top))]


def _trailing_rep(idx: Index) -> Tuple[Index, int]:
    """Sign rule of a residual: symmetric in the slots after the first."""
    return (idx[0],) + tuple(sorted(idx[1:])), 1


def _integer_rows(rows: Dict[Index, Sequence[Fraction]]) -> Tuple[Dict[Index, List[int]], int]:
    """rows as integer numerators over D, the lcm of their denominators."""
    den = math.lcm(*(c.denominator for v in rows.values() for c in v))
    return {idx: [c.numerator * (den // c.denominator) for c in v]
            for idx, v in rows.items()}, den


def _residual_terms(u: TruncatedMap, jets: _StructureJets,
                    skip_top: bool) -> Dict[Index, Vector]:
    """Order-k coefficient of j_M o u_* - u_* o j_L at the representatives,
    from set partitions: the tensor route that cross-checks _cr_polynomial.

    With skip_top the terms containing the order-k symbol are dropped and
    the sign is flipped, which turns the residual into the defect tensor
    P_k that a new order-k symbol must reproduce.

    A term is keyed canonically.  The symbols are fully symmetric and the
    derivative slots of d^(p-1) J commute, so a j_M term is keyed by its
    blocks' sorted values, block 0 (the matrix argument) first and the
    others sorted, and a j_L term by its head and rest with head[1:] and
    rest sorted.  Each representative counts its keys, each distinct key
    is evaluated once, and the counts times the values are summed in one
    integer per component.
    """
    k = u.order + 1 if skip_top else u.order
    l_dim, m_dim = u.dim_in, u.dim_out
    d_l, d_m = (tower[:k + 1] for tower in jets.upto(k))
    # the terms at a representative (a,) + rest, in positions of rest: each
    # set partition as (block 0 less a, the other blocks), skipping those of
    # p blocks where d^(p-1) j_M vanishes, and each source term as
    # (derivative slots, remaining slots); rest is sorted, so every block
    # reads off it sorted
    m_parts = [(tuple(i - 1 for i in blocks[0][1:]),
                tuple(tuple(i - 1 for i in b) for b in blocks[1:]))
               for blocks in set_partitions(k)
               if not (skip_top and len(blocks) == 1) and d_m[len(blocks)] is not None]
    l_parts = [(s, tuple(i for i in range(k - 1) if i not in s))
               for p in range(2 if skip_top else 1, k + 1)
               for s in itertools.combinations(range(k - 1), p - 1)]
    # every input read once, as integer numerators: the symbols at their
    # sorted tuples, and the nonzero entries of d^(p-1) J of each structure
    sym, s_den = _integer_rows({rep: s.tensor.entries[rep] for s in u.symbols for rep in
                                itertools.combinations_with_replacement(range(l_dim), s.k)})
    (m_rows, m_den), (l_rows, l_den) = (_integer_rows(
        {idx: v for d in tower if d is not None for idx, v in d.entries.items() if any(v)})
        for tower in (d_m, d_l))
    m_entries: Dict[int, List[Tuple[Index, List[Tuple[int, int]]]]] = {}
    for idx, row in m_rows.items():
        m_entries.setdefault(len(idx), []).append(
            (idx, [(i, c) for i, c in enumerate(row) if c]))
    l_entries = {head: [(i0, c) for i0, c in enumerate(row) if c]
                 for head, row in l_rows.items()}
    # every term over den: a j_M term of p blocks is over m_den s_den^p, a
    # j_L term over l_den s_den
    sign = -1 if skip_top else 1
    den = m_den * l_den * s_den ** k
    m_weight = [sign * l_den * s_den ** (k - p) for p in range(k + 1)]
    l_weight = -sign * m_den * s_den ** (k - 1)

    def m_value(key: Tuple[Index, ...]) -> List[Tuple[int, int]]:
        """d^(p-1) j_M on the symbol values at the blocks of key, weighted:
        the nonzero components."""
        args = [sym[b] for b in key]
        acc = [0] * m_dim
        for idx, comps in m_entries.get(len(key), ()):
            c = math.prod(arg[j] for arg, j in zip(args, idx))
            if c:
                for i, v in comps:
                    acc[i] += c * v
        w = m_weight[len(key)]
        return [(i, w * c) for i, c in enumerate(acc) if c]

    def l_value(key: Tuple[Index, Index]) -> List[Tuple[int, int]]:
        """The order-(len(rest) + 1) symbol on d^(p-1) j_L(head) and rest,
        weighted: the nonzero components."""
        head, rest = key
        acc = [0] * m_dim
        for i0, c in l_entries.get(head, ()):
            for i, a in enumerate(sym[tuple(sorted((i0,) + rest))]):
                acc[i] += c * a
        return [(i, l_weight * c) for i, c in enumerate(acc) if c]

    m_values: Dict[Tuple[Index, ...], List[Tuple[int, int]]] = {}
    l_values: Dict[Tuple[Index, Index], List[Tuple[int, int]]] = {}
    zero = Fraction(0)
    out: Dict[Index, Vector] = {}
    # one representative (a, i_1 <= .. <= i_(k-1)) per orbit of _trailing_rep
    for rest in itertools.combinations_with_replacement(range(l_dim), k - 1):
        # the keys of every representative with this rest, less a, counted
        get = rest.__getitem__
        m_tails: Dict[Tuple[Index, Tuple[Index, ...]], int] = {}
        for b0, others in m_parts:
            key = (tuple(map(get, b0)), tuple(sorted([tuple(map(get, b)) for b in others])))
            m_tails[key] = m_tails.get(key, 0) + 1
        l_tails: Dict[Tuple[Index, Index], int] = {}
        for s, others in l_parts:
            key = (tuple(map(get, s)), tuple(map(get, others)))
            l_tails[key] = l_tails.get(key, 0) + 1
        for a in range(l_dim):
            acc = [0] * m_dim
            for (b0, others), mult in m_tails.items():
                key = (tuple(sorted((a,) + b0)),) + others
                val = m_values.get(key)
                if val is None:
                    val = m_values[key] = m_value(key)
                for i, c in val:
                    acc[i] += mult * c
            for (s, others), mult in l_tails.items():
                key = ((a,) + s, others)
                val = l_values.get(key)
                if val is None:
                    val = l_values[key] = l_value(key)
                for i, c in val:
                    acc[i] += mult * c
            out[(a,) + rest] = [Fraction(c, den) if c else zero for c in acc]
    return out


def _cross_checked(u: TruncatedMap, jets: _StructureJets, r: List[PolyVec],
                   skip_top: bool) -> PointTensor:
    """The residual (or, with skip_top, P_k) read off the composition r:
    _slot_entry of r[a] at each representative (a, I), negated for P_k.
    The tensor route must agree at every representative."""
    k = u.order + 1 if skip_top else u.order
    sign = -1 if skip_top else 1
    out = PointTensor.from_orbits(
        u.dim_in, u.dim_out, k, _trailing_rep,
        lambda idx: _slot_entry(r[idx[0]], idx[1:], u.dim_in, sign))
    if any(out.entries[idx] != v
           for idx, v in _residual_terms(u, jets, skip_top).items()):
        what = f"defect tensor P_{k}" if skip_top else f"order-{k} residual"
        raise InternalInconsistencyError(
            f"the composition and tensor routes disagree on the {what}")
    return out


def cr_residual(u: TruncatedMap, j_l: StructureField,
                j_m: StructureField) -> PointTensor:
    """Order-k coefficient of j_M o u_* - u_* o j_L for k = u.order.

    Zero at every order r <= k exactly when the map conjugates the
    structures modulo terms of order k.  At k = 1 this is the pointwise
    commutator j_M(y) Phi - Phi j_L(x).
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
    return _cross_checked(u, jets, _cr_polynomial(u, jets, u.order - 1),
                          skip_top=False)


def _check_charts(u: TruncatedMap, j_l: StructureField, j_m: StructureField) -> None:
    if u.dim_in != j_l.dim or u.dim_out != j_m.dim:
        raise StructureError("map charts do not match the structure dimensions")


def _defect_tensor(u: TruncatedMap, jets: _StructureJets,
                   first: int = 1) -> PointTensor:
    """P_k for k = u.order + 1, from one composition that first shows a
    zero residual at the orders first..u.order; the orders below first
    are already certified by the caller."""
    r = _cr_polynomial(u, jets, u.order)
    for order in range(first, u.order + 1):
        if any(poly.low_degree_part(c, order - 1) for r_a in r for c in r_a):
            raise StructureError(
                f"map fails the compatibility equation at order {order}")
    return _cross_checked(u, jets, r, skip_top=True)


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


def _conditions_hold(q: List[PolyVec], j_l_at: PointTensor, j_m_at: PointTensor,
                     k: int) -> bool:
    """Antilinearity and swap conjugation of an order-k P_k symmetric in
    its trailing slots, as polynomial identities in h.

    With A = J_L(x), B = J_M(y), q[a] = Q_a = _slot_polys(P_k, (a,)) and
    D_cd = d_d Q_c - d_c Q_d, they read B Q_a + sum_b A[b][a] Q_b = 0 for
    every a, and D_ab - sum_(c < d) (A[c][a] A[d][b] - A[d][a] A[c][b]) D_cd
    = 0 for every a < b: the two defect tensors with h in every trailing
    slot, over (k - 1)! and (k - 2)!.  Those tensors are symmetric in
    their trailing slots, so each vanishes exactly when its polynomial
    does; swap conjugation is also antisymmetric in slots 0 and 1.
    """
    n = len(q)

    def consts(values: Sequence[Fraction]) -> PolyVec:
        return [poly.const(c, n) for c in values]

    # a_cols[a][c] = A[c][a], the image of e_a
    a_cols = [j_l_at.entries[(a,)] for a in range(n)]
    b_cols = [consts(j_m_at.entries[(i,)]) for i in range(j_m_at.dim_in)]
    anti = poly.jet_apply_columns(b_cols + q, [q[a] + consts(a_cols[a]) for a in range(n)],
                                  math.inf)
    if any(c for v in anti for c in v):
        return False
    if k < 2:
        return True
    pairs = list(itertools.combinations(range(n), 2))
    grads = [_gradient(q_a, n) for q_a in q]
    alternations = [poly.vec_sub(grads[c][d], grads[d][c]) for c, d in pairs]
    swap = poly.jet_apply_columns(alternations, [consts([
        int((c, d) == (a, b)) - a_cols[a][c] * a_cols[b][d] + a_cols[a][d] * a_cols[b][c]
        for c, d in pairs]) for a, b in pairs], math.inf)
    return not any(c for v in swap for c in v)


def _verify_defect(p_k: PointTensor, j_l_at: PointTensor,
                   j_m_at: PointTensor) -> List[PolyVec]:
    """Check P_k against the three conditions and return its Q_a.

    Trailing symmetry is checked first, then the other two as polynomial
    identities (_conditions_hold).  Only when one fails are the dense
    defect_conditions built, and the first nonzero one, in the order
    antilinearity, trailing_symmetry, swap_conjugation, is raised with
    its tensor as the witness.
    """
    _check_defect_shapes(p_k, j_l_at, j_m_at)
    if p_k.respects(_trailing_rep):
        q = [_slot_polys(p_k, (a,)) for a in range(p_k.dim_in)]
        if _conditions_hold(q, j_l_at, j_m_at, p_k.arity):
            return q
    conds = defect_conditions(p_k, j_l_at, j_m_at)
    for name in ("antilinearity", "trailing_symmetry", "swap_conjugation"):
        defect = conds.get(name)
        if defect is not None and not defect.is_zero():
            raise DefectConditionError(
                name, defect, f"defect tensor fails the {name} condition")
    raise InternalInconsistencyError(
        "the polynomial and dense defect conditions disagree")


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
    Requires the residual to vanish through order k - 1.
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
    p_k = _defect_tensor(u, jets)
    if verify:
        try:
            _verify_defect(p_k, jets.j_l_at, jets.j_m_at)
        except DefectConditionError as err:
            _require_swap(err)
            raise
    return p_k


# -- canonical symmetric solution ------------------------------------------------

def symmetrize(p_k: PointTensor, j_l_at: PointTensor,
               j_m_at: PointTensor) -> JetSymbol:
    """Canonical fully symmetric Phi^(k) with zeta(Phi^(k)) = P_k.

    Solved by the dbar homotopy of the module docstring, with A = J_L(x)
    and B = J_M(y) the structures at the base points.  The result is the
    unique solution without a type-(k, 0) part, so it is also the
    completion that projects -1/2 B o P_k slot by slot onto its linear and
    antilinear parts and adjoins the permuted components (the display
    formula at k = 3).
    """
    q = _verify_defect(p_k, j_l_at, j_m_at)
    k, n = p_k.arity, p_k.dim_in

    def columns(m: PointTensor, c) -> List[PolyVec]:
        """c m as constant polynomial columns."""
        return [[poly.const(c * x, n) for x in m.entries[(b,)]]
                for b in range(m.dim_in)]

    a_cols, b_cols = columns(j_l_at, 1), columns(j_m_at, 1)
    minus_b, half_b = columns(j_m_at, -1), columns(j_m_at, Fraction(-1, 2))
    h = [poly.var(b + 1, n) for b in range(n)]
    a_h = poly.apply_columns(a_cols, h)

    def t_op(v: PolyVec) -> PolyVec:
        """T v = -B Dv(h)[A h]: p - q on the type-(p, q) part."""
        return poly.apply_columns(minus_b, poly.apply_columns(_gradient(v, n), a_h))

    g = poly.apply_columns([poly.apply_columns(half_b, q_a) for q_a in q], h)
    # pi in Newton form on the nodes k - 2, k - 4, .., -k: its divided
    # differences are 1/(2^j (j + 1)!), and Horner step j applies
    # T - (k - 2(j + 1))
    u = poly.vec_scale(g, Fraction(1, 2 ** (k - 1) * math.factorial(k)))
    for j in range(k - 2, -1, -1):
        u = poly.vec_add(poly.vec_sub(t_op(u), poly.vec_scale(u, k - 2 * j - 2)),
                         poly.vec_scale(g, Fraction(1, 2 ** j * math.factorial(j + 1))))

    phi = PointTensor.from_orbits(
        n, p_k.dim_out, k, symmetric_rep, lambda rep: _slot_entry(u, rep, n))
    if not phi.respects(symmetric_rep):
        raise InternalInconsistencyError("symmetrized symbol is not symmetric")
    # B d_a u - sum_b A[b][a] d_b u = Q_a, u read back from phi
    du = _gradient(_slot_polys(phi, ()), n)
    if any(poly.vec_sub(poly.apply_columns(b_cols, du[a]),
                        poly.apply_columns(du, a_cols[a])) != q[a] for a in range(n)):
        raise InternalInconsistencyError(
            "symmetrized symbol does not reproduce the defect tensor")
    return JetSymbol(k, phi)


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
    p_k = _defect_tensor(u, jets, first=certified + 1)
    try:
        sym = symmetrize(p_k, jets.j_l_at, jets.j_m_at)
    except DefectConditionError as err:
        _require_swap(err)
        return LiftResult(None, Obstruction.from_residual(u.order + 1, err.defect))
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
    symmetrize has certified zero.
    """
    _check_charts(u, j_l, j_m)
    jets = _StructureJets(u, j_l, j_m)
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
