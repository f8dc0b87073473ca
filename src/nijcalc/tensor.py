"""Multilinear algebra on a fixed tangent space, exact.

A PointTensor is a type-(1,q) multilinear map on R^dim_in with values in
R^dim_out, stored densely: entries[(j1,..,jq)] is the value on the basis
tuple (e_j1,..,e_jq) as a list of Fractions.  Arity 0 is a plain vector,
arity 1 a linear map (column j = image of e_j).

Application is a support product: it visits only the index tuples built
from the nonzero coordinates of the arguments, so a call on basis vectors
reads one stored entry.  Arguments may hold any exact scalar (int,
Fraction, or a QuadExt); floats are refused, by apply and by every
constructor and scale.

Slot symmetry is checked on demand, not enforced by storage.  A sign
rule is a pure function taking an index tuple to (representative, sign):
the entry there is sign times the representative's, zero for sign 0.
The rules are symmetric_rep (jet symbols), alternating_rep (the
permutation sign: torsion, Lie brackets, forms) and pair_pattern_rep
(antisymmetric within slots (1,2), within (3,4) and under swapping the
pairs: the arity-4 invariant).  from_orbits builds a tensor from one
value per orbit, unchecked; from_function is its call under a private
rule that makes each index tuple its own orbit.  respects checks a
tensor against a rule.

contraction_sum is the one contraction kernel: a signed sum of slot
contractions, post-compositions and plain tensors, each with its slots
permuted into the output order, summed on integer numerators with one
Fraction per nonzero output component.  slot_compose (a tensor of any
arity fed into one slot of another), post_compose and precompose_all (a
linear map in every slot) are its one-term calls.  A linear equation on
tensors is stated once, as a contraction_sum, and solved as the
nullspace of matrix_of, the matrix of the operator on a basis of
unknowns such as a unit_basis (solution_basis).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import linalg

Index = Tuple[int, ...]
SignRule = Callable[[Index], Tuple[Index, int]]


class TensorError(ValueError):
    """Shape, arity, or symmetry violation."""


def _exact(c) -> Fraction:
    """c as a Fraction.  A float raises TensorError: it would be read as
    the nearest binary fraction, an exact answer to another question."""
    if isinstance(c, float):
        raise TensorError(f"float value {c!r}: tensors must be exact")
    return Fraction(c)


class PointTensor:
    __slots__ = ("dim_in", "dim_out", "arity", "entries")

    def __init__(self, dim_in: int, dim_out: int, arity: int,
                 entries: Dict[Index, List[Fraction]]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.arity = arity
        self.entries = entries

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_function(cls, dim_in: int, dim_out: int, arity: int,
                      fn: Callable[[Index], Sequence]) -> "PointTensor":
        """fn(idx) at every index tuple: from_orbits with each tuple its
        own orbit."""
        return cls.from_orbits(dim_in, dim_out, arity, _own_rep, fn)

    @classmethod
    def from_orbits(cls, dim_in: int, dim_out: int, arity: int, rep: SignRule,
                    fn: Callable[[Index], Sequence]) -> "PointTensor":
        """Entry sign * fn(representative) at each index tuple, under the
        sign rule rep; fn is called once per representative of nonzero
        sign, in the order the representatives first appear."""
        values: Dict[Index, List[Fraction]] = {}
        entries = {}
        for idx, r, sign in _orbit_table(rep, dim_in, arity):
            if sign == 0:
                entries[idx] = [Fraction(0)] * dim_out
                continue
            value = values.get(r)
            if value is None:
                # Fraction(v) on a Fraction costs as much as a negation
                value = values[r] = [v if type(v) is Fraction else _exact(v) for v in fn(r)]
                if len(value) != dim_out:
                    raise TensorError(f"value at {r} has length {len(value)}, expected {dim_out}")
            entries[idx] = list(value) if sign == 1 else [-v for v in value]
        return cls(dim_in, dim_out, arity, entries)

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence]) -> "PointTensor":
        """Arity-1 tensor from a dim_out x dim_in matrix."""
        dim_out = len(m)
        dim_in = len(m[0]) if m else 0
        if any(len(row) != dim_in for row in m):
            raise TensorError(f"matrix rows of lengths {[len(row) for row in m]}")
        entries = {(j,): [_exact(m[i][j]) for i in range(dim_out)] for j in range(dim_in)}
        return cls(dim_in, dim_out, 1, entries)

    def to_matrix(self) -> List[List[Fraction]]:
        if self.arity != 1:
            raise TensorError("to_matrix needs arity 1")
        return [[self.entries[(j,)][i] for j in range(self.dim_in)]
                for i in range(self.dim_out)]

    # -- basic algebra ---------------------------------------------------------

    def apply(self, args: Sequence[Sequence]) -> List[Fraction]:
        """T(args[0], .., args[q-1]), summed over the arguments' supports.

        Components may be int, Fraction or QuadExt; a float raises
        TensorError, since the result must be exact.
        """
        if len(args) != self.arity:
            raise TensorError(f"{len(args)} arguments for arity {self.arity}")
        supports = []
        for a in args:
            if len(a) != self.dim_in:
                raise TensorError(f"argument length {len(a)}, expected {self.dim_in}")
            support = []
            for j, c in enumerate(a):
                if isinstance(c, float):
                    raise TensorError(f"float component {c!r}: arguments must be exact")
                if c:
                    support.append((j, c))
            supports.append(support)
        out = [Fraction(0)] * self.dim_out
        for combo in itertools.product(*supports):
            idx = tuple(j for j, _ in combo)
            coeff = math.prod(c for _, c in combo)
            for i, v in enumerate(self.entries[idx]):
                if v:
                    out[i] += coeff * v
        return out

    def add(self, other: "PointTensor") -> "PointTensor":
        self._check_same_shape(other)
        return PointTensor(self.dim_in, self.dim_out, self.arity,
                           {idx: [a + b for a, b in zip(v, other.entries[idx])]
                            for idx, v in self.entries.items()})

    def sub(self, other: "PointTensor") -> "PointTensor":
        self._check_same_shape(other)
        return PointTensor(self.dim_in, self.dim_out, self.arity,
                           {idx: [a - b for a, b in zip(v, other.entries[idx])]
                            for idx, v in self.entries.items()})

    def scale(self, c) -> "PointTensor":
        c = _exact(c)
        return PointTensor(self.dim_in, self.dim_out, self.arity,
                           {idx: [c * a for a in v] for idx, v in self.entries.items()})

    def neg(self) -> "PointTensor":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in v) for v in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, PointTensor):
            return NotImplemented
        return (self.dim_in, self.dim_out, self.arity) == (other.dim_in, other.dim_out, other.arity) \
            and self.entries == other.entries

    __hash__ = None  # unhashable: entry lists are mutable

    def _check_same_shape(self, other: "PointTensor") -> None:
        if (self.dim_in, self.dim_out, self.arity) != (other.dim_in, other.dim_out, other.arity):
            raise TensorError("tensor shape mismatch")

    # -- symmetry ---------------------------------------------------------------

    def swap_slots(self, s: int, t: int) -> "PointTensor":
        entries = {}
        for idx, v in self.entries.items():
            new = list(idx)
            new[s], new[t] = new[t], new[s]
            entries[tuple(new)] = list(v)
        return PointTensor(self.dim_in, self.dim_out, self.arity, entries)

    def is_antisymmetric_in(self, s: int, t: int) -> bool:
        return self.swap_slots(s, t) == self.neg()

    def is_symmetric_in(self, s: int, t: int) -> bool:
        return self.swap_slots(s, t) == self

    def respects(self, rep: SignRule) -> bool:
        """Whether every entry is sign times its representative's."""
        entries = self.entries
        for idx, r, sign in _orbit_table(rep, self.dim_in, self.arity):
            v = entries[idx]
            if sign == 1:
                if v != entries[r]:
                    return False
            elif sign == -1:
                if any(x != -y for x, y in zip(v, entries[r])):
                    return False
            elif any(v):
                return False
        return True

    def has_pair_pattern(self) -> bool:
        """Antisym within slots (0,1), within (2,3), antisym under pair swap."""
        if self.arity != 4:
            raise TensorError("pair pattern is for arity 4")
        return self.respects(pair_pattern_rep)


# -- sign rules ----------------------------------------------------------------

_ORBIT_TABLES: Dict[Tuple[SignRule, int, int], tuple] = {}


def _orbit_table(rep: SignRule, dim: int, arity: int) -> Tuple[Tuple[Index, Index, int], ...]:
    """(index tuple, representative, sign) in product order; rules are pure."""
    key = (rep, dim, arity)
    if key not in _ORBIT_TABLES:
        if len(_ORBIT_TABLES) >= 64:
            _ORBIT_TABLES.clear()
        tuples = itertools.product(range(dim), repeat=arity)
        _ORBIT_TABLES[key] = tuple((idx,) + rep(idx) for idx in tuples)
    return _ORBIT_TABLES[key]


def _own_rep(idx: Index) -> Tuple[Index, int]:
    """The tuple itself, sign 1: no symmetry (from_function)."""
    return idx, 1


def symmetric_rep(idx: Index) -> Tuple[Index, int]:
    """The sorted tuple, sign 1."""
    return tuple(sorted(idx)), 1


def alternating_rep(idx: Sequence[int]) -> Tuple[Index, int]:
    """The sorted tuple and the sign of the sorting permutation, 0 on a
    repeated index."""
    rep = tuple(sorted(idx))
    if len(set(rep)) < len(rep):
        return rep, 0
    return rep, (-1) ** sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])


def pair_pattern_rep(idx: Index) -> Tuple[Index, int]:
    """(a, b, c, d) with a < b, c < d and (a, b) < (c, d); sign 0 when
    a = b, c = d or the two pairs hold the same indices."""
    a, b, c, d = idx
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if c > d:
        c, d, sign = d, c, -sign
    if (a, b) > (c, d):
        a, b, c, d, sign = c, d, a, b, -sign
    if a == b or c == d or (a, b) == (c, d):
        sign = 0
    return (a, b, c, d), sign


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def identity_map(dim: int) -> PointTensor:
    return PointTensor.from_matrix(linalg.identity(dim))


def post_compose(phi: PointTensor, t: PointTensor) -> PointTensor:
    """phi o T: push the value of T through the linear map phi (a one-term
    contraction_sum)."""
    return contraction_sum(t.dim_in, phi.dim_out, t.arity, [(1, phi, t, None, None)])


_ZERO = Fraction(0)


def contraction_sum(dim_in: int, dim_out: int, arity: int, terms: Sequence[tuple]) -> PointTensor:
    """sum_k sign_k * term_k.  A term (sign, outer, inner, slot, perm) is
    slot_compose(outer, inner, slot), post_compose(outer, inner) when slot
    is None, or inner when outer is None too; its k-th slot goes to output
    slot perm[k] (None: slot k), so no term needs a swap_slots.

    Each distinct input is read once, as the nonzero components of each
    entry, integers over the lcm of its denominators.  A term's products
    are numerators over the product d of its inputs' lcms; weighted by
    D // d, D the lcm of every d, they are summed in one integer per output
    component, and each nonzero sum becomes one Fraction(sum, D).  With a
    QuadExt in any input the values themselves are summed, over D = 1.
    Every component comes out a Fraction or a QuadExt."""
    return PointTensor(dim_in, dim_out, arity,
                       _contraction_sum(terms, [dim_in] * arity, dim_out))


def _contraction_sum(terms: Sequence[tuple], dims: List[int], dim_out: int) -> Dict[Index, List]:
    """contraction_sum's entries, per-slot dimensions dims (mixed in precompose_all)."""
    tensors = {id(t): t for term in terms for t in term[1:3] if t is not None}
    try:
        lcms, exact = {k: math.lcm(*{x.denominator for v in t.entries.values() for x in v})
                       for k, t in tensors.items()}, True
    except AttributeError:  # a QuadExt component: sum the values themselves
        lcms, exact = dict.fromkeys(tensors, 1), False
    rows = {k: {idx: [(i, x.numerator * (lcms[k] // x.denominator) if exact else x)
                      for i, x in enumerate(v) if x] for idx, v in t.entries.items()}
            for k, t in tensors.items()}
    term_dens = [lcms[id(inner)] * (lcms[id(outer)] if outer is not None else 1)
                 for _, outer, inner, _, _ in terms]
    den = math.lcm(*term_dens)
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    accs = [[0] * dim_out for _ in range(math.prod(dims))]
    for (sign, outer, inner, slot, perm), d in zip(terms, term_dens):
        w = sign * (den // d)
        order = range(len(dims)) if perm is None else perm
        # the output stride and dimension of each of the term's slots
        t_strides, t_dims = [strides[p] for p in order], [dims[p] for p in order]
        if slot is None:
            fits = inner.arity == len(dims) and (
                outer is None or (outer.arity, outer.dim_in) == (1, inner.dim_out))
        else:  # every slot of inner has inner.dim_in
            fits = (outer.arity - 1 + inner.arity == len(dims) and inner.dim_out == outer.dim_in
                    and {inner.dim_in} >= set(t_dims[slot:slot + inner.arity]))
        if not fits or (outer or inner).dim_out != dim_out:
            raise TensorError("contraction term shape mismatch")
        inner_rows = rows[id(inner)]
        if slot is None:
            cols = ([[(j, 1)] for j in range(dim_out)] if outer is None
                    else [rows[id(outer)][(j,)] for j in range(outer.dim_in)])
            for idx, support in inner_rows.items():
                acc = accs[sum(map(operator.mul, idx, t_strides))]
                for j, a in support:
                    a *= w
                    for i, c in cols[j]:
                        acc[i] += a * c
            continue
        outer_rows, end = rows[id(outer)], slot + inner.arity
        mids = [(sum(map(operator.mul, mid, t_strides[slot:end])), [(m, w * c) for m, c in support])
                for mid, support in inner_rows.items() if support]
        suffixes = [(sfx, sum(map(operator.mul, sfx, t_strides[end:])))
                    for sfx in itertools.product(*map(range, t_dims[end:]))]
        for prefix in itertools.product(*map(range, t_dims[:slot])):
            base = sum(map(operator.mul, prefix, t_strides))
            # row[m]: nonzero components of outer at (prefix, m, suffix)
            rows_at = [(s_off, [outer_rows[prefix + (m,) + sfx] for m in range(inner.dim_out)])
                       for sfx, s_off in suffixes]
            for m_off, support in mids:
                for s_off, row in rows_at:
                    acc = accs[base + m_off + s_off]
                    for m, c in support:
                        for i, x in row[m]:
                            acc[i] += c * x
    # an int sum, every sum on rational input, is a numerator over den
    return dict(zip(itertools.product(*map(range, dims)),
                    ([a if type(a) is not int else Fraction(a, den) if a else _ZERO for a in acc]
                     for acc in accs)))


def precompose_all(t: PointTensor, phi: PointTensor) -> PointTensor:
    """T with every argument slot precomposed by the linear map phi, one
    slot at a time: phi maps R^{phi.dim_in} -> R^{t.dim_in}, and the
    result lives on R^{phi.dim_in}."""
    if phi.arity != 1 or phi.dim_out != t.dim_in:
        raise TensorError("precompose shape mismatch")
    out = PointTensor(t.dim_in, t.dim_out, t.arity, {idx: list(v) for idx, v in t.entries.items()})
    dims = [t.dim_in] * t.arity
    for slot in range(t.arity):
        dims[slot] = phi.dim_in
        # out holds the partial result, whose slots before slot have phi.dim_in
        out.entries = _contraction_sum([(1, out, phi, slot, None)], dims, t.dim_out)
    out.dim_in = phi.dim_in
    return out


def slot_compose(t: PointTensor, s: PointTensor, slot: int) -> PointTensor:
    """T with the tensor S fed into one argument slot (0-based): the entry
    at (i.., j_1..j_q, k..) is T(e_i.., S(e_j1, .., e_jq), e_k..), so S's
    q slots take the place of that one.  S of arity 1 is a square map
    precomposing the slot.  A one-term contraction_sum."""
    return contraction_sum(t.dim_in, t.dim_out, t.arity - 1 + s.arity, [(1, t, s, slot, None)])


def kernel_matrix(t: PointTensor, xi: Sequence) -> List[List[Fraction]]:
    """Matrix of the linear map eta -> T(xi, eta) for arity-2 T."""
    if t.arity != 2:
        raise TensorError("kernel computations need arity 2")
    if len(xi) != t.dim_in or any(isinstance(c, float) for c in xi):
        raise TensorError(f"xi must be an exact vector of length {t.dim_in}")
    return slot_compose(t, PointTensor(t.dim_in, t.dim_in, 0, {(): list(xi)}), 0).to_matrix()


def kernel_dim(t: PointTensor, xi: Sequence) -> int:
    """dim ker T(xi, .) for antisymmetric arity-2 T, exact."""
    return t.dim_in - linalg.rank(kernel_matrix(t, xi))


def _check_complex_structure(j: PointTensor, label: str) -> None:
    if j.arity != 1 or j.dim_in != j.dim_out:
        raise TensorError(f"{label} is not a square linear map")
    sq = post_compose(j, j).add(identity_map(j.dim_in)).to_matrix()
    bad = next(((i, k) for i, row in enumerate(sq) for k, x in enumerate(row) if x), None)
    if bad is not None:
        raise TensorError(f"{label}^2 != -I at entry ({bad[0]},{bad[1]})")


def unit_basis(dim_in: int, dim_out: int, arity: int, rep: SignRule) -> List[PointTensor]:
    """The unit tensors of a sign rule: one per representative of nonzero
    sign, in order of first appearance, and per output component, with
    that unit vector at the representative."""
    reps = dict.fromkeys(r for _, r, sign in _orbit_table(rep, dim_in, arity) if sign)
    return [PointTensor.from_orbits(dim_in, dim_out, arity, rep,
                                    lambda idx, r=r, i=i: [int(idx == r and c == i)
                                                           for c in range(dim_out)])
            for r in reps for i in range(dim_out)]


def flatten(t: PointTensor) -> List[Fraction]:
    """The entries in sorted index order, components consecutive."""
    return [c for idx in sorted(t.entries) for c in t.entries[idx]]


def matrix_of(op: Callable[[PointTensor], PointTensor],
              basis: Sequence[PointTensor]) -> List[List[Fraction]]:
    """Matrix of the linear operator op on span(basis): column k is
    flatten(op(basis[k])), a row per (index tuple, component) of the value."""
    cols = [flatten(op(b)) for b in basis]
    return [list(row) for row in zip(*cols)]


def combination(coeffs: Sequence, basis: Sequence[PointTensor]) -> PointTensor:
    """sum_k coeffs[k] * basis[k], visiting only nonzero coefficients and
    nonzero entries (a unit tensor has few)."""
    out = basis[0].scale(0)
    for c, b in zip(coeffs, basis):
        if c != 0:
            for idx, v in b.entries.items():
                if any(v):
                    out.entries[idx] = [x + c * y for x, y in zip(out.entries[idx], v)]
    return out


def solution_basis(op: Callable[[PointTensor], PointTensor],
                   basis: Sequence[PointTensor]) -> List[PointTensor]:
    """Basis of {t in span(basis) : op(t) = 0} for a linear op: one
    combination of basis per vector of the nullspace of matrix_of(op, basis)."""
    return [combination(v, basis) for v in linalg.nullspace(matrix_of(op, basis))]


def commutant_basis(j_l: PointTensor, j_m: PointTensor) -> List[PointTensor]:
    """Basis of {Phi : j_m o Phi = Phi o j_l}; dimension 2*l*m.

    Both inputs must square to -I.  The unknowns are the unit maps E_(r,c),
    row-major (E_(r,c) at r * dim_in + c), and the basis is the solution
    basis of j_m o Phi - Phi o j_l = 0 on them, eliminated lexicographically.
    """
    _check_complex_structure(j_l, "j_l")
    _check_complex_structure(j_m, "j_m")
    din, dout = j_l.dim_in, j_m.dim_in
    units = [PointTensor.from_matrix([[int((i, j) == (r, c)) for j in range(din)]
                                      for i in range(dout)])
             for r in range(dout) for c in range(din)]
    return solution_basis(lambda phi: contraction_sum(
        din, dout, 1, [(1, j_m, phi, None, None), (-1, phi, j_l, 0, None)]), units)
