"""Multilinear algebra on a fixed tangent space, exact.

A PointTensor is a type-(1,q) multilinear map on R^dim_in with values in
R^dim_out, stored densely: entries[(j1,..,jq)] is the value on the basis
tuple (e_j1,..,e_jq) as a list of Fractions.  Arity 0 is a plain vector,
arity 1 a linear map (column j = image of e_j).

Application is a support product: it visits only the index tuples built
from the nonzero coordinates of the arguments, so a call on basis vectors
reads one stored entry.  Arguments may hold any exact scalar (int,
Fraction, or a QuadExt: apply is where Q(sqrt d) meets a tensor); floats,
strings and None are refused, by apply and by every constructor and scale.

Slot symmetry is checked on demand, not enforced by storage.  A sign
rule is a pure function taking an index tuple to (representative, sign):
the entry there is sign times the representative's, zero for sign 0.
The rules are symmetric_rep (jet symbols), alternating_rep (the
permutation sign: torsion, Lie brackets, forms) and pair_pattern_rep
(antisymmetric within slots (1,2), within (3,4) and under swapping the
pairs: the arity-4 invariant).  from_orbits builds a tensor from one
value per orbit, unchecked, and from_orbit_rows from one integer row per
orbit; from_function is from_orbits under a private rule that makes each
index tuple its own orbit.  respects checks a tensor against a rule.

A tensor holds its values in two exact forms: the Fraction entries and
the integer reading den and rows (rows[idx]: the nonzero components
(i, n) of the entry at idx, each n / den, a row per index tuple in product
order).  It is built from either, from_rows taking a reading and the
other constructors values, and the other form is computed on first use
and kept, so a tensor is read at most once.  Both forms are read-only
mappings of tuples, copied at construction: an edit raises TypeError.

contraction_sum is the one contraction kernel: a signed sum of slot
contractions, post-compositions and plain tensors, each with its slots
permuted into the output order, summed on the inputs' integer readings
and returned as a tensor built from its reading, so a chain of
contractions never leaves the integers and only a tensor whose entries
are read gets Fractions.  first_nonzero_sum scans sums before any
Fraction is built, first_difference compares two tensors on their rows,
kernel_matrices contracts one tensor at many points, dense_row lays a
row out as integers, and slot_compose,
post_compose and precompose_all are one-term calls.
The kernel works over Q: any other component raises TensorError.  A
linear equation on tensors is stated once, as a contraction_sum, and
solved as the nullspace of matrix_of, the matrix of the operator on a
basis of unknowns such as a unit_basis (solution_basis).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import linalg

Index = Tuple[int, ...]
SignRule = Callable[[Index], Tuple[Index, int]]


class TensorError(ValueError):
    """Shape, arity, or symmetry violation."""


def _exact(c) -> Fraction:
    """c as a Fraction.  A float raises TensorError: it would be read as
    the nearest binary fraction, an exact answer to another question.  So
    does a string, which Fraction would parse as a number, and None."""
    if c is None or isinstance(c, float):
        raise TensorError(f"{type(c).__name__} value {c!r}: tensors must be exact")
    if isinstance(c, str):
        raise TensorError(f"string value {c!r}: tensors hold numbers")
    return Fraction(c)


_ZERO = Fraction(0)


class PointTensor:
    # entries, or den and rows, stay unset until __getattr__ computes them
    __slots__ = ("dim_in", "dim_out", "arity", "entries", "den", "rows")

    def __init__(self, dim_in: int, dim_out: int, arity: int,
                 entries: Mapping[Index, Sequence[Fraction]]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.arity = arity
        self.entries = MappingProxyType({idx: tuple(v) for idx, v in entries.items()})

    def __getattr__(self, name: str):
        """The form the tensor was not built from, on first use: entries,
        one Fraction per distinct numerator of rows and one tuple per row
        object (index tuples sharing a row share its entry), or den, the
        lcm of the entries' denominators, and rows, each component read by
        one as_integer_ratio.  A component that is not an int or a
        Fraction (a QuadExt, say) raises TensorError naming it: the kernel
        works over Q."""
        if name == "entries":
            entries, built, values = {}, {}, {}
            for idx, row in self.rows.items():
                v = built.get(id(row))
                if v is None:
                    v = [_ZERO] * self.dim_out
                    for i, n in row:
                        x = values.get(n)
                        if x is None:
                            x = values[n] = Fraction(n, self.den)
                        v[i] = x
                    v = built[id(row)] = tuple(v)
                entries[idx] = v
            self.entries = MappingProxyType(entries)
            return self.entries
        if name not in ("den", "rows"):
            raise AttributeError(name)
        try:
            ratios = {idx: [x.as_integer_ratio() for x in v] for idx, v in self.entries.items()}
        except AttributeError:
            bad = next(x for v in self.entries.values() for x in v
                       if not isinstance(x, (int, Fraction)))
            raise TensorError(f"component {bad!r}: the contraction kernel works over Q") from None
        self.den = den = math.lcm(*{d for r in ratios.values() for _, d in r})
        self.rows = MappingProxyType({
            idx: tuple([(i, n * (den // d)) for i, (n, d) in enumerate(r) if n])
            for idx, r in ratios.items()})
        return getattr(self, name)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, dim_in: int, dim_out: int, arity: int, den: int,
                  rows: Mapping[Index, Sequence[Tuple[int, int]]]) -> "PointTensor":
        """The tensor with integer reading den and rows (module docstring);
        its Fraction entries are built when first read."""
        t = cls.__new__(cls)
        t.dim_in, t.dim_out, t.arity, t.den = dim_in, dim_out, arity, den
        t.rows = MappingProxyType({idx: tuple(row) for idx, row in rows.items()})
        return t

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
        values: Dict[Index, Tuple[Fraction, ...]] = {}
        entries = {}
        for idx, r, sign in _orbit_table(rep, dim_in, arity):
            if sign == 0:
                entries[idx] = (_ZERO,) * dim_out
                continue
            value = values.get(r)
            if value is None:
                # Fraction(v) on a Fraction costs as much as a negation
                value = values[r] = tuple([v if type(v) is Fraction else _exact(v) for v in fn(r)])
                if len(value) != dim_out:
                    raise TensorError(f"value at {r} has length {len(value)}, expected {dim_out}")
            entries[idx] = value if sign == 1 else tuple([-v for v in value])
        return cls(dim_in, dim_out, arity, entries)

    @classmethod
    def from_orbit_rows(cls, dim_in: int, dim_out: int, arity: int, rep: SignRule, den: int,
                        fn: Callable[[Index], Sequence[Tuple[int, int]]]) -> "PointTensor":
        """from_orbits on integer rows: the row sign * fn(representative)
        over den at each index tuple, under the sign rule rep, fn giving a
        row (the nonzero components (i, n)).  fn is called once per
        representative of nonzero sign, in the order the representatives
        first appear, and the tuples of one orbit and sign share one row,
        so their entries are built once."""
        rows: Dict[Index, Tuple[tuple, tuple]] = {}
        out = {}
        for idx, r, sign in _orbit_table(rep, dim_in, arity):
            if sign == 0:
                out[idx] = ()
                continue
            pair = rows.get(r)
            if pair is None:
                row = tuple(fn(r))
                pair = rows[r] = (row, tuple([(i, -n) for i, n in row]))
            out[idx] = pair[sign == -1]
        return cls.from_rows(dim_in, dim_out, arity, den, out)

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

        Components may be int, Fraction or QuadExt; a float, a string or
        None raises TensorError, since the result must be exact.
        """
        if len(args) != self.arity:
            raise TensorError(f"{len(args)} arguments for arity {self.arity}")
        supports = []
        for a in args:
            if len(a) != self.dim_in:
                raise TensorError(f"argument length {len(a)}, expected {self.dim_in}")
            support = []
            for j, c in enumerate(a):
                if c is None or isinstance(c, (float, str)):
                    raise TensorError(f"{type(c).__name__} component {c!r}: arguments must be exact")
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

    __hash__ = None  # compared by value: hashing would build the entries of a tensor from rows

    def _check_same_shape(self, other: "PointTensor") -> None:
        if (self.dim_in, self.dim_out, self.arity) != (other.dim_in, other.dim_out, other.arity):
            raise TensorError("tensor shape mismatch")

    # -- symmetry ---------------------------------------------------------------

    def swap_slots(self, s: int, t: int) -> "PointTensor":
        entries = {}
        for idx, v in self.entries.items():
            new = list(idx)
            new[s], new[t] = new[t], new[s]
            entries[tuple(new)] = v
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
# the most index tuples the kept tables hold together, about 130 MiB: one
# table of arity 7 in dimension 6 (6^7 tuples) is kept, two are not
_ORBIT_TUPLES_MAX = 1 << 19


def _orbit_table(rep: SignRule, dim: int, arity: int) -> Tuple[Tuple[Index, Index, int], ...]:
    """(index tuple, representative, sign) in product order; rules are pure.

    Tables are kept while they hold at most _ORBIT_TUPLES_MAX tuples
    together: a larger table is built for its caller alone, and one that
    would overfill the cache clears it first."""
    key = (rep, dim, arity)
    table = _ORBIT_TABLES.get(key)
    if table is None:
        tuples = itertools.product(range(dim), repeat=arity)
        table = tuple((idx,) + rep(idx) for idx in tuples)
        if len(table) <= _ORBIT_TUPLES_MAX:
            if sum(map(len, _ORBIT_TABLES.values())) + len(table) > _ORBIT_TUPLES_MAX:
                _ORBIT_TABLES.clear()
            _ORBIT_TABLES[key] = table
    return table


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
    return PointTensor.from_rows(dim, dim, 1, 1, {(a,): ((a, 1),) for a in range(dim)})


def dense_row(row: Sequence[Tuple[int, int]], dim: int, w: int = 1) -> List[int]:
    """A tensor's row (its nonzero components (i, n)) as dim integers,
    each times w."""
    out = [0] * dim
    for i, n in row:
        out[i] = w * n
    return out


def post_compose(phi: PointTensor, t: PointTensor) -> PointTensor:
    """phi o T: push the value of T through the linear map phi (a one-term
    contraction_sum)."""
    return contraction_sum(t.dim_in, phi.dim_out, t.arity, [(1, phi, t, None, None)])


def contraction_sum(dim_in: int, dim_out: int, arity: int, terms: Sequence[tuple]) -> PointTensor:
    """sum_k sign_k * term_k.  A term (sign, outer, inner, slot, perm) is
    slot_compose(outer, inner, slot), post_compose(outer, inner) when slot
    is None, or inner when outer is None too; its k-th slot goes to output
    slot perm[k] (None: slot k), so no term needs a swap_slots.

    A term's products are numerators over the product d of its inputs'
    dens; weighted by D // d, D the lcm of every d, they are summed in one
    integer per output component, and the sum is the tensor with those
    rows over D: its Fractions are built only if its entries are read."""
    return _accumulate(dim_in, dim_out, terms, [dim_in] * arity)


def first_nonzero_sum(dim_in: int, dim_out: int, arity: int,
                      sums: Sequence[Sequence[tuple]]) -> Optional[Tuple[Index, int]]:
    """The first index tuple, in product order, where one of several
    contraction_sums (each a list of terms) has a nonzero component, and
    the position of the first such sum there; None when all vanish.  The
    sums are scanned as accumulated, integer numerators: no Fraction is
    built."""
    rows = [contraction_sum(dim_in, dim_out, arity, terms).rows for terms in sums]
    for idx in itertools.product(range(dim_in), repeat=arity):
        for k, sum_rows in enumerate(rows):
            if sum_rows[idx]:
                return idx, k
    return None


def first_difference(a: PointTensor, b: PointTensor) -> Optional[Index]:
    """The first index tuple, in product order, where two tensors of one shape
    differ, their rows compared over the scale a.den * b.den (no Fraction)."""
    a._check_same_shape(b)
    return next((idx for idx in itertools.product(range(a.dim_in), repeat=a.arity)
                 if [(i, n * b.den) for i, n in a.rows[idx]]
                 != [(i, n * a.den) for i, n in b.rows[idx]]), None)


def _accumulate(dim_in: int, dim_out: int, terms: Sequence[tuple],
                dims: List[int]) -> PointTensor:
    """contraction_sum with per-slot dimensions dims (mixed in
    precompose_all)."""
    term_dens = [inner.den * (outer.den if outer is not None else 1)
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
        inner_rows = inner.rows
        if slot is None:
            cols = ([[(j, 1)] for j in range(dim_out)] if outer is None
                    else [outer.rows[(j,)] for j in range(outer.dim_in)])
            for idx, support in inner_rows.items():
                acc = accs[sum(map(operator.mul, idx, t_strides))]
                for j, a in support:
                    a *= w
                    for i, c in cols[j]:
                        acc[i] += a * c
            continue
        outer_rows, end = outer.rows, slot + inner.arity
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
    return PointTensor.from_rows(dim_in, dim_out, len(dims), den, {
        idx: tuple([(i, a) for i, a in enumerate(acc) if a]) if any(acc) else ()
        for idx, acc in zip(itertools.product(*map(range, dims)), accs)})


def precompose_all(t: PointTensor, phi: PointTensor) -> PointTensor:
    """T with every argument slot precomposed by the linear map phi, one
    slot at a time on integer rows: phi maps R^{phi.dim_in} -> R^{t.dim_in},
    and the result lives on R^{phi.dim_in}."""
    if phi.arity != 1 or phi.dim_out != t.dim_in:
        raise TensorError("precompose shape mismatch")
    out, dims = t, [t.dim_in] * t.arity
    for slot in range(t.arity):
        dims[slot] = phi.dim_in
        # the partial result's slots before slot have phi.dim_in
        out = _accumulate(t.dim_in, t.dim_out, [(1, out, phi, slot, None)], dims)
    return PointTensor.from_rows(phi.dim_in, t.dim_out, t.arity, out.den, out.rows)


def slot_compose(t: PointTensor, s: PointTensor, slot: int) -> PointTensor:
    """T with the tensor S fed into one argument slot (0-based): the entry
    at (i.., j_1..j_q, k..) is T(e_i.., S(e_j1, .., e_jq), e_k..), so S's
    q slots take the place of that one.  S of arity 1 is a square map
    precomposing the slot.  A one-term contraction_sum."""
    return contraction_sum(t.dim_in, t.dim_out, t.arity - 1 + s.arity, [(1, t, s, slot, None)])


def kernel_matrices(t: PointTensor, points: Iterable[Sequence]) -> Iterator[PointTensor]:
    """The map eta -> T(xi, eta) for arity-2 T at each point xi, as it is
    taken: an arity-1 tensor accumulated from T's rows and xi's numerators,
    built from its reading (rows[(k,)] is T(xi, e_k) times den), so a
    caller can eliminate its integer columns with no Fraction built.
    Checks run as maps are taken: a point must have length dim_in and int
    or Fraction components (over Q(sqrt d), take T(xi, e_k) by apply)."""
    if t.arity != 2:
        raise TensorError("kernel computations need arity 2")
    dim = t.dim_in
    for xi in points:
        if len(xi) != dim or not all(isinstance(c, (int, Fraction)) for c in xi):
            raise TensorError(f"xi must be an exact vector of length {dim} over Q: {list(xi)!r}")
        den = math.lcm(*(c.denominator for c in xi))
        s = PointTensor.from_rows(dim, dim, 0, den, {(): [
            (i, c.numerator * (den // c.denominator)) for i, c in enumerate(xi) if c]})
        yield contraction_sum(dim, dim, 1, [(1, t, s, 0, None)])


def kernel_matrix(t: PointTensor, xi: Sequence) -> List[List[Fraction]]:
    """Matrix of the linear map eta -> T(xi, eta) for arity-2 T, as
    Fractions: the one-point call of kernel_matrices, read out."""
    return next(kernel_matrices(t, [xi])).to_matrix()


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
    b0 = basis[0]
    entries = {idx: [_ZERO] * b0.dim_out for idx in b0.entries}
    for c, b in zip(coeffs, basis):
        if c != 0:
            for idx, v in b.entries.items():
                if any(v):
                    entries[idx] = [x + c * y for x, y in zip(entries[idx], v)]
    return PointTensor(b0.dim_in, b0.dim_out, b0.arity, entries)


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
