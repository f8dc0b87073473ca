"""Multilinear algebra on a fixed tangent space, exact.

A PointTensor is a type-(1,q) multilinear map on R^dim_in with values in
R^dim_out, stored densely: entries[(j1,..,jq)] is the value on the basis
tuple (e_j1,..,e_jq) as a list of Fractions.  Arity 0 is a plain vector,
arity 1 a linear map (column j = image of e_j).

Application is a support product: it visits only the index tuples built
from the nonzero coordinates of the arguments, so a call on basis vectors
reads one stored entry.  Arguments may hold any exact scalar (int,
Fraction, or a QuadExt); floats are refused.

Symmetry is data about the map, checked entrywise on demand rather than
enforced by storage; the higher-arity invariants use the pattern
"antisymmetric within slots (1,2), within (3,4), and under swapping the
two pairs", and jet symbols are fully symmetric.  from_pair_pattern and
from_symmetric_function build such tensors from one value per orbit and
fill the rest of the orbit (by sign, or by copying).  Neither checks that
the values it is given obey the symmetry, so a caller that needs that
certainty compares the result with an independently computed dense
tensor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import linalg

Index = Tuple[int, ...]


class TensorError(ValueError):
    """Shape, arity, or symmetry violation."""


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
    def zero(cls, dim_in: int, dim_out: int, arity: int) -> "PointTensor":
        entries = {idx: [Fraction(0)] * dim_out
                   for idx in itertools.product(range(dim_in), repeat=arity)}
        return cls(dim_in, dim_out, arity, entries)

    @classmethod
    def from_function(cls, dim_in: int, dim_out: int, arity: int,
                      fn: Callable[[Index], Sequence]) -> "PointTensor":
        entries = {}
        for idx in itertools.product(range(dim_in), repeat=arity):
            value = [Fraction(v) for v in fn(idx)]
            if len(value) != dim_out:
                raise TensorError(f"value at {idx} has length {len(value)}, expected {dim_out}")
            entries[idx] = value
        return cls(dim_in, dim_out, arity, entries)

    @classmethod
    def from_symmetric_function(cls, dim_in: int, dim_out: int, arity: int,
                                fn: Callable[[Index], Sequence]) -> "PointTensor":
        """Fully symmetric tensor from one value per orbit.

        fn is called only on sorted index tuples, C(dim_in + arity - 1,
        arity) times instead of dim_in^arity, and every permutation of a
        sorted tuple gets a copy of its value.
        """
        reps = {}
        for rep in itertools.combinations_with_replacement(range(dim_in), arity):
            value = [Fraction(v) for v in fn(rep)]
            if len(value) != dim_out:
                raise TensorError(f"value at {rep} has length {len(value)}, expected {dim_out}")
            reps[rep] = value
        entries = {idx: list(reps[tuple(sorted(idx))])
                   for idx in itertools.product(range(dim_in), repeat=arity)}
        return cls(dim_in, dim_out, arity, entries)

    @classmethod
    def from_pair_pattern(cls, dim: int, dim_out: int,
                          fn: Callable[[Index], Sequence]) -> "PointTensor":
        """Arity-4 tensor with the pair pattern, from orbit representatives.

        fn is called only on (a, b, c, d) with a < b, c < d and
        (a, b) < (c, d); the other seven members of each orbit are filled
        by sign, and every tuple with a = b, c = d or (a, b) = (c, d) is
        zero.  That is C(C(dim, 2), 2) calls instead of dim^4.
        """
        out = cls.zero(dim, dim_out, 4)
        for (a, b), (c, d) in itertools.combinations(
                itertools.combinations(range(dim), 2), 2):
            value = [Fraction(v) for v in fn((a, b, c, d))]
            if len(value) != dim_out:
                raise TensorError(f"value at {(a, b, c, d)} has length "
                                  f"{len(value)}, expected {dim_out}")
            neg = [-v for v in value]
            for idx, v in (((a, b, c, d), value), ((b, a, d, c), value),
                           ((c, d, b, a), value), ((d, c, a, b), value),
                           ((b, a, c, d), neg), ((a, b, d, c), neg),
                           ((c, d, a, b), neg), ((d, c, b, a), neg)):
                out.entries[idx] = list(v)
        return out

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence]) -> "PointTensor":
        """Arity-1 tensor from a dim_out x dim_in matrix."""
        dim_out = len(m)
        dim_in = len(m[0])
        entries = {(j,): [Fraction(m[i][j]) for i in range(dim_out)] for j in range(dim_in)}
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
        c = Fraction(c)
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

    def is_fully_symmetric(self) -> bool:
        return all(self.is_symmetric_in(s, s + 1) for s in range(self.arity - 1))

    def has_pair_pattern(self) -> bool:
        """Antisym within slots (0,1), within (2,3), antisym under pair swap."""
        if self.arity != 4:
            raise TensorError("pair pattern is for arity 4")
        if not (self.is_antisymmetric_in(0, 1) and self.is_antisymmetric_in(2, 3)):
            return False
        for idx, v in self.entries.items():
            a, b, c, d = idx
            w = self.entries[(c, d, a, b)]
            if any(x != -y for x, y in zip(v, w)):
                return False
        return True


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def identity_map(dim: int) -> PointTensor:
    return PointTensor.from_matrix(linalg.identity(dim))


def compose_linear(a: PointTensor, b: PointTensor) -> PointTensor:
    """a after b, both arity 1."""
    if a.arity != 1 or b.arity != 1 or a.dim_in != b.dim_out:
        raise TensorError("composition shape mismatch")
    return PointTensor.from_matrix(linalg.mat_mul(a.to_matrix(), b.to_matrix()))


def post_compose(phi: PointTensor, t: PointTensor) -> PointTensor:
    """phi o T: push the value of T through the linear map phi."""
    if phi.arity != 1 or phi.dim_in != t.dim_out:
        raise TensorError("post_compose shape mismatch")
    cols = [[(i, c) for i, c in enumerate(phi.entries[(j,)]) if c]
            for j in range(phi.dim_in)]

    def image(v: List[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * phi.dim_out
        for j, a in enumerate(v):
            if a:
                for i, c in cols[j]:
                    out[i] += a * c
        return out

    return PointTensor(t.dim_in, phi.dim_out, t.arity,
                       {idx: image(v) for idx, v in t.entries.items()})


def _contract_slot(entries: Dict[Index, List[Fraction]], slot_dims: List[int],
                   dim_out: int, phi: PointTensor, slot: int):
    """One-slot precomposition on a raw entry dict with per-slot dimensions."""
    new_dims = list(slot_dims)
    new_dims[slot] = phi.dim_in
    new_entries: Dict[Index, List[Fraction]] = {}
    for idx in itertools.product(*[range(d) for d in new_dims]):
        acc = [Fraction(0)] * dim_out
        col = phi.entries[(idx[slot],)]  # column idx[slot]: component i is M[i][j]
        for i_old, coeff in enumerate(col):
            if coeff == 0:
                continue
            src = list(idx)
            src[slot] = i_old
            v = entries[tuple(src)]
            for i in range(dim_out):
                if v[i]:
                    acc[i] += coeff * v[i]
        new_entries[idx] = acc
    return new_entries, new_dims


def precompose_all(t: PointTensor, phi: PointTensor) -> PointTensor:
    """T with every argument slot precomposed by the linear map phi.

    phi maps R^{phi.dim_in} -> R^{t.dim_in}; the result lives on R^{phi.dim_in}.
    """
    if phi.arity != 1 or phi.dim_out != t.dim_in:
        raise TensorError("precompose shape mismatch")
    if t.arity == 0:
        return t
    entries = t.entries
    slot_dims = [t.dim_in] * t.arity
    for slot in range(t.arity):
        entries, slot_dims = _contract_slot(entries, slot_dims, t.dim_out, phi, slot)
    return PointTensor(phi.dim_in, t.dim_out, t.arity, entries)


def slot_compose(t: PointTensor, phi: PointTensor, slot: int) -> PointTensor:
    """T with one argument slot (0-based) precomposed by a square map phi."""
    if phi.arity != 1 or phi.dim_out != t.dim_in or phi.dim_in != t.dim_in:
        raise TensorError("slot_compose needs a square map on the tensor's domain")
    entries, _ = _contract_slot(t.entries, [t.dim_in] * t.arity, t.dim_out, phi, slot)
    return PointTensor(t.dim_in, t.dim_out, t.arity, entries)


def kernel_matrix(t: PointTensor, xi: Sequence) -> List[List[Fraction]]:
    """Matrix of the linear map eta -> T(xi, eta) for arity-2 T."""
    if t.arity != 2:
        raise TensorError("kernel computations need arity 2")
    cols = [t.apply([list(xi), linalg.basis_vector(t.dim_in, j)])
            for j in range(t.dim_in)]
    return [[cols[j][i] for j in range(t.dim_in)] for i in range(t.dim_out)]


def kernel_dim(t: PointTensor, xi: Sequence) -> int:
    """dim ker T(xi, .) for antisymmetric arity-2 T, exact."""
    return t.dim_in - linalg.rank(kernel_matrix(t, xi))


def _check_complex_structure(j: PointTensor, label: str) -> None:
    if j.arity != 1 or j.dim_in != j.dim_out:
        raise TensorError(f"{label} is not a square linear map")
    m = j.to_matrix()
    n = len(m)
    sq = linalg.mat_mul(m, m)
    for i in range(n):
        for k in range(n):
            expect = Fraction(-1) if i == k else Fraction(0)
            if sq[i][k] != expect:
                raise TensorError(f"{label}^2 != -I at entry ({i},{k})")


def commutant_basis(j_l: PointTensor, j_m: PointTensor) -> List[PointTensor]:
    """Basis of {Phi : j_m o Phi = Phi o j_l}; dimension 2*l*m.

    Both inputs must square to -I; unknowns are the dim_out x dim_in matrix
    entries of Phi, ordered row-major, eliminated lexicographically.
    """
    _check_complex_structure(j_l, "j_l")
    _check_complex_structure(j_m, "j_m")
    din, dout = j_l.dim_in, j_m.dim_in
    ml = j_l.to_matrix()
    mm = j_m.to_matrix()
    rows = []
    # equation (j_m Phi - Phi j_l)[i][j] = 0, unknown Phi[r][c] at position r*din + c
    for i in range(dout):
        for j in range(din):
            row = [Fraction(0)] * (dout * din)
            for k in range(dout):
                row[k * din + j] += mm[i][k]
            for k in range(din):
                row[i * din + k] -= ml[k][j]
            rows.append(row)
    basis_vecs = linalg.nullspace(rows)
    out = []
    for v in basis_vecs:
        m = [[v[r * din + c] for c in range(din)] for r in range(dout)]
        out.append(PointTensor.from_matrix(m))
    return out
