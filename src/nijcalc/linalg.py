"""Exact linear algebra over Q, and over Q(sqrt d) where the 4D frame needs it.

All routines use Gaussian elimination, with no floating point anywhere,
so ranks, kernels and solve verdicts are exact.  Kernel bases and
particular solutions are read off the reduced row echelon form, which is
unique, so they do not depend on the order of elimination.

Entries are ints and Fractions; rref, what is built on it (nullspace,
solve, inverse, span_basis) and the vector helpers take QuadExts too.  A
float, a string or None raises ValueError: a float would be read as the
nearest binary fraction, another matrix, a string parsed as a number.

Rational input is eliminated by Echelon alone, fraction-free: a vector
of ints is taken as it stands, over denominator 1, so the integer rows
of a tensor's reading (tensor.dense_row) enter with no Fraction read;
any other vector is scaled to integers by the lcm of its denominators.
It is reduced as n_p*w - w_p*row at each pivot, and stored divided by
its content.  Ranks, membership tests and det read its rows as they
stand, with no back substitution, so a caller asking whether many
vectors lie in one span eliminates the span once; det is the product of
the pivots it divides by, signed by the order of their columns.  rref
inserts the rows, then eliminates the stored rows once more in order of
falling pivot (back substitution) and divides each by its pivot once,
one Fraction per nonzero entry: the values are those of an elimination
over Fractions, and every output entry is a Fraction.

Echelon works over Q alone (a QuadExt raises ValueError naming it).  rref
eliminates a matrix holding a QuadExt over the field, ints read as
Fractions, every row operation over every column: Fraction - QuadExt * 0
is a QuadExt, so the element types of the result depend on every
operation performed.  Mis-shaped input is refused with a ValueError
naming the lengths: by rref and Echelon, where every vector enters
elimination, and by solve, det, inverse, mat_vec, vec_add, vec_sub and
intersect_spans, which read the shape first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = List
Matrix = List[List]

_ZERO = Fraction(0)


def basis_vector(dim: int, a: int) -> Vector:
    """The standard basis vector e_a of Q^dim, as Fractions."""
    out = [Fraction(0)] * dim
    out[a] = Fraction(1)
    return out


def identity(n: int) -> Matrix:
    return [basis_vector(n, i) for i in range(n)]


def _rational(rows: Sequence[Sequence]) -> bool:
    """Whether every entry is an int or a Fraction.  A float, a string or
    None raises ValueError naming it: a float would be read as the nearest
    binary fraction, a string parsed as a number, and None would fail
    late, inside the arithmetic."""
    kinds = {type(x) for row in rows for x in row}
    if all(issubclass(k, (int, Fraction)) for k in kinds):
        return True
    bad = [x for row in rows for x in row if x is None or isinstance(x, (float, str))]
    if bad:
        raise ValueError(f"{type(bad[0]).__name__} entry {bad[0]!r}: linear algebra needs exact numbers")
    return False


def _field(v: Sequence) -> list:
    """v with each int as a Fraction, refusing a float, a string or None."""
    _rational([v])
    return [Fraction(x) if isinstance(x, int) else x for x in v]


def _numerators(v: Sequence) -> Tuple[List[int], int]:
    """A rational vector as integers over the lcm of its denominators."""
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v], den


def _over(v: Sequence[int], den: int) -> Vector:
    """The integer vector v divided by den, one Fraction per nonzero entry."""
    return [Fraction(x, den) if x else _ZERO for x in v]


def _check_lengths(u: Sequence, v: Sequence, what: str) -> None:
    if len(u) != len(v):
        raise ValueError(f"{what} got lengths {len(u)} and {len(v)}")


def _check_rows(m: Matrix, cols: int, what: str) -> None:
    """ValueError naming the shape unless every row has cols entries."""
    if any(len(row) != cols for row in m):
        raise ValueError(f"{what}: {len(m)} rows of lengths {[len(row) for row in m]}")


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    """a v; rational entries are summed as integer numerators, one
    Fraction per output entry."""
    for row in a:
        _check_lengths(row, v, "mat_vec")
    if _rational([v, *a]):
        nv, dv = _numerators(v)
        return [Fraction(sum(x * y for x, y in zip(nr, nv)), dr * dv)
                for nr, dr in map(_numerators, a)]
    v = _field(v)
    return [sum((x * y for x, y in zip(_field(row), v)), _ZERO) for row in a]


def vec_add(u: Sequence, v: Sequence) -> Vector:
    _check_lengths(u, v, "vec_add")
    return [a + b for a, b in zip(_field(u), _field(v))]


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    _check_lengths(u, v, "vec_sub")
    return [a - b for a, b in zip(_field(u), _field(v))]


def vec_scale(u: Sequence, c) -> Vector:
    c, *u = _field([c, *u])
    return [c * a for a in u]


def vec_is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the pivot column list.

    A rational matrix is inserted into an Echelon; its integer rows, in
    order of falling pivot, are eliminated against the rows taken before
    them (back substitution) and divided by their pivots once, at the end.
    """
    cols = len(m[0]) if m else 0
    _check_rows(m, cols, "rref needs rows of one length")
    if not _rational(m):
        return _field_rref(m)
    span, back = Echelon(), Echelon()
    for row in m:
        span._append(span._reduce(row)[0])
    for _, support in sorted(span.rows, reverse=True):
        w = [0] * cols
        for k, x in support:
            w[k] = x
        back._append(back._eliminate(w, 1)[0])
    red = [[_ZERO] * cols for _ in m]
    for out, (_, support) in zip(red, reversed(back.rows)):
        top = support[0][1]
        for k, x in support:
            out[k] = Fraction(x, top)
    return red, [p for p, _ in reversed(back.rows)]


def _field_rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """rref of a matrix holding a QuadExt, eliminated over the field."""
    a = [_field(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = prow = [x / inv for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[c] != 0:
                f = row[c]
                a[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: Matrix) -> int:
    return Echelon(m).rank


def nullspace(m: Matrix) -> List[Vector]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = basis_vector(cols, free)
        for row, pc in zip(red, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """One exact solution of m x = b, or None if inconsistent.

    The particular solution is the one with all free variables zero
    (deterministic, lexicographic pivots).
    """
    if len(b) != len(m):
        raise ValueError(f"solve got {len(m)} equations and {len(b)} constants")
    if not m:
        return [] if vec_is_zero(b) else None
    cols = len(m[0])
    _check_rows(m, cols, "solve needs rows of one length")
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None  # pivot in the constants column
    x: Vector = [Fraction(0)] * cols
    for row, pc in zip(red, pivots):
        x[pc] = row[cols]
    return x


def det(m: Matrix) -> Fraction:
    """Exact determinant over Q: the product of the pivots Echelon divides
    by, row by row, times the sign of the permutation taking row i to its
    pivot column.  A row in the span of the rows above it gives 0."""
    n = len(m)
    _check_rows(m, n, "det needs a square matrix")
    span = Echelon()
    result = Fraction(1)
    for row in m:
        pivot = span.insert(row)
        if not pivot:
            return _ZERO
        result *= pivot
    pivots = [p for p, _ in span.rows]
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return -result if inversions % 2 else result


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    _check_rows(m, n, "inverse needs a square matrix")
    aug = [list(row) + list(idrow) for row, idrow in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# subspaces as row-span bases
# ---------------------------------------------------------------------------

def span_basis(vectors: Sequence[Sequence]) -> List[Vector]:
    """Canonical basis of the span: rref rows, zero rows dropped."""
    _rational(vectors)  # a float zero vector raises too
    red, pivots = rref([list(v) for v in vectors if not vec_is_zero(v)])
    return red[:len(pivots)]


class Echelon:
    """Reduced rows of a growing span over Q, for ranks, membership tests,
    det and rref.

    Each row is stored by its support, with a pivot column where it is
    nonzero and where every row inserted later is 0; reducing a vector
    against the rows in insertion order therefore leaves a remainder that
    vanishes at every pivot, and that remainder is zero exactly when the
    vector lies in the span.

    A row is its integer numerators divided by their content,
    [(column, n)], and stands for that row over its pivot entry n_p; a
    vector of ints is its own numerators over 1, and any vector's
    numerators w are reduced as n_p*w - w_p*row at each pivot,
    and its denominator multiplied by the n_p it picks up.  A vector with
    an entry that is not a rational number (one with no denominator: a
    QuadExt, a float, a string, None) raises ValueError naming it.
    """

    def __init__(self, vectors: Sequence[Sequence] = ()):
        self.rows: List[Tuple[int, List[Tuple[int, int]]]] = []  # (pivot, [(column, n)])
        self._length: Optional[int] = None  # of the first vector seen
        for v in vectors:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence) -> Tuple[List[int], int]:
        """The remainder of v after eliminating every pivot column, as
        integers over a denominator."""
        if len(v) != self._length:
            if self._length is not None:
                raise ValueError(f"vector of length {len(v)} for an Echelon of {self._length}")
            self._length = len(v)
        if all(type(x) is int for x in v):  # an integer row, as it stands
            return self._eliminate(list(v), 1)
        try:
            w, den = _numerators(v)
        except AttributeError:  # an entry with no denominator
            _rational([v])  # a float, a string or None raises here
            bad = next(x for x in v if not hasattr(x, "denominator"))
            raise ValueError(f"entry {bad!r}: Echelon works over Q (rref takes Q(sqrt d))") from None
        return self._eliminate(w, den)

    def _eliminate(self, w: List[int], den: int) -> Tuple[List[int], int]:
        """The integer vector w over den reduced at each pivot in turn."""
        for p, support in self.rows:
            f = w[p]
            if f:
                top = support[0][1]
                g = gcd(top, f)
                top, f = top // g, f // g
                if top != 1:
                    w = [top * x for x in w]
                    den *= top
                for k, y in support:
                    w[k] -= f * y
        return w, den

    def reduce(self, v: Sequence) -> Vector:
        """The remainder of v after eliminating every pivot column."""
        return _over(*self._reduce(v))

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self._reduce(v)[0])

    def insert(self, v: Sequence):
        """Add v to the span and return the pivot value its remainder is
        divided by, or 0 when v already lay there."""
        w, den = self._reduce(v)
        p = self._append(w)
        return 0 if p is None else Fraction(w[p], den)

    def _append(self, w: List[int]) -> Optional[int]:
        """Store a remainder w divided by its content, unless it is zero;
        its pivot column, or None."""
        if not any(w):
            return None
        g = gcd(*w)
        support = [(k, x // g) for k, x in enumerate(w) if x]
        self.rows.append((support[0][0], support))
        return support[0][0]


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    return Echelon(basis).contains(v)


def span_dim(vectors: Sequence[Sequence]) -> int:
    return rank(vectors)


def sum_spans(u: Sequence[Sequence], v: Sequence[Sequence]) -> List[Vector]:
    return span_basis(list(u) + list(v))


def intersect_spans(u: Sequence[Sequence], v: Sequence[Sequence]) -> List[Vector]:
    """Basis of span(u) intersect span(v): a kernel vector (a, b) of
    [U^T | V^T] gives the common vector U^T a = V^T (-b)."""
    if not u or not v:
        return []
    _check_rows([*u, *v], len(u[0]), "intersect_spans needs vectors of one length")
    u_t = [list(col) for col in zip(*u)]
    kernel = nullspace([list(col) for col in zip(*u, *v)])
    return span_basis([mat_vec(u_t, k[:len(u)]) for k in kernel])


def spans_equal(u: Sequence[Sequence], v: Sequence[Sequence]) -> bool:
    return span_basis(u) == span_basis(v)
