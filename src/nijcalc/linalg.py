"""Exact linear algebra over Q and over a quadratic extension Q(sqrt d).

All routines use Gaussian elimination with deterministic lexicographic
pivoting: columns are processed left to right and the first row with a
nonzero entry is the pivot row.  No floating point anywhere, so ranks,
kernels and solve verdicts are exact.

Entries are ints, Fractions or QuadExts.  A float raises ValueError: it
would be read as the nearest binary fraction, another matrix.

A matrix or vector whose entries are all ints and Fractions is eliminated
fraction-free, on integer numerators: each row is scaled to integers by
the lcm of its denominators, a row is eliminated as p*row - f*pivot_row
and divided by its content, and one Fraction is built per nonzero output
entry at the end.  Row scaling changes neither the reduced row echelon
form, which is unique, nor any pivot choice, so the values are those of
an elimination over Fractions, and every output entry is a Fraction.

A matrix holding a QuadExt is eliminated over the field, ints read as
Fractions: sparsely when every entry is a QuadExt over one radicand, so
that field operations keep that type, and densely otherwise, because
there Fraction - QuadExt * 0 is a QuadExt and the element types of the
result depend on every operation performed.

Ranks, membership tests and det use Echelon, which keeps the reduced
rows of a span and reduces a vector against them: no back substitution,
and a caller asking whether many vectors lie in one span eliminates the
span once.  det is the product of the pivots it divides by, signed by
the order of their columns; on a matrix that mixes Fraction and QuadExt
only its value, not its element type, is fixed.  Mis-shaped input is
refused with a ValueError naming the lengths: by rref and Echelon, where
every vector enters elimination, and by solve, det, inverse, mat_vec,
vec_add, vec_sub and intersect_spans, which read the shape first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .quadext import QuadExt

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
    """Whether every entry is an int or a Fraction.  A float raises
    ValueError: it would be read as the nearest binary fraction."""
    kinds = {type(x) for row in rows for x in row}
    if any(issubclass(k, float) for k in kinds):
        bad = next(x for row in rows for x in row if isinstance(x, float))
        raise ValueError(f"float entry {bad!r}: linear algebra needs exact entries")
    return all(issubclass(k, (int, Fraction)) for k in kinds)


def _field(v: Sequence) -> list:
    """v with each int as a Fraction, refusing a float."""
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

    A rational matrix is eliminated on its rows' integer numerators: a row
    becomes p*row - f*pivot_row, divided by its content, and each pivot
    row is divided by its pivot once, at the end.
    """
    _check_rows(m, len(m[0]) if m else 0, "rref needs rows of one length")
    if not _rational(m):
        return _field_rref(m)
    a = [_numerators(row)[0] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        p = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                sp, sf = p // g, f // g
                new = [sp * x - sf * y for x, y in zip(row, prow)]
                g = gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return ([_over(row, row[c]) for row, c in zip(a, pivots)]
            + [[_ZERO] * cols for _ in range(rows - r)]), pivots


def _one_field(m: Matrix) -> bool:
    """Whether every entry is a QuadExt over one radicand: field operations
    then keep that type, so zeros can be skipped."""
    first = m[0][0]
    return type(first) is QuadExt and all(
        type(x) is QuadExt and x.d == first.d for row in m for x in row)


def _field_rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """rref of a matrix holding a QuadExt, eliminated over the field."""
    a = [_field(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sparse = rows > 0 and cols > 0 and _one_field(a)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        inv = prow[c]
        # rows r.. vanish left of c, so a sparse support starts at c
        support = ([k for k in range(c, cols) if prow[k] != 0] if sparse
                   else range(cols))
        for k in support:
            prow[k] = prow[k] / inv
        for i in range(rows):
            row = a[i]
            if i != r and row[c] != 0:
                f = row[c]
                for k in support:
                    row[k] = row[k] - f * prow[k]
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
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v: Vector = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
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
    for r, pc in enumerate(pivots):
        if pc == cols:
            return None  # pivot in the constants column
    x: Vector = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def det(m: Matrix):
    """Exact determinant: the product of the pivots Echelon divides by,
    row by row, times the sign of the permutation taking row i to its
    pivot column.  A row in the span of the rows above it gives 0."""
    n = len(m)
    _check_rows(m, n, "det needs a square matrix")
    span = Echelon()
    result = Fraction(1)
    for row in m:
        pivot = span.insert(row)
        if not pivot:
            return Fraction(0) * result  # keeps the field type when exotic
        result = result * pivot
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
    vecs = [list(v) for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return []
    red, pivots = rref(vecs)
    return [red[i] for i in range(len(pivots))]


class Echelon:
    """Reduced rows of a growing span, for ranks, membership tests and det.

    Each row is stored by its support, with a pivot column where it is
    nonzero and where every row inserted later is 0; reducing a vector
    against the rows in insertion order therefore leaves a remainder that
    vanishes at every pivot, and that remainder is zero exactly when the
    vector lies in the span.

    While every vector is rational, a row is its integer numerators
    divided by their content, [(column, n)], and stands for that row over
    its pivot entry n_p; a vector's numerators w are reduced as
    n_p*w - w_p*row at each pivot, and its denominator multiplied by the
    n_p it picks up.  Once a QuadExt vector arrives the rows become field
    values, 1 at the pivot, and every later vector is reduced over the
    field.
    """

    def __init__(self, vectors: Sequence[Sequence] = ()):
        self.rows: List[Tuple[int, list]] = []  # (pivot, [(column, value)])
        self._field = False
        self._length: Optional[int] = None  # of the first vector seen
        for v in vectors:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence) -> Tuple[Vector, int]:
        """The remainder of v after eliminating every pivot column: integers
        over a denominator while the span and v are rational, else field
        values over 1.  A QuadExt v turns the integer rows into field rows."""
        if len(v) != self._length:
            if self._length is not None:
                raise ValueError(f"vector of length {len(v)} for an Echelon of {self._length}")
            self._length = len(v)
        if _rational([v]) and not self._field:
            w, den = _numerators(v)
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
        if not self._field:
            self.rows = [(p, [(k, Fraction(y, support[0][1])) for k, y in support])
                         for p, support in self.rows]
            self._field = True
        out = _field(v)
        for p, support in self.rows:
            f = out[p]
            if f != 0:
                for k, y in support:
                    out[k] = out[k] - f * y
        return out, 1

    def reduce(self, v: Sequence) -> Vector:
        """The remainder of v after eliminating every pivot column."""
        w, den = self._reduce(v)
        return w if self._field else _over(w, den)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self._reduce(v)[0])

    def insert(self, v: Sequence):
        """Add v to the span and return the pivot value its remainder is
        divided by, or 0 when v already lay there."""
        w, den = self._reduce(v)
        p = next((k for k, x in enumerate(w) if x != 0), None)
        if p is None:
            return 0
        if self._field:
            inv = w[p]
            self.rows.append((p, [(k, x / inv) for k, x in enumerate(w) if x != 0]))
            return inv
        g = gcd(*w)
        self.rows.append((p, [(k, x // g) for k, x in enumerate(w) if x]))
        return Fraction(w[p], den)


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    return Echelon(basis).contains(v)


def span_dim(vectors: Sequence[Sequence]) -> int:
    return rank(vectors)


def sum_spans(u: Sequence[Sequence], v: Sequence[Sequence]) -> List[Vector]:
    return span_basis(list(u) + list(v))


def intersect_spans(u: Sequence[Sequence], v: Sequence[Sequence]) -> List[Vector]:
    """Basis of span(u) intersect span(v), via the kernel of [U^T | -V^T]."""
    if not u or not v:
        return []
    dim = len(u[0])
    _check_rows([*u, *v], dim, "intersect_spans needs vectors of one length")
    rows = dim
    cols = len(u) + len(v)
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for j, uv in enumerate(u):
        for i in range(dim):
            m[i][j] = uv[i]
    for j, vv in enumerate(v):
        for i in range(dim):
            m[i][len(u) + j] = -vv[i]
    vectors = []
    for k in nullspace(m):
        combo = [Fraction(0)] * dim
        for j, uv in enumerate(u):
            combo = vec_add(combo, vec_scale(uv, k[j]))
        vectors.append(combo)
    return span_basis(vectors)


def spans_equal(u: Sequence[Sequence], v: Sequence[Sequence]) -> bool:
    return span_basis(u) == span_basis(v)
