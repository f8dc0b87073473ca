"""Exact linear algebra over an exact field.

All routines use Gaussian elimination with deterministic lexicographic
pivoting: columns are processed left to right and the first row with a
nonzero entry is the pivot row.  No floating point anywhere, so ranks,
kernels and solve verdicts are exact.

The element type only needs field arithmetic (+, -, *, /) and equality
with integer 0; Fraction works, and so does the quadratic extension type
used by the 4D frame computation.

rref skips zeros: the pivot row is normalized, and subtracted from the
other rows, only on the columns where it is nonzero.  That changes no
value, and no type either when every entry has one type (all Fraction,
or all QuadExt over one radicand).  A matrix that mixes types is
eliminated densely, because there Fraction - QuadExt * 0 is a QuadExt and
the element types of the result depend on every operation performed.

Ranks, membership tests and det use Echelon, which keeps the reduced
rows of a span and reduces a vector against them: no back substitution,
and a caller asking whether many vectors lie in one span eliminates the
span once.  det is the product of the pivots it divides by, signed by
the order of their columns; on a matrix that mixes Fraction and QuadExt
only its value, not its element type, is fixed.  solve, det and inverse
refuse a ragged or mis-shaped matrix with a ValueError naming the shapes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .quadext import QuadExt

Vector = List
Matrix = List[List]


def mat_copy(m: Matrix) -> Matrix:
    return [list(row) for row in m]


def basis_vector(dim: int, a: int) -> Vector:
    """The standard basis vector e_a of Q^dim, as Fractions."""
    out = [Fraction(0)] * dim
    out[a] = Fraction(1)
    return out


def identity(n: int) -> Matrix:
    return [basis_vector(n, i) for i in range(n)]


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(u: Sequence, c) -> Vector:
    return [c * a for a in u]


def vec_is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def _one_type(m: Matrix) -> bool:
    """Whether every entry is a Fraction, or every entry a QuadExt over one
    radicand: field operations then keep that type, so zeros can be skipped."""
    kind = type(m[0][0])
    if kind is Fraction:
        return all(type(x) is Fraction for row in m for x in row)
    if kind is QuadExt:
        d = m[0][0].d
        return all(type(x) is QuadExt and x.d == d for row in m for x in row)
    return False


def _check_rows(m: Matrix, cols: int, what: str) -> None:
    """ValueError naming the shape unless every row has cols entries."""
    if any(len(row) != cols for row in m):
        raise ValueError(f"{what}: {len(m)} rows of lengths {[len(row) for row in m]}")


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the pivot column list."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sparse = rows > 0 and cols > 0 and _one_type(a)
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
    vecs = [list(v) for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return []
    red, pivots = rref(vecs)
    return [red[i] for i in range(len(pivots))]


class Echelon:
    """Reduced rows of a growing span, for ranks, membership tests and det.

    Each row is stored by its support, with a pivot column where it is 1
    and where every row inserted later is 0; reducing a vector against the
    rows in insertion order therefore leaves a remainder that vanishes at
    every pivot, and that remainder is zero exactly when the vector lies in
    the span.
    """

    def __init__(self, vectors: Sequence[Sequence] = ()):
        self.rows: List[Tuple[int, list]] = []  # (pivot, [(column, value)])
        for v in vectors:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> Vector:
        """The remainder of v after eliminating every pivot column."""
        out = list(v)
        for p, support in self.rows:
            f = out[p]
            if f != 0:
                for k, y in support:
                    out[k] = out[k] - f * y
        return out

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def insert(self, v: Sequence):
        """Add v to the span and return the pivot value its remainder is
        divided by, or 0 when v already lay there."""
        rem = self.reduce(v)
        p = next((k for k, x in enumerate(rem) if x != 0), None)
        if p is None:
            return 0
        inv = rem[p]
        self.rows.append((p, [(k, x / inv) for k, x in enumerate(rem) if x != 0]))
        return inv


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
