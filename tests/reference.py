"""Global-field reference routes for the tests.

The package reads every derivative at a point off jets
(invariants.jet_differential).  The functions here take the older road
instead: differentiate the global polynomial fields, then evaluate.  They
share no code with the jet routes beyond the polynomial arithmetic, which
is what makes them useful as oracles.
"""

import itertools
from typing import Dict, Sequence, Tuple

from nijcalc import poly
from nijcalc.invariants import PolyTensorField, columns_field, const_field
from nijcalc.poly import PolyVec
from nijcalc.structures import StructureField
from nijcalc.tensor import Index, PointTensor


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def structure_as_field(j: StructureField) -> PolyTensorField:
    return PolyTensorField(j.dim, 1, columns_field(j.cols))


def dj_field(j: StructureField) -> PolyTensorField:
    """dj(form slot, derivative slot) with polynomial entries."""
    dim = j.dim
    entries = {(a, b): [poly.diff(j.cols[a][i], b + 1) for i in range(dim)]
               for a in range(dim) for b in range(dim)}
    return PolyTensorField(dim, 2, entries)


def differential(field: PolyTensorField, p: int, point: Sequence) -> PointTensor:
    """d^p of the field at the point: arity grows by p derivative slots
    (last), each entry differentiated globally and then evaluated."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    cache: Dict[Tuple[Index, Tuple[int, ...]], PolyVec] = {}

    def deriv(idx: Index, dirs: Tuple[int, ...]) -> PolyVec:
        key = (idx, tuple(sorted(dirs)))
        if key in cache:
            return cache[key]
        if not dirs:
            out = field.entries[idx]
        else:
            prev = deriv(idx, dirs[:-1])
            out = [poly.diff(c, dirs[-1] + 1) for c in prev]
        cache[key] = out
        return out

    def fn(full: Index):
        base, dirs = full[:field.arity], full[field.arity:]
        return poly.vec_eval(deriv(base, dirs), point)

    return PointTensor.from_function(field.dim, field.dim, field.arity + p, fn)


def apply_poly(field: PolyTensorField, args: Sequence[PolyVec]) -> PolyVec:
    """Tensorial application to polynomial vector fields, summed over the
    index tuples built from the arguments' nonzero components."""
    supports = [[(a, f) for a, f in enumerate(arg) if not poly.is_zero(f)]
                for arg in args]
    out = poly.vec_zero(field.dim)
    for combo in itertools.product(*supports):
        coeff = poly.const(1, field.dim)
        for _, f in combo:
            coeff = poly.mul(coeff, f)
        val = field.entries[tuple(a for a, _ in combo)]
        out = poly.vec_add(out, poly.vec_scale_poly(val, coeff))
    return out


def nijenhuis_field_first_differential(j: StructureField) -> PolyTensorField:
    """N(X, Y) = -dj(JX, Y) - dj(X, JY) + dj(JY, X) + dj(Y, JX) on basis
    fields, as polynomials."""
    dim = j.dim
    dj = dj_field(j)
    entries: Dict[Index, PolyVec] = {}
    for a in range(dim):
        entries[(a, a)] = poly.vec_zero(dim)
    for a in range(dim):
        ea = const_field(dim, a)
        ja = j.cols[a]
        for b in range(a + 1, dim):
            eb = const_field(dim, b)
            jb = j.cols[b]
            val = [poly.neg(c) for c in apply_poly(dj, [ja, eb])]
            val = poly.vec_sub(val, apply_poly(dj, [ea, jb]))
            val = poly.vec_add(val, apply_poly(dj, [jb, ea]))
            val = poly.vec_add(val, apply_poly(dj, [eb, ja]))
            entries[(a, b)] = val
            entries[(b, a)] = [poly.neg(c) for c in val]
    return PolyTensorField(dim, 2, entries)
