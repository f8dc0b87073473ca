"""Vector-valued polynomial differential forms and the two graded brackets.

Scalar forms are dicts keyed by strictly increasing index tuples with
polynomial coefficients.  Vector-valued forms carry a polynomial
coefficient vector per index tuple (VectorForm), which is also the type
of J and its jets (from_columns), of the torsion N, its jets and the
compatibility torsion, as invariants.jet_differential reads them.  The
algebraic bracket uses shuffle insertions; the differential bracket is
assembled from decomposable pieces coeff * dx^I (x) e_i, for which the
Lie-derivative terms reduce to coefficient derivatives.  On two 1-forms
the differential bracket is also computed, without forms, as the
polarized torsion (invariants.compatibility_nijenhuis).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import poly
from .poly import Poly, PolyVec
from .structures import StructureField
from .tensor import alternating_rep

SIdx = Tuple[int, ...]  # strictly increasing
SForm = Dict[SIdx, Poly]


def sform_accumulate(out: SForm, idx: Sequence[int], p: Poly) -> None:
    if poly.is_zero(p):
        return
    key, sign = alternating_rep(idx)
    if sign == 0:
        return
    q = poly.add(out.get(key, poly.zero()), p if sign > 0 else poly.neg(p))
    if poly.is_zero(q):
        out.pop(key, None)
    else:
        out[key] = q


def wedge(a: SForm, b: SForm) -> SForm:
    out: SForm = {}
    for ia, pa in a.items():
        for ib, pb in b.items():
            sform_accumulate(out, ia + ib, poly.mul(pa, pb))
    return out


def exterior_d(a: SForm, num_vars: int) -> SForm:
    out: SForm = {}
    for idx, p in a.items():
        for v in range(num_vars):
            dp = poly.diff(p, v + 1)
            if not poly.is_zero(dp):
                sform_accumulate(out, (v,) + idx, dp)
    return out


def contract_basis(a: SForm, v: int) -> SForm:
    """Interior product with the constant basis field e_{v+1}."""
    out: SForm = {}
    for idx, p in a.items():
        if v in idx:
            k = idx.index(v)
            rest = idx[:k] + idx[k + 1:]
            sign = (-1) ** k
            sform_accumulate(out, rest, p if sign > 0 else poly.neg(p))
    return out


def lie_derivative_basis(a: SForm, v: int) -> SForm:
    """L_{e_{v+1}} of a form: coefficientwise derivative (Cartan agrees)."""
    out: SForm = {}
    for idx, p in a.items():
        dp = poly.diff(p, v + 1)
        if not poly.is_zero(dp):
            out[idx] = dp
    return out


class VectorForm:
    """Alternating q-form with values in polynomial vector fields."""

    def __init__(self, dim: int, degree: int,
                 entries: Optional[Dict[SIdx, PolyVec]] = None):
        self.dim = dim
        self.degree = degree
        self.entries: Dict[SIdx, PolyVec] = {}
        if entries:
            for idx, vec in entries.items():
                if not poly.vec_is_zero(vec):
                    self.entries[idx] = vec

    @classmethod
    def from_columns(cls, cols: Sequence[PolyVec]) -> "VectorForm":
        """The 1-form with value cols[a] on e_a: J or a jet of J by columns."""
        return cls(len(cols), 1, {(a,): col for a, col in enumerate(cols)})

    @classmethod
    def from_structure(cls, j: StructureField) -> "VectorForm":
        return cls.from_columns(j.cols)

    @classmethod
    def from_pair_entries(cls, dim: int, entries: Dict[Tuple[int, int], PolyVec]) -> "VectorForm":
        """Build a 2-form from antisymmetric basis-pair values: the entries
        with a < b are read, and a pair missing there is zero."""
        return cls(dim, 2, {(a, b): v for (a, b), v in entries.items() if a < b})

    def value_on_basis(self, idx: Sequence[int]) -> PolyVec:
        key, sign = alternating_rep(idx)
        vec = self.entries.get(key) if sign else None
        if vec is None:
            return poly.vec_zero(self.dim)
        return vec if sign > 0 else [poly.neg(p) for p in vec]

    def add(self, other: "VectorForm") -> "VectorForm":
        out = dict(self.entries)
        for idx, vec in other.entries.items():
            cur = out.get(idx)
            out[idx] = poly.vec_add(cur, vec) if cur is not None else vec
        return VectorForm(self.dim, self.degree, out)

    def scale(self, c: Fraction) -> "VectorForm":
        return VectorForm(self.dim, self.degree,
                          {idx: poly.vec_scale(v, Fraction(c))
                           for idx, v in self.entries.items()})

    def neg(self) -> "VectorForm":
        return self.scale(Fraction(-1))

    def sub(self, other: "VectorForm") -> "VectorForm":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return all(poly.vec_is_zero(v) for v in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.sub(other).is_zero())

    __hash__ = None


# ---------------------------------------------------------------------------
# algebraic (pointwise) bracket via shuffle insertions
# ---------------------------------------------------------------------------

def insertion(k_form: VectorForm, l_form: VectorForm) -> VectorForm:
    """i_K L: insert the value of K into the first slot of L over shuffles."""
    dim = k_form.dim
    k, l = k_form.degree, l_form.degree
    deg = k + l - 1
    out: Dict[SIdx, PolyVec] = {}
    for idx in itertools.combinations(range(dim), deg):
        acc = poly.vec_zero(dim)
        for positions in itertools.combinations(range(deg), k):
            chosen = tuple(idx[p] for p in positions)
            rest = tuple(idx[p] for p in range(deg) if p not in positions)
            _, sign = alternating_rep(chosen + rest)  # the shuffle sign
            kv = k_form.value_on_basis(chosen)
            for m in range(dim):
                if poly.is_zero(kv[m]):
                    continue
                lv = l_form.value_on_basis((m,) + rest)
                if poly.vec_is_zero(lv):
                    continue
                term = [poly.mul(kv[m], c) for c in lv]
                acc = poly.vec_add(acc, term if sign > 0
                                   else [poly.neg(t) for t in term])
        if not poly.vec_is_zero(acc):
            out[idx] = acc
    return VectorForm(dim, deg, out)


def algebraic_bracket(a: VectorForm, b: VectorForm) -> VectorForm:
    """[A, B] = i_A B - (-1)^{(a-1)(b-1)} i_B A on form degrees a, b."""
    sign = (-1) ** ((a.degree - 1) * (b.degree - 1))
    iab = insertion(a, b)
    iba = insertion(b, a)
    return iab.sub(iba) if sign > 0 else iab.add(iba)


# ---------------------------------------------------------------------------
# differential bracket via decomposable pieces
# ---------------------------------------------------------------------------

def fn_bracket(a: VectorForm, b: VectorForm) -> VectorForm:
    """Graded differential bracket, assembled from pieces f dx^I (x) e_i.

    For decomposables with constant vector parts X = e_i, Y = e_k:
    [f (x) X, g (x) Y] = f ^ L_X g (x) Y - L_Y f ^ g (x) X
    + (-1)^p (df ^ i_X g (x) Y + i_Y f ^ dg (x) X), p = deg f.
    """
    dim = a.dim
    deg = a.degree + b.degree
    out: Dict[SIdx, PolyVec] = {}

    def accumulate(sf: SForm, comp: int, negate: bool) -> None:
        for idx, p in sf.items():
            if len(idx) != deg:
                continue
            vec = out.get(idx)
            if vec is None:
                vec = poly.vec_zero(dim)
                out[idx] = vec
            vec[comp] = poly.sub(vec[comp], p) if negate else poly.add(vec[comp], p)

    pieces_a, pieces_b = ([(idx, i, vec[i]) for idx, vec in f.entries.items()
                           for i in range(dim) if vec[i]] for f in (a, b))
    p_sign = a.degree % 2 == 1

    for ia, xi, fa in pieces_a:
        fa_form: SForm = {ia: fa}
        dfa = exterior_d(fa_form, dim)
        for ib, yi, gb in pieces_b:
            gb_form: SForm = {ib: gb}
            # f ^ L_X g (x) Y
            t = wedge(fa_form, lie_derivative_basis(gb_form, xi))
            accumulate(t, yi, False)
            # - L_Y f ^ g (x) X
            t = wedge(lie_derivative_basis(fa_form, yi), gb_form)
            accumulate(t, xi, True)
            # (-1)^p df ^ i_X g (x) Y
            t = wedge(dfa, contract_basis(gb_form, xi))
            accumulate(t, yi, p_sign)
            # (-1)^p i_Y f ^ dg (x) X
            t = wedge(contract_basis(fa_form, yi), exterior_d(gb_form, dim))
            accumulate(t, xi, p_sign)

    return VectorForm(dim, deg, out)

