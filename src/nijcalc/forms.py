"""Vector-valued polynomial differential forms and the two graded brackets.

A VectorForm carries a polynomial coefficient vector per strictly
increasing index tuple; it is the type of J and its jets (from_columns),
of the torsion N, its jets and the compatibility torsion, as
invariants.jet_differential reads them.  Both brackets are sums over the
forms' pieces f dx^I (x) e_i, the nonzero components of the entries, each
term added at its sorted index tuple with its permutation sign.  On two
1-forms the differential bracket is also computed, without forms, as the
polarized torsion (invariants.compatibility_nijenhuis).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import poly
from .poly import Poly, PolyVec
from .structures import StructureField
from .tensor import alternating_rep

SIdx = Tuple[int, ...]  # strictly increasing


class VectorForm:
    """Alternating q-form with values in polynomial vector fields.

    Each entry is keyed by a strictly increasing tuple of q indices below
    dim and holds dim components; any other key or value is refused, as
    value_on_basis could never read it.
    """

    def __init__(self, dim: int, degree: int,
                 entries: Optional[Dict[SIdx, PolyVec]] = None):
        self.dim = dim
        self.degree = degree
        entries = entries or {}
        for idx, vec in entries.items():
            # -1 < idx[0] < ... < idx[-1] < dim
            if len(idx) != degree or not all(a < b for a, b in zip((-1,) + idx, idx + (dim,))):
                raise ValueError(f"key {idx!r} of a {degree}-form on R^{dim} is not a strictly "
                                 f"increasing tuple of {degree} indices below {dim}")
            if len(vec) != dim:
                raise ValueError(f"value at {idx!r} of a {degree}-form on R^{dim} has "
                                 f"{len(vec)} components, not {dim}")
        self.entries: Dict[SIdx, PolyVec] = {
            idx: vec for idx, vec in entries.items() if not poly.vec_is_zero(vec)}

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
        if (other.dim, other.degree) != (self.dim, self.degree):
            raise ValueError(f"cannot add a {other.degree}-form on R^{other.dim} "
                             f"to a {self.degree}-form on R^{self.dim}")
        out = dict(self.entries)
        for idx, vec in other.entries.items():
            cur = out.get(idx)
            out[idx] = poly.vec_add(cur, vec) if cur is not None else vec
        return VectorForm(self.dim, self.degree, out)

    def scale(self, c: Fraction) -> "VectorForm":
        if isinstance(c, (float, str)):
            raise ValueError(f"{type(c).__name__} scale {c!r}: must be an exact number")
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
# the two graded brackets, summed over pieces f dx^I (x) e_i
# ---------------------------------------------------------------------------

def _pieces(form: VectorForm) -> List[Tuple[SIdx, int, Poly]]:
    """The nonzero components of the entries, each the piece f dx^I (x) e_i."""
    return [(idx, i, f) for idx, vec in form.entries.items() for i, f in enumerate(vec) if f]


def _contract(idx: SIdx, v: int) -> Tuple[SIdx, bool]:
    """i_{e_v} dx^idx = (-1)^s dx^rest for v at position s of idx, as
    (rest, s odd)."""
    s = idx.index(v)
    return idx[:s] + idx[s + 1:], s % 2 == 1


def _add_product(out: Dict[SIdx, PolyVec], dim: int, idx: Sequence[int], comp: int,
                 f: Poly, g: Poly, negate: bool) -> None:
    """Add (-1)^negate f g dx^idx (x) e_comp into out, at the sorted idx
    with its permutation sign; nothing on a repeated index."""
    if not (f and g):
        return
    key, sign = alternating_rep(idx)
    if not sign:
        return
    vec = out.get(key)
    if vec is None:
        vec = out[key] = poly.vec_zero(dim)
    p = poly.mul(f, g)
    vec[comp] = poly.sub(vec[comp], p) if (sign < 0) != negate else poly.add(vec[comp], p)


def _check_same_dim(a: VectorForm, b: VectorForm) -> None:
    if a.dim != b.dim:
        raise ValueError(f"a {a.degree}-form on R^{a.dim} and a {b.degree}-form on "
                         f"R^{b.dim} live on different spaces")


def insertion(k_form: VectorForm, l_form: VectorForm) -> VectorForm:
    """i_K L, the value of K inserted into the first slot of L.

    On pieces: i_(f dx^I (x) e_i)(g dx^J (x) e_k) = f g dx^I ^ i_{e_i} dx^J
    (x) e_k, nonzero only when i is in J.
    """
    _check_same_dim(k_form, l_form)
    if k_form.degree + l_form.degree == 0:
        raise ValueError("insertion of a 0-form into a 0-form has no degree -1 result")
    dim = k_form.dim
    out: Dict[SIdx, PolyVec] = {}
    pieces_l = _pieces(l_form)
    for ia, i, f in _pieces(k_form):
        for jb, k, g in pieces_l:
            if i in jb:
                rest, odd = _contract(jb, i)
                _add_product(out, dim, ia + rest, k, f, g, odd)
    return VectorForm(dim, k_form.degree + l_form.degree - 1, out)


def algebraic_bracket(a: VectorForm, b: VectorForm) -> VectorForm:
    """[A, B] = i_A B - (-1)^{(a-1)(b-1)} i_B A on form degrees a, b."""
    sign = (-1) ** ((a.degree - 1) * (b.degree - 1))
    iab = insertion(a, b)
    iba = insertion(b, a)
    return iab.sub(iba) if sign > 0 else iab.add(iba)


def fn_bracket(a: VectorForm, b: VectorForm) -> VectorForm:
    """Graded differential bracket, summed over pieces f dx^I (x) e_i.

    For pieces with constant vector parts X = e_i, Y = e_k, p = deg f,
    L_X = d/dx_i on coefficients and d = sum_v dx^v ^ d/dx_v:
    [f (x) X, g (x) Y] = f ^ L_X g (x) Y - L_Y f ^ g (x) X
    + (-1)^p (df ^ i_X g (x) Y + i_Y f ^ dg (x) X).
    """
    _check_same_dim(a, b)
    dim = a.dim
    odd = a.degree % 2 == 1
    out: Dict[SIdx, PolyVec] = {}
    pieces_b = [(jb, k, g, [poly.diff(g, v + 1) for v in range(dim)])
                for jb, k, g in _pieces(b)]
    for ia, i, f in _pieces(a):
        df = [poly.diff(f, v + 1) for v in range(dim)]
        for jb, k, g, dg in pieces_b:
            _add_product(out, dim, ia + jb, k, f, dg[i], False)
            _add_product(out, dim, ia + jb, i, df[k], g, True)
            if i in jb:
                rest, s_odd = _contract(jb, i)
                for v in range(dim):
                    _add_product(out, dim, (v,) + ia + rest, k, df[v], g, odd != s_odd)
            if k in ia:
                rest, t_odd = _contract(ia, k)
                for v in range(dim):
                    _add_product(out, dim, rest + (v,) + jb, i, f, dg[v], odd != t_odd)
    return VectorForm(dim, a.degree + b.degree, out)
