"""Exact multivariate polynomial arithmetic over rationals.

Polynomials are dictionaries mapping exponent tuples to nonzero Fraction
coefficients.  The zero polynomial is the empty dict, so structural equality
is mathematical equality.  Exponent tuples are dense: every key has length
num_vars, and variables are 1-indexed (x1 .. xN) to match the text grammar.
Coefficients and points are exact: a float raises PolyError, since it would
be read as the nearest binary fraction.  eval_poly reads each stored
coefficient by value, as the jet kernels do, and add and mul check that
every key of both operands has one length.

Also provides vectors of polynomials (polynomial vector fields on a chart)
and polynomial matrices applied to them (apply_columns).

The jet kernels (jet_mul, jet_substitute, jet_apply_columns,
jet_brackets, jet_torsion, jet_cauchy_riemann) cut their results above a
total degree, the order; order math.inf means uncut, so jet_brackets is
the one Lie bracket, jet_torsion the one torsion of a matrix field, and
jet_substitute the one composition (substitute) and the one Taylor shift
(shift, the substitution of point + y).  They sum Python integers: each
input's coefficients are integer numerators over the lcm of their
denominators (_numerators), and each nonzero output coefficient is one
Fraction of its integer sum over the product of those lcms (for
jet_substitute, times a power of the substitutions' lcm: for shift, of
the point's).  jet_cauchy_riemann, the Cauchy-Riemann composition of a
map's Taylor polynomial with two matrix fields, is the one kernel with
integer output: it takes the map as integer numerators over one den and
returns exponent-keyed integer numerators over one den, for a caller
that reads its result as integers.  It substitutes the map through the
image table of jet_substitute (_image_table), so substitution has one
kernel.

Inside a kernel each term is keyed by one int, its exponent packed with a
fixed bit field per variable: variable i at bit i * width.  A product of
monomials is the sum of their keys, a partial derivative subtracts one
unit of a field, and so does jet_substitute's step down to the monomial
one degree lower (its images and outputs are packed; the polynomials it
substitutes into keep their exponent tuples).  Keys are packed as a
kernel reads its input and unpacked as it builds output coefficients, so
no other module sees them, and the loops and the key order are those of
the exponent tuples.  The width is that of a bound on every exponent the
call reads or forms: the order under a finite cut (order + 1 for the
kernels reading jets known to order + 1, and for jet_cauchy_riemann,
which differentiates the map), uncut twice the inputs' top total degree,
for jet_substitute the top degree of the polynomials times that of the
substitutions, or for jet_cauchy_riemann one more than J_M's top degree
times the map's, plus J_L's.  No sum the call forms exceeds the bound,
so none carries into the next field.  Every kernel checks first that its
polynomials share one number of variables (jet_torsion: one per column;
jet_brackets: at most one per component; jet_cauchy_riemann: one per
column of each field), refuses a negative order, and refuses a
coefficient that is not an int or a Fraction by value.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import lshift
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]
PolyVec = List[Poly]  # vector field: component i is a Poly
Scalar = Union[int, Fraction]


class PolyError(ValueError):
    """Dimension mismatch or malformed polynomial input."""


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def zero() -> Poly:
    return {}


def _exact(c: Scalar, what: str = "coefficient") -> Fraction:
    """c as a Fraction.  A float raises PolyError: it would be read as the
    nearest binary fraction, an exact answer to another question.  So does
    a string, which Fraction would parse as a number, and None."""
    if type(c) is Fraction:
        return c
    if c is None or isinstance(c, float):
        raise PolyError(f"{type(c).__name__} {what} {c!r}: must be exact")
    if isinstance(c, str):
        raise PolyError(f"string {what} {c!r}: must be a number")
    return Fraction(c)


def _coefficient(c) -> Scalar:
    """c, a stored coefficient, read by value: an int or a Fraction.  A
    float, a string or None raises PolyError naming it (_exact), and so
    does any other type."""
    if type(c) is Fraction or isinstance(c, (int, Fraction)):
        return c
    if c is None or isinstance(c, (float, str)):
        _exact(c)
    raise PolyError(f"{type(c).__name__} coefficient {c!r}: must be rational")


def const(c: Scalar, num_vars: int) -> Poly:
    c = _exact(c)
    if c == 0:
        return {}
    return {(0,) * num_vars: c}


def var(index: int, num_vars: int) -> Poly:
    """The coordinate polynomial x_index, 1-indexed."""
    if not 1 <= index <= num_vars:
        raise PolyError(f"variable index {index} out of range 1..{num_vars}")
    exp = [0] * num_vars
    exp[index - 1] = 1
    return {tuple(exp): Fraction(1)}


def monomial(exponent: Sequence[int], coeff: Scalar) -> Poly:
    c = _exact(coeff)
    if c == 0:
        return {}
    return {tuple(exponent): c}


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def _check_compatible(p: Poly, q: Poly) -> None:
    """Every key of p and of q has one length: one number of variables."""
    counts = set(map(len, p))
    counts.update(map(len, q))
    if len(counts) > 1:
        raise PolyError(f"mixed variable counts: {sorted(counts)}")


def _check_lengths(cols: Sequence[PolyVec], xs: Sequence[PolyVec]) -> None:
    if not cols:
        raise PolyError("empty matrix field: no columns, so no component count")
    if len({len(c) for c in cols}) > 1:
        raise PolyError(f"ragged matrix field: columns of {[len(c) for c in cols]} components")
    if any(len(x) != len(cols) for x in xs):
        raise PolyError(f"fields of {[len(x) for x in xs]} components for {len(cols)} columns")


def add(p: Poly, q: Poly) -> Poly:
    _check_compatible(p, q)
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(p: Poly) -> Poly:
    return {e: -c for e, c in p.items()}


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    _check_compatible(p, q)
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(p: Poly, c: Scalar) -> Poly:
    c = _exact(c)
    if c == 0:
        return {}
    return {e: c * k for e, k in p.items()}


def is_zero(p: Poly) -> bool:
    return not p


def total_degree(p: Poly) -> int:
    """Degree of the zero polynomial is -1 by convention here."""
    if not p:
        return -1
    return max(sum(e) for e in p)


def truncate(p: Poly, max_degree: int) -> Poly:
    """Drop all terms of total degree > max_degree."""
    return {e: c for e, c in p.items() if sum(e) <= max_degree}


def low_degree_part(p: Poly, degree: int) -> Poly:
    """The homogeneous part of the given total degree."""
    return {e: c for e, c in p.items() if sum(e) == degree}


# ---------------------------------------------------------------------------
# calculus and evaluation
# ---------------------------------------------------------------------------

def diff(p: Poly, var_index: int) -> Poly:
    """Exact partial derivative with respect to x_var_index (1-indexed)."""
    if p:
        n = len(next(iter(p)))
        if not 1 <= var_index <= n:
            raise PolyError(f"variable index {var_index} out of range 1..{n}")
    i = var_index - 1
    out: Poly = {}
    for e, c in p.items():
        if e[i] == 0:
            continue
        new_e = list(e)
        new_e[i] -= 1
        out[tuple(new_e)] = c * e[i]
    return out


def eval_poly(p: Poly, point: Sequence[Scalar]) -> Fraction:
    pt = [_exact(v, "coordinate") for v in point]
    if p:
        n = len(next(iter(p)))
        if len(pt) != n:
            raise PolyError(f"point has length {len(pt)}, expected {n}")
    total = Fraction(0)
    for e, c in p.items():
        term = _coefficient(c)
        for x, k in zip(pt, e):
            if k:
                term *= x ** k
        total += term
    return total


def substitute(p: Poly, replacements: Sequence[Poly], out_num_vars: int) -> Poly:
    """Substitute replacements[i] for variable i+1: exact composition, the
    uncut jet_substitute.  The replacements are polynomials in out_num_vars
    variables and may have constant terms."""
    return jet_substitute([p], replacements, out_num_vars, inf)[0]


# ---------------------------------------------------------------------------
# jets at a point: polynomials in the offset y = x - point, cut above an order
# ---------------------------------------------------------------------------
# jet_mul and jet_substitute pop an integer sum that reaches zero, so their
# key order is that of the same loop over Fractions; jet_substitute shares
# one table of integer monomial images among its polynomials.  Inside a
# kernel an exponent is a packed key (module docstring): a _Layout lays
# it out, _numerators packs the input and the layout unpacks the output.

_Term = Tuple[int, int, int]


def _check_order(order: float) -> None:
    if order < 0:
        raise PolyError(f"jet order {order} is negative")


def _variables(polys: Iterable[Poly], num_vars: int = 0) -> int:
    """The number of variables of polys, read off each one's first key
    (keys are dense); num_vars when all are zero.  Polynomials in
    different numbers of variables raise PolyError: packed keys would mix
    them up silently."""
    counts = {len(next(iter(p))) for p in polys if p}
    if len(counts) > 1:
        raise PolyError(f"mixed variable counts: {sorted(counts)}")
    return counts.pop() if counts else num_vars


def _top(polys: Iterable[Poly]) -> int:
    """The top total degree of polys, 0 when all are zero."""
    return max((sum(e) for p in polys for e in p), default=0)


class _Layout(dict):
    """The packed keys of one kernel call: one field of width bits per
    variable, at the bit offsets fields, wide enough for every exponent up
    to bound (module docstring).  layout[key] is the exponent tuple of a
    packed key, unpacked once per call."""

    def __init__(self, num_vars: int, bound: float):
        super().__init__()
        self.width = int(max(bound, 1)).bit_length()
        self.fields = range(0, num_vars * self.width, self.width)
        self.mask = (1 << self.width) - 1

    def __missing__(self, key: int) -> Exponent:
        e = self[key] = tuple([key >> s & self.mask for s in self.fields])
        return e


def _numerators(polys: Sequence[Poly], layout: Optional[_Layout],
                top: float = inf) -> Tuple[List[List[_Term]], int]:
    """The terms (key, n, |e|) of each polynomial up to total degree top,
    with key the exponent e packed by layout (e itself with no layout) and
    n/D the coefficient at e, D the lcm of those denominators.  A
    coefficient that is not an int or a Fraction raises PolyError naming
    it."""
    if layout is None:
        kept = [[(e, c, s) for e, c in p.items() if (s := sum(e)) <= top] for p in polys]
    else:
        fields = layout.fields
        kept = [[(sum(map(lshift, e, fields)), c, s)
                 for e, c in p.items() if (s := sum(e)) <= top] for p in polys]
    try:
        den = lcm(*(c.denominator for terms in kept for _, c, _ in terms))
    except AttributeError:
        for terms in kept:
            for _, c, _ in terms:
                _coefficient(c)
        raise
    return [[(e, c.numerator * (den // c.denominator), s) for e, c, s in terms]
            for terms in kept], den


def _products(factors: Sequence[Tuple[Sequence[_Term], Sequence[_Term], int]],
              order: float) -> Dict[int, int]:
    """The sum of sign n1 n2 y^(e1 + e2) over each (terms1, terms2, sign)
    of factors and each pair of their terms of total degree at most order,
    keyed by the packed e1 + e2."""
    acc: Dict[int, int] = {}
    for terms1, terms2, sign in factors:
        for e1, c1, d1 in terms1:
            room = order - d1
            for e2, c2, d2 in terms2:
                if d2 <= room:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + sign * c1 * c2
    return acc


def shift(ps: Sequence[Poly], point: Sequence[Scalar], order: int) -> List[Poly]:
    """Each p of ps at point + y, as a polynomial in y cut above total
    degree order (math.inf: uncut): jet_substitute by the translation
    x_i = point_i + y_i, so the polynomials share one table of monomial
    images.

    The coefficient of y^alpha is the partial derivative d^alpha p at the
    point divided by alpha!, so each result is the order-jet of p there.
    A float coordinate raises PolyError, and so do a negative order and a
    nonzero p in another number of variables than the point has coordinates.
    """
    n = len(point)
    subs = [add(const(_exact(x, "coordinate"), n), var(i + 1, n)) for i, x in enumerate(point)]
    return jet_substitute(ps, subs, n, order)


def constant_term(p: Poly) -> Fraction:
    """The value at the origin; for a jet, the value at its base point."""
    if not p:
        return Fraction(0)
    return p.get((0,) * len(next(iter(p))), Fraction(0))


def jet_mul(p: Poly, q: Poly, order: int) -> Poly:
    """p q cut above total degree order (math.inf: uncut); pairs of terms
    past it are skipped.  The sums run over the numerators of p and of q,
    each over its own lcm, and coefficient e is one Fraction(sum, D_p D_q)."""
    _check_order(order)
    layout = _Layout(_variables([p, q]), order if order < inf else 2 * _top([p, q]))
    (p_terms,), d_p = _numerators([p], layout, order)
    (q_terms,), d_q = _numerators([q], layout, order)
    den = d_p * d_q
    return {layout[e]: Fraction(s, den)
            for e, s in _popped_products(p_terms, q_terms, order).items()}


def _popped_products(terms1: Sequence[_Term], terms2: Sequence[_Term],
                     order: float) -> Dict[int, int]:
    """The sum of n1 n2 y^(e1 + e2) over the pairs of terms of total degree
    at most order, in the order of the pairs, keyed by the packed e1 + e2;
    a sum that reaches zero is popped, and comes back last if a later pair
    hits it again."""
    out: Dict[int, int] = {}
    for e1, c1, d1 in terms1:
        room = order - d1
        for e2, c2, d2 in terms2:
            if d2 <= room:
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


def jet_substitute(ps: Sequence[Poly], subs: Sequence[Poly], out_num_vars: int,
                   order: int) -> List[Poly]:
    """Each p of ps with subs[i] for variable i+1, cut above total degree
    order.

    Order math.inf means uncut (substitute).  Under a finite cut with no
    substitution having a constant term, a monomial of p of degree above
    order contributes nothing and is skipped; with one (shift), p is read
    uncut and the substitutions and images cut, since cutting above a
    degree is a ring homomorphism.  Every substitution must be a
    polynomial in out_num_vars variables, and every nonzero p one in
    len(subs) variables; both are checked before anything is computed.

    The polynomials share one table of monomial images.  The substitutions
    are written once as integer numerators over their lcm D, and the image
    of x^e is kept as integers over D^|e|: the image of the monomial one
    degree lower (one unit off the field of e's last variable), times one
    substitution, cut above order.  Each p sums its numerators, times its
    monomials' images weighted up to the top degree m of its terms, in one
    integer per output term, and holds one Fraction(sum, D_p D^m) per
    nonzero term.  A sum that reaches zero is popped, so the key order is
    that of the Fraction loop.  The images' keys have room for the degree
    of p times that of the substitutions, or order if lower.
    """
    _check_order(order)
    if any(len(e) != out_num_vars for s in subs for e in s):
        raise PolyError(f"substitutions in {sorted({len(e) for s in subs for e in s})} "
                        f"variables for a result in {out_num_vars}")
    n = len(subs)
    for p in ps:
        if p and len(next(iter(p))) != n:
            raise PolyError(f"{n} substitutions for {len(next(iter(p)))} variables")
    p_cut = inf if any(constant_term(s) for s in subs) else order
    layout = _Layout(out_num_vars, order if order < inf else max(_top(ps), 1) * _top(subs))
    sub_terms, den = _numerators(subs, layout, order)
    image = _image_table(sub_terms, layout, order)
    results: List[Poly] = []
    for (terms,), d_p in (_numerators([p], None, p_cut) for p in ps):
        top = max((size for _, _, size in terms), default=0)
        out: Dict[int, int] = {}
        for e, c, size in terms:
            c *= den ** (top - size)
            for e2, c2, _ in image(e):
                s = out.get(e2, 0) + c * c2
                if s:
                    out[e2] = s
                else:
                    out.pop(e2, None)
        d = d_p * den ** top
        results.append({layout[e]: Fraction(s, d) for e, s in out.items()})
    return results


def _image_table(sub_terms: Sequence[Sequence[_Term]], layout: _Layout,
                 order: float) -> Callable[[Exponent], List[_Term]]:
    """image(e): the terms of x^e with sub_terms[i] for variable i+1, cut
    above order, over D^|e| for D the substitutions' one den.  Each image is
    built on first use, the image of the monomial one degree lower (one
    unit off the field of e's last variable) times one substitution, and
    kept for the call."""
    images: Dict[Exponent, List[_Term]] = {(0,) * len(sub_terms): [(0, 1, 0)]}

    def image(e: Exponent) -> List[_Term]:
        if e not in images:
            i = max(a for a, k in enumerate(e) if k)
            lower = image(e[:i] + (e[i] - 1,) + e[i + 1:])
            images[e] = [(key, c, sum(layout[key])) for key, c in
                         _popped_products(lower, sub_terms[i], order).items()]
        return images[e]
    return image


def jet_apply_columns(cols: Sequence[PolyVec], xs: Sequence[PolyVec],
                      order: int) -> List[PolyVec]:
    """apply_columns on jets: sum_k x[k] cols[k] cut above degree order
    (math.inf: uncut) for each x in xs, one component per column.  The
    columns some x reads are written once, as numerators over their joint
    lcm D_c; each output component sums over the columns with x[k] nonzero
    in one integer, x's numerators over D_x, and holds one
    Fraction(sum, D_c * D_x) per term."""
    _check_order(order)
    _check_lengths(cols, xs)
    polys = [c for field in (*cols, *xs) for c in field]
    layout = _Layout(_variables(polys), order if order < inf else 2 * _top(polys))
    dim = len(cols[0])
    x_terms = [_numerators(x, layout, order) for x in xs]
    live = sorted({k for terms, _ in x_terms for k, xk in enumerate(terms) if xk})
    col_terms, d_c = _numerators([c for k in live for c in cols[k]], layout, order)
    at = {k: col_terms[i * dim:(i + 1) * dim] for i, k in enumerate(live)}
    return [[{layout[e]: Fraction(s, d_c * d_x) for e, s in _products(
        [(at[k][r], xk, 1) for k, xk in enumerate(terms) if xk], order).items() if s}
        for r in range(dim)] for terms, d_x in x_terms]


def jet_cauchy_riemann(target_cols: Sequence[PolyVec], source_cols: Sequence[PolyVec],
                       u: Tuple[int, Sequence[Dict[Exponent, int]]],
                       order: int) -> Tuple[int, List[List[Dict[Exponent, int]]]]:
    """R_a = J_M(U) d_a U - sum_b J_L[b][a] d_b U for each variable a of a
    map's Taylor polynomial U, cut above total degree order (math.inf:
    uncut): the Cauchy-Riemann composition.  u is (D_U, U), U's
    coefficients integer numerators over D_U.  J_M has the columns
    target_cols, one column and one component per component of U, in as
    many variables; J_L the columns source_cols, one column and one
    component per variable of U.

    Returns (den, R), R[a][i] the nonzero integer numerators over den of
    component i of R_a, keyed by exponent tuples.  J_M(U) goes through
    jet_substitute's image table over D_M D_U^t, D_M the lcm of J_M's
    denominators and t the top degree of its terms read (those up to order
    unless U has a constant term); d_b U is a unit off a packed field.
    Both products, J_M(U)[i][c] d_a U_c weighted by D_L (J_L's lcm) and
    J_L[b][a] d_b U_i by -D_M D_U^t, are summed in one integer per term,
    over den = D_M D_L D_U^(t + 1).  Fields of the wrong shape, polynomials
    in the wrong number of variables and a coefficient of U that is not an
    int raise PolyError.
    """
    _check_order(order)
    d_u, comps = u
    m, n = len(comps), len(source_cols)
    for cols, dim, what in ((target_cols, m, "component"), (source_cols, n, "variable")):
        if len(cols) != dim or any(len(c) != dim for c in cols):
            raise PolyError(f"columns of {[len(c) for c in cols]} components: {dim} of "
                            f"{dim} needed, one per {what} of the map")
    target = [p for col in target_cols for p in col]
    source = [p for col in source_cols for p in col]
    for polys, dim in ((target, m), ([*source, *comps], n)):
        if _variables(polys, dim) != dim:
            raise PolyError(f"polynomials in {_variables(polys)} variables for "
                            f"{dim} columns")
    layout = _Layout(n, order + 1 if order < inf else
                     (_top(target) + 1) * _top(comps) + _top(source))
    u_terms, one = _numerators(comps, layout, order + 1)
    if one != 1:
        raise PolyError("the map's coefficients must be integer numerators")
    du = _partials(u_terms, layout, n)
    m_cut = inf if any(e == 0 for terms in u_terms for e, _, _ in terms) else order
    m_terms, d_m = _numerators(target, None, m_cut)
    l_terms, d_l = _numerators(source, layout, order)
    image = _image_table(u_terms, layout, order)
    t = max((size for terms in m_terms for _, _, size in terms), default=0)
    # J_M(U) entry by entry, column c's component i at c * m + i, over D_M D_U^t
    m_at_u: List[List[_Term]] = []
    for terms in m_terms:
        acc: Dict[int, int] = {}
        for e, c, size in terms:
            c *= d_u ** (t - size)
            for key, c2, _ in image(e):
                acc[key] = acc.get(key, 0) + c * c2
        m_at_u.append([(key, s, sum(layout[key])) for key, s in acc.items() if s])
    l_weight = -d_m * d_u ** t
    rows = [[{layout[e]: s for e, s in _products(
        [(m_at_u[c * m + i], du[c][a], d_l) for c in range(m)]
        + [(l_terms[a * n + b], du[i][b], l_weight) for b in range(n)], order).items() if s}
        for i in range(m)] for a in range(n)]
    return d_m * d_l * d_u ** (t + 1), rows


def _jet_parts(fields: Sequence[PolyVec], order: float, layout: _Layout):
    """(low, partials) of each field, numerators over the fields' one lcm
    D, keys packed into layout: low[i] lists the terms of f^i of degree
    <= order, partials[i][a] those of d_a f^i, each key one unit off the
    field of variable a.  The fields are jets known to order + 1, with one
    component per chart variable at least."""
    terms, den = _numerators([c for f in fields for c in f], layout, order + 1)
    parts = []
    for n, f in enumerate(fields):
        comps = terms[n * len(f):(n + 1) * len(f)]
        parts.append(([[t for t in comp if t[2] <= order] for comp in comps],
                      _partials(comps, layout, len(comps))))
    return parts, den


def _partials(comps: Sequence[Sequence[_Term]], layout: _Layout,
              size: int) -> List[List[List[_Term]]]:
    """partials[i][a], a < size: the terms of d_a of the polynomial with
    terms comps[i], each key one unit off the field of variable a (empty
    for a past the layout's variables)."""
    mask = layout.mask
    partials: List[List[List[_Term]]] = [[[] for _ in range(size)] for _ in comps]
    for row, comp in zip(partials, comps):
        for e, c, deg in comp:
            for a, s in enumerate(layout.fields):
                if k := e >> s & mask:
                    row[a].append((e - (1 << s), c * k, deg - 1))
    return partials


def jet_brackets(fields: Sequence[PolyVec], pairs: Sequence[Tuple[int, int]],
                 order: int) -> List[PolyVec]:
    """[fields[i], fields[k]] for each (i, k) in pairs, cut above degree
    order (math.inf: uncut, the brackets of global fields); the fields are
    vector-field jets known to order + 1, with one component per chart
    variable.  Fields of unequal lengths, or polynomials in more
    variables than a field has components, raise PolyError.

    [X, Y]^r = sum_a X^a d_a Y^r - Y^a d_a X^r, and a derivative costs one
    order, so an order-0 bracket is DY(p) X(p) - DX(p) Y(p) at the base
    point.  Each field's low-degree terms and first partials are listed
    once (_jet_parts), as numerators over that field's lcm D_i, and terms
    that cannot reach degree <= order are dropped before multiplying, so
    the cost follows the nonzero jet coefficients.  A bracket sums in
    integers and holds one Fraction(sum, D_i * D_k) per term.
    """
    _check_order(order)
    lengths = sorted({len(f) for f in fields})
    if len(lengths) > 1:
        raise PolyError(f"fields of {[len(f) for f in fields]} components")
    dim = lengths[0] if lengths else 0
    polys = [c for f in fields for c in f]
    n = _variables(polys)
    if n > dim:
        raise PolyError(f"polynomials in {n} variables in fields of {dim} components")
    layout = _Layout(n, order + 1 if order < inf else 2 * _top(polys))
    prepared = {i: _jet_parts([fields[i]], order, layout)
                for i in {i for pair in pairs for i in pair}}
    out: List[PolyVec] = []
    for i, k in pairs:
        ([(x_low, dx)], d_x), ([(y_low, dy)], d_y) = prepared[i], prepared[k]
        den = d_x * d_y
        bracket: PolyVec = []
        for r in range(len(dy)):
            acc = _products([f for a in range(len(x_low))
                             for f in ((x_low[a], dy[r][a], 1), (y_low[a], dx[r][a], -1))],
                            order)
            bracket.append({layout[e]: Fraction(c, den) for e, c in acc.items() if c})
        out.append(bracket)
    return out


def jet_torsion(cols: Sequence[PolyVec], order: int) -> List[PolyVec]:
    """The torsion fields N(e_a, e_b), a < b in lexicographic order, of
    the matrix field with columns X_a = J e_a, a jet known to order + 1,
    cut above degree order (math.inf: uncut).  N(e_a, e_b) is
    [X_a, X_b] + J (d_b X_a - d_a X_b), so component r is one integer sum
    over c of X_a^c d_c X_b^r - X_b^c d_c X_a^r + X_c^r (d_b X_a^c - d_a X_b^c)
    on the columns' parts (_jet_parts), one Fraction(sum, D^2) per term.
    A field that is not square, or polynomials in another number of
    variables than it has columns, raise PolyError."""
    _check_order(order)
    dim = len(cols)
    if any(len(c) != dim for c in cols):
        raise PolyError(f"columns of {[len(c) for c in cols]} components: "
                        f"a torsion needs {dim} each, one per column")
    polys = [c for col in cols for c in col]
    n = _variables(polys, dim)
    if n != dim:
        raise PolyError(f"polynomials in {n} variables for {dim} columns")
    layout = _Layout(n, order + 1 if order < inf else 2 * _top(polys))
    parts, d = _jet_parts(cols, order, layout)
    den = d * d
    out: List[PolyVec] = []
    for a in range(dim):
        a_low, da = parts[a]
        for b in range(a + 1, dim):
            b_low, db = parts[b]
            field: PolyVec = []
            for r in range(dim):
                acc = _products([f for c in range(dim) for f in (
                    (a_low[c], db[r][c], 1), (b_low[c], da[r][c], -1),
                    (parts[c][0][r], da[c][b], 1), (parts[c][0][r], db[c][a], -1))], order)
                field.append({layout[e]: Fraction(s, den) for e, s in acc.items() if s})
            out.append(field)
    return out


# ---------------------------------------------------------------------------
# polynomial vectors (vector fields in chart coordinates)
# ---------------------------------------------------------------------------

def vec_zero(dim: int) -> PolyVec:
    return [{} for _ in range(dim)]


def vec_add(u: PolyVec, v: PolyVec) -> PolyVec:
    if len(u) != len(v):
        raise PolyError(f"vec_add got fields of {len(u)} and {len(v)} components")
    return [add(a, b) for a, b in zip(u, v)]


def vec_sub(u: PolyVec, v: PolyVec) -> PolyVec:
    if len(u) != len(v):
        raise PolyError(f"vec_sub got fields of {len(u)} and {len(v)} components")
    return [sub(a, b) for a, b in zip(u, v)]


def vec_scale(u: PolyVec, c: Scalar) -> PolyVec:
    return [scale(a, c) for a in u]


def vec_scale_poly(u: PolyVec, p: Poly) -> PolyVec:
    return [mul(a, p) for a in u]


def apply_columns(cols: Sequence[PolyVec], x: PolyVec) -> PolyVec:
    """sum_k x[k] cols[k]: the polynomial matrix with these columns times
    the field x, exact (J X for a structure's columns), one component of x
    per column."""
    _check_lengths(cols, [x])
    out = vec_zero(len(cols[0]))
    for col, c in zip(cols, x):
        if c:
            out = vec_add(out, vec_scale_poly(col, c))
    return out


def vec_eval(u: PolyVec, point: Sequence[Scalar]) -> List[Fraction]:
    return [eval_poly(a, point) for a in u]


def vec_is_zero(u: PolyVec) -> bool:
    return all(not a for a in u)


# ---------------------------------------------------------------------------
# text format: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
# factor := rational | var | var '^' posint | '(' expr ')' | '-' factor
# ---------------------------------------------------------------------------

def parse_poly(text: str, num_vars: int) -> Poly:
    """Parse the expression grammar above into a canonical Poly.

    Raises PolyError with the character position on bad input.
    """
    parser = _Parser(text, num_vars)
    result = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise PolyError(f"unexpected character {text[parser.pos]!r} at position {parser.pos}")
    return result


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.num_vars = num_vars
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> PolyError:
        return PolyError(f"{message} at position {self.pos}")

    def parse_expr(self) -> Poly:
        result = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = add(result, self.parse_term())
            elif ch == "-":
                self.pos += 1
                result = sub(result, self.parse_term())
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            result = mul(result, self.parse_factor())
        return result

    def parse_factor(self) -> Poly:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return neg(self.parse_factor())
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return self.maybe_power(inner)
        if ch == "x":
            return self.parse_var()
        if ch.isdigit():
            return self.parse_rational()
        raise self.error(f"expected a factor, found {ch!r}" if ch else "unexpected end of input")

    def maybe_power(self, base: Poly) -> Poly:
        if self.peek() != "^":
            return base
        self.pos += 1
        k = self.parse_int()
        out = const(1, self.num_vars)
        for _ in range(k):
            out = mul(out, base)
        return out

    def parse_var(self) -> Poly:
        self.skip_ws()
        start = self.pos
        self.pos += 1  # consume 'x'
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            self.pos = start
            raise self.error("expected variable index after 'x'")
        index = self.parse_int()
        if not 1 <= index <= self.num_vars:
            self.pos = start
            raise self.error(f"variable x{index} out of range for {self.num_vars} variables")
        return self.maybe_power(var(index, self.num_vars))

    def parse_rational(self) -> Poly:
        numer = self.parse_int()
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            denom_pos = self.pos
            denom = self.parse_int()
            if denom == 0:
                self.pos = denom_pos
                raise self.error("zero denominator")
            base = const(Fraction(numer, denom), self.num_vars)
        else:
            base = const(numer, self.num_vars)
        return self.maybe_power(base)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])


def format_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(p)) == p."""
    if not p:
        return "0"
    # graded lexicographic, highest degree first, for a stable leading term
    keys = sorted(p, key=lambda e: (sum(e), e), reverse=True)
    pieces: List[str] = []
    for e in keys:
        c = p[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        coeff = abs(c)
        if coeff != 1 or not factors:
            factors.insert(0, format_rational(coeff))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)
