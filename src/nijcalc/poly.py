"""Exact multivariate polynomial arithmetic over rationals.

Polynomials are dictionaries mapping exponent tuples to nonzero Fraction
coefficients.  The zero polynomial is the empty dict, so structural equality
is mathematical equality.  Exponent tuples are dense: every key has length
num_vars, and variables are 1-indexed (x1 .. xN) to match the text grammar.
Coefficients and points are exact: a float raises PolyError, since it would
be read as the nearest binary fraction.

Also provides vectors of polynomials (polynomial vector fields on a chart)
and polynomial matrices applied to them (apply_columns).

The jet kernels (shift, jet_mul, jet_substitute, jet_apply_columns,
jet_brackets) cut their results above a total degree, the order; order
math.inf means uncut, so jet_brackets is the one Lie bracket and
jet_substitute the one composition (substitute).  All but jet_substitute,
which chains jet_mul, sum Python integers: each input's coefficients are
integer numerators over the lcm of their denominators (_numerators), and
each nonzero output coefficient is one Fraction of its integer sum over
the product of those lcms (for shift, times a power of the point's lcm).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, lcm
from typing import Dict, List, Sequence, Tuple, Union

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
    nearest binary fraction, an exact answer to another question."""
    if type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise PolyError(f"float {what} {c!r}: must be exact")
    return Fraction(c)


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
    if p and q:
        ep = next(iter(p))
        eq = next(iter(q))
        if len(ep) != len(eq):
            raise PolyError(f"mixed variable counts: {len(ep)} vs {len(eq)}")


def _check_lengths(cols: Sequence[PolyVec], xs: Sequence[PolyVec]) -> None:
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
        term = c
        for x, k in zip(pt, e):
            if k:
                term *= x ** k
        total += term
    return total


def substitute(p: Poly, replacements: Sequence[Poly], out_num_vars: int) -> Poly:
    """Substitute replacements[i] for variable i+1: exact composition, the
    uncut jet_substitute.  The replacements are polynomials in out_num_vars
    variables and may have constant terms."""
    return jet_substitute(p, replacements, out_num_vars, inf)


# ---------------------------------------------------------------------------
# jets at a point: polynomials in the offset y = x - point, cut above an order
# ---------------------------------------------------------------------------

_Term = Tuple[Exponent, int, int]


def _numerators(polys: Sequence[Poly], top: float = inf) -> Tuple[List[List[_Term]], int]:
    """The terms (e, n, |e|) of each polynomial up to total degree top,
    with n/D the coefficient at e and D the lcm of those denominators."""
    kept = [[(e, c, s) for e, c in p.items() if (s := sum(e)) <= top] for p in polys]
    den = lcm(*(c.denominator for terms in kept for _, c, _ in terms))
    return [[(e, c.numerator * (den // c.denominator), s) for e, c, s in terms]
            for terms in kept], den


def _products(factors: Sequence[Tuple[Sequence[_Term], Sequence[_Term], int]],
              order: int) -> Dict[Exponent, int]:
    """The sum of sign n1 n2 y^(e1 + e2) over each (terms1, terms2, sign)
    of factors and each pair of their terms of total degree at most order."""
    acc: Dict[Exponent, int] = {}
    for terms1, terms2, sign in factors:
        for e1, c1, d1 in terms1:
            room = order - d1
            for e2, c2, d2 in terms2:
                if d2 <= room:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc[e] = acc.get(e, 0) + sign * c1 * c2
    return acc


def shift(p: Poly, point: Sequence[Scalar], order: int) -> Poly:
    """p(point + y) as a polynomial in y, cut above total degree order.

    The coefficient of y^alpha is the partial derivative d^alpha p at the
    point divided by alpha!, so the result is the order-jet of p there.
    The sums run over Python integers.  With the point written a/D and the
    coefficients n_alpha/L over common denominators, and m the total degree
    of p, each monomial is weighted by D^(m - |alpha|) and expanded
    binomially in integers, one variable at a time, dropping partial
    products whose degree already exceeds order; coefficient beta is the
    sum over L * D^(m - |beta|), one Fraction per nonzero coefficient.  A
    float coordinate raises PolyError.
    """
    pt = [_exact(v, "coordinate") for v in point]
    if not p:
        return {}
    n = len(next(iter(p)))
    if len(pt) != n:
        raise PolyError(f"point has length {len(pt)}, expected {n}")
    d = lcm(*(x.denominator for x in pt))
    nums = [x.numerator * (d // x.denominator) for x in pt]
    (terms,), den = _numerators([p])
    m = max(size for _, _, size in terms)
    out: Dict[Exponent, int] = {}
    for e, c, size in terms:
        partial = [((), 0, c * d ** (m - size))]
        for a, k in zip(nums, e):
            nxt = []
            for head, deg, coeff in partial:
                # (a/D + y)^k = sum_s C(k, s) a^(k - s) y^s / D^(k - s)
                for s in range(k if a == 0 else 0, min(k, order - deg) + 1):
                    nxt.append((head + (s,), deg + s, coeff * comb(k, s) * a ** (k - s)))
            partial = nxt
        for head, _, coeff in partial:
            total = out.get(head, 0) + coeff
            if total:
                out[head] = total
            else:
                out.pop(head, None)
    return {head: Fraction(v, den * d ** (m - sum(head))) for head, v in out.items()}


def constant_term(p: Poly) -> Fraction:
    """The value at the origin; for a jet, the value at its base point."""
    if not p:
        return Fraction(0)
    return p.get((0,) * len(next(iter(p))), Fraction(0))


def jet_mul(p: Poly, q: Poly, order: int) -> Poly:
    """p q cut above total degree order (math.inf: uncut); pairs of terms
    past it are skipped.  The sums run over the numerators of p and of q,
    each over its own lcm, and coefficient e is one Fraction(sum, D_p D_q)."""
    _check_compatible(p, q)
    (p_terms,), d_p = _numerators([p], order)
    (q_terms,), d_q = _numerators([q], order)
    out: Dict[Exponent, int] = {}
    for e1, c1, d1 in p_terms:
        room = order - d1
        for e2, c2, d2 in q_terms:
            if d2 > room:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    den = d_p * d_q
    return {e: Fraction(s, den) for e, s in out.items()}


def jet_substitute(p: Poly, subs: Sequence[Poly], out_num_vars: int,
                   order: int) -> Poly:
    """p with subs[i] for variable i+1, cut above total degree order.

    Order math.inf means uncut (substitute); under a finite cut the
    substitutions must have no constant term, so a monomial of p of degree
    above order contributes nothing and is skipped.  The image of each
    monomial is built from the image of the monomial one degree lower,
    times one substitution, and cached, so every power and product of the
    substitutions is multiplied out once per call.
    """
    if order != inf and any(constant_term(s) for s in subs):
        raise PolyError("a jet substitution needs substitutions without constant term")
    if not p:
        return {}
    n = len(next(iter(p)))
    if len(subs) != n:
        raise PolyError(f"{len(subs)} substitutions for {n} variables")
    images: Dict[Exponent, Poly] = {(0,) * n: const(1, out_num_vars)}

    def image(e: Exponent) -> Poly:
        if e not in images:
            i = max(a for a, k in enumerate(e) if k)
            lower = e[:i] + (e[i] - 1,) + e[i + 1:]
            images[e] = jet_mul(image(lower), subs[i], order)
        return images[e]

    out: Poly = {}
    for e, c in p.items():
        if sum(e) > order:
            continue
        for e2, c2 in image(e).items():
            s = out.get(e2, Fraction(0)) + c * c2
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
    return out


def jet_apply_columns(cols: Sequence[PolyVec], xs: Sequence[PolyVec],
                      order: int) -> List[PolyVec]:
    """apply_columns on jets: sum_k x[k] cols[k] cut above degree order
    (math.inf: uncut) for each x in xs, one component per column.  The
    columns some x reads are written once, as numerators over their joint
    lcm D_c; each output component sums over the columns with x[k] nonzero
    in one integer, x's numerators over D_x, and holds one
    Fraction(sum, D_c * D_x) per term."""
    _check_lengths(cols, xs)
    dim = len(cols[0])
    x_terms = [_numerators(x, order) for x in xs]
    live = sorted({k for terms, _ in x_terms for k, xk in enumerate(terms) if xk})
    col_terms, d_c = _numerators([c for k in live for c in cols[k]], order)
    at = {k: col_terms[i * dim:(i + 1) * dim] for i, k in enumerate(live)}
    return [[{e: Fraction(s, d_c * d_x) for e, s in _products(
        [(at[k][r], xk, 1) for k, xk in enumerate(terms) if xk], order).items() if s}
        for r in range(dim)] for terms, d_x in x_terms]


def jet_brackets(fields: Sequence[PolyVec], pairs: Sequence[Tuple[int, int]],
                 order: int) -> List[PolyVec]:
    """[fields[i], fields[k]] for each (i, k) in pairs, cut above degree
    order (math.inf: uncut, the brackets of global fields); the fields are
    vector-field jets known to order + 1, with one component per chart
    variable.

    [X, Y]^r = sum_a X^a d_a Y^r - Y^a d_a X^r, and a derivative costs one
    order, so an order-0 bracket is DY(p) X(p) - DX(p) Y(p) at the base
    point.  Each field's low-degree terms and first partials are listed
    once, as numerators over that field's lcm D_i, and terms that cannot
    reach degree <= order are dropped before multiplying, so the cost
    follows the nonzero jet coefficients.  A bracket sums in integers
    and holds one Fraction(sum, D_i * D_k) per term.
    """
    def prepare(f: PolyVec):
        terms, den = _numerators(f, order + 1)
        low = [[t for t in comp if t[2] <= order] for comp in terms]
        # partials[i][a]: terms of d_a f^i of degree <= order
        partials: List[List[List[_Term]]] = [[[] for _ in f] for _ in f]
        for row, comp in zip(partials, terms):
            for e, c, deg in comp:
                for a, k in enumerate(e):
                    if k:
                        row[a].append((e[:a] + (k - 1,) + e[a + 1:], c * k, deg - 1))
        return low, partials, den

    prepared = {i: prepare(fields[i]) for i in {i for pair in pairs for i in pair}}
    out: List[PolyVec] = []
    for i, k in pairs:
        (x_low, dx, d_x), (y_low, dy, d_y) = prepared[i], prepared[k]
        den = d_x * d_y
        bracket: PolyVec = []
        for r in range(len(dy)):
            acc = _products([f for a in range(len(x_low))
                             for f in ((x_low[a], dy[r][a], 1), (y_low[a], dx[r][a], -1))],
                            order)
            bracket.append({e: Fraction(c, den) for e, c in acc.items() if c})
        out.append(bracket)
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
