"""Seeded workloads of the nijcalc benchmark: inputs, tasks and oracles.

``build(name, seed)`` returns the workload's cycle: a fixed sequence of task
kinds whose inputs are drawn from the seed.  The runner repeats the cycle in
a closed loop.  A task's ``call`` is the timed work and returns the library's
verdict; its ``check`` is the oracle, run outside the timed region, which
raises ``OracleError`` on a wrong output.  Every oracle avoids the route it
checks: it recomputes the result another way or tests an identity the result
must satisfy.

Inputs are sized by construction (fixed dimensions, degrees and shapes), so
another seed changes the numbers but not the task mix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from nijcalc import classify, forms, genpos, invariants, jets, linalg, poly, structures
from nijcalc.quadext import QuadExt
from nijcalc.tensor import PointTensor, kernel_dim

class OracleError(AssertionError):
    """An output failed its oracle."""


@dataclass(frozen=True)
class KnownDefect:
    """Verdict of a call that hits a documented library defect."""

    message: str


@dataclass
class Task:
    kind: str                       # the task mix is the sequence of kinds
    label: str                      # the input, for messages and digests
    call: Callable[[], Any]         # timed: returns the verdict
    check: Callable[[Any], None]    # oracle on the verdict


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# canonical text of exact outputs, for digests
# ---------------------------------------------------------------------------

def canon(obj) -> str:
    """Deterministic text of an exact output (rationals, Q(sqrt d), tensors)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, QuadExt):
        return f"({canon(obj.a)}+{canon(obj.b)}r{canon(obj.d)})"
    if isinstance(obj, PointTensor):
        body = ",".join(f"{k}:{canon(obj.entries[k])}" for k in sorted(obj.entries))
        return f"T{obj.dim_in}.{obj.dim_out}.{obj.arity}{{{body}}}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canon(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(obj[k])}"
                              for k in sorted(obj, key=repr)) + "}"
    if is_dataclass(obj):
        return type(obj).__name__ + canon({f.name: getattr(obj, f.name)
                                           for f in fields(obj)})
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(texts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared input helpers
# ---------------------------------------------------------------------------

def rational_point(rng: random.Random, dim: int) -> List[Fraction]:
    return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for _ in range(dim)]


def nonconstant_structure(n: int, rng: random.Random, degree: int):
    """random_structure with a fresh seed, redrawn while J is constant
    (a constant J is flat, so every invariant is zero and trivial to get)."""
    while True:
        j = structures.random_structure(n, rng.randrange(10 ** 6), degree)
        if j.max_entry_degree() >= 1:
            return j


def _terms(j) -> int:
    return sum(len(p) for col in j.cols for p in col)


def basis(dim: int) -> List[List[Fraction]]:
    return [[Fraction(int(i == a)) for i in range(dim)] for a in range(dim)]


# ---------------------------------------------------------------------------
# torsion4: the arity-4 invariant and the torsion identities
# ---------------------------------------------------------------------------

def _arity4_task(j, rng: random.Random) -> Task:
    pt = rational_point(rng, 4)

    def check(out: PointTensor) -> None:
        require(out.arity == 4 and out.dim_in == 4, "arity-4 output has wrong shape")
        require(out.has_pair_pattern(), "arity-4 output lacks the pair pattern")

    return Task("arity4", f"{j.name} at {canon(pt)}",
                lambda: invariants.higher_nijenhuis(j, pt), check)


def _torsion_identities_task(j, rng: random.Random) -> Task:
    pt = rational_point(rng, 6)

    def call():
        return (invariants.nijenhuis_tensor(j, pt),
                invariants.first_differential_antilinearity_defect(j, pt),
                invariants.second_differential_identity_defect(j, pt))

    def check(out) -> None:
        n_at, first, second = out
        require(n_at.is_antisymmetric_in(0, 1), "torsion is not antisymmetric")
        require(structures.linear_membership_violation(n_at, j.at_point(pt)) is None,
                "torsion fails antilinearity for J(p)")
        require(first is None, f"first-differential identity fails at {first}")
        require(second is None, f"second-differential identity fails at {second}")

    return Task("torsion_identities", f"{j.name} at {canon(pt)}", call, check)


# (n, degree, term-count band) of the structures of a torsion4 triple: an
# arity-4 task of degree 2, one of degree 3, and the identities in dimension
# 6.  A task's cost grows with the term count of its random structure
# (0.4-1.3 s for the arity-4 tasks and 0.8-1.5 s for the identities over the
# unbanded draws), so the bands keep the mix the same from seed to seed.
TORSION_SHAPES = ((2, 2, (40, 60)), (2, 3, (27, 45)), (3, 2, (140, 170)))
# distinct triples per cycle, so the mean cost moves little between seeds
TORSION_TRIPLES = 5


def _torsion_shapes(tiny: bool):
    if tiny:
        return (TORSION_SHAPES[0], TORSION_SHAPES[2])
    return TORSION_SHAPES * TORSION_TRIPLES


def pick_structure(rng: random.Random, n: int, degree: int, band) -> int:
    """Seed of the first random_structure(n, seed, degree) that is not
    constant (a constant J is flat, so every invariant is zero) and whose
    term count lies in band."""
    while True:
        seed = rng.randrange(10 ** 6)
        j = structures.random_structure(n, seed, degree)
        if j.max_entry_degree() >= 1 and band[0] <= _terms(j) <= band[1]:
            return seed


def torsion4(rng: random.Random, tiny: bool, picks: Sequence[int]) -> List[Task]:
    tasks = []
    for (n, degree, _), seed in zip(_torsion_shapes(tiny), picks):
        j = structures.random_structure(n, seed, degree)
        make = _arity4_task if n == 2 else _torsion_identities_task
        tasks.append(make(j, rng))
    return tasks


# ---------------------------------------------------------------------------
# jet_lift: lifting towers between a structure and its push-forward
# ---------------------------------------------------------------------------

def chart_change(rng: random.Random, dim: int):
    """Triangular chart change phi_i = x_i + c_i x_1 x_k (k < i) and its
    polynomial inverse psi, by back-substitution."""
    phi = [poly.var(1, dim)]
    for i in range(1, dim):
        e = [0] * dim
        e[0] += 1
        e[rng.randrange(i)] += 1
        phi.append(poly.add(poly.var(i + 1, dim),
                            poly.monomial(tuple(e), rng.choice((-2, -1, 1, 2)))))
    psi: List[poly.Poly] = []
    for i in range(dim):
        p_i = poly.sub(phi[i], poly.var(i + 1, dim))
        reps = psi + [poly.var(k + 1, dim) for k in range(i, dim)]
        psi.append(poly.sub(poly.var(i + 1, dim), poly.substitute(p_i, reps, dim)))
    return phi, psi


def _jacobian(f: Sequence[poly.Poly], dim: int) -> List[List[poly.Poly]]:
    return [[poly.diff(f[i], k + 1) for k in range(dim)] for i in range(dim)]


def _poly_matmul(a, b) -> List[List[poly.Poly]]:
    dim = len(a)
    out = []
    for i in range(dim):
        row = []
        for k in range(dim):
            acc = poly.zero()
            for r in range(dim):
                if a[i][r] and b[r][k]:
                    acc = poly.add(acc, poly.mul(a[i][r], b[r][k]))
            row.append(acc)
        out.append(row)
    return out


def push_forward(j, phi, psi):
    """J'(y) = D phi(psi(y)) J(psi(y)) D psi(y), the structure phi_* J."""
    dim = j.dim

    def pulled(p):
        return poly.substitute(p, psi, dim)

    dphi = [[pulled(p) for p in row] for row in _jacobian(phi, dim)]
    j_psi = [[pulled(j.entry(i, k)) for k in range(dim)] for i in range(dim)]
    m = _poly_matmul(_poly_matmul(dphi, j_psi), _jacobian(psi, dim))
    return structures.StructureField([[m[i][k] for i in range(dim)] for k in range(dim)],
                                     name=f"pushed({j.name})")


def _jet_of(phi, x0, order: int):
    dim = len(phi)
    d1 = PointTensor.from_matrix([[poly.eval_poly(poly.diff(phi[i], k + 1), x0)
                                   for k in range(dim)] for i in range(dim)])
    symbols = [jets.JetSymbol(1, d1)]
    if order >= 2:
        d2 = PointTensor.from_function(dim, dim, 2, lambda idx: [
            poly.eval_poly(poly.diff(poly.diff(phi[i], idx[0] + 1), idx[1] + 1), x0)
            for i in range(dim)])
        symbols.append(jets.JetSymbol(2, d2))
    y0 = [poly.eval_poly(p, x0) for p in phi]
    return jets.TruncatedMap(tuple(x0), tuple(y0), tuple(symbols))


# J' with this many terms lifts to order 4 in about 1-2 s
PUSHED_TERMS = (100, 160)
# pairs per cycle; the oracle of each costs about 3 s (solve_symbol at the
# order-3 obstruction), which bounds how many a run can check
PUSHED_PAIRS = 4


def _pushed_draw(draw: int):
    """A degree-1 structure J, a chart change phi, its inverse psi, a base
    point and phi_*J, drawn from the seed `draw`."""
    rng = random.Random(draw)
    j = nonconstant_structure(2, rng, 1)
    phi, psi = chart_change(rng, 4)
    x0 = [Fraction(rng.choice((-1, 1)), rng.randint(1, 2)) for _ in range(4)]
    return j, phi, x0, push_forward(j, phi, psi)


def pick_pushed_draw(rng: random.Random) -> int:
    """Seed of the first draw whose phi_*J has a size in PUSHED_TERMS and
    where the canonical prolongation of the 1-jet of phi is blocked at order 3
    (it lifts further for about one draw in ten, which would change the task
    mix)."""
    while True:
        draw = rng.randrange(10 ** 9)
        j, phi, x0, pushed = _pushed_draw(draw)
        if not PUSHED_TERMS[0] <= _terms(pushed) <= PUSHED_TERMS[1]:
            continue
        blocked = jets.lift_tower(_jet_of(phi, x0, 1), j, pushed, k_max=3).obstruction
        if blocked is not None and blocked.order == 3:
            return draw


def _pushed_pair(draw: int):
    """The chosen draw, with phi_*J validated as an exact structure."""
    j, phi, x0, pushed = _pushed_draw(draw)
    status = structures.validate(pushed).status
    if status != "exact":
        raise RuntimeError(f"push-forward of {j.name} is not exact: {status}")
    return j, pushed, phi, x0


# solve_symbol takes about 0.3 s at order 2, 2.5 s at order 3 and 25 s at
# order 4 in dimension 4.  Above order 2 a lifted symbol is vouched for by the
# zero residual of its order (a symmetric symbol with zero residual solves the
# symbol equation); an obstruction is always confirmed by solve_symbol.
SOLVE_MAX_ORDER = 2


def _lift_check(j_l, j_m, start_order: int, expect_order: Optional[int]):
    """Oracle of a tower; expect_order is the order it must stop at, by
    reaching order 4 or by an obstruction one order higher."""
    def check(res) -> None:
        cur = res.lifted
        require(cur is not None and cur.order >= start_order, "lift lost the input jet")
        if expect_order is not None:
            require(cur.order == expect_order, f"expected order {expect_order}, reached {cur.order}")
        for r in range(1, cur.order + 1):
            require(jets.cr_residual(jets.truncate(cur, r), j_l, j_m).is_zero(),
                    f"residual nonzero at reached order {r}")
        jl_at = j_l.at_point(list(cur.x))
        jm_at = j_m.at_point(list(cur.y))
        for k in range(start_order + 1, min(cur.order, SOLVE_MAX_ORDER) + 1):
            p_k = jets.build_P_k(jets.truncate(cur, k - 1), j_l, j_m, verify=False)
            require(jets.solve_symbol(p_k, jl_at, jm_at) is not None,
                    f"lifted order {k} has no symmetric solution")
        if res.obstruction is not None:
            require(res.obstruction.order == cur.order + 1 and not res.obstruction.vanishes,
                    "obstruction order or residual inconsistent")
            p_k = jets.build_P_k(cur, j_l, j_m, verify=False)
            require(jets.solve_symbol(p_k, jl_at, jm_at) is None,
                    f"order {cur.order + 1} reported obstructed but is solvable")
    return check


def _killing_task(rng: random.Random) -> Task:
    """ex2 -> standard structure from a multiple of the symbol annihilating
    the torsion image of ex2 at 0; known to lift to order 4."""
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    mat[0][2] = c
    mat[1][3] = c
    zero = tuple(Fraction(0) for _ in range(4))
    u = jets.TruncatedMap(zero, zero, (jets.JetSymbol(1, PointTensor.from_matrix(mat)),))
    j_l = structures.example_structure("ex2")
    j_m = structures.standard_structure(2)
    return Task("ex2_killing", f"ex2 -> j0, symbol scale {c}",
                lambda: jets.lift_tower(u, j_l, j_m, k_max=4),
                _lift_check(j_l, j_m, 1, 4))


def jet_lift(rng: random.Random, tiny: bool, picks: Sequence[int]) -> List[Task]:
    tasks = []
    for draw in picks:
        j, pushed, phi, x0 = _pushed_pair(draw)
        two = _jet_of(phi, x0, 2)
        one = _jet_of(phi, x0, 1)
        label = f"{j.name} by chart {canon([poly.format_poly(p) for p in phi])} at {canon(x0)}"
        tasks.append(Task("true_2jet", label,
                          lambda u=two, a=j, b=pushed: jets.lift_tower(u, a, b, k_max=4),
                          _lift_check(j, pushed, 2, None)))
        tasks.append(Task("true_1jet", label,
                          lambda u=one, a=j, b=pushed: jets.lift_tower(u, a, b, k_max=4),
                          _lift_check(j, pushed, 1, 2)))
        tasks.append(_killing_task(rng))
    return tasks


# ---------------------------------------------------------------------------
# genpos: general-position tests and the two-structure decomposition
# ---------------------------------------------------------------------------

GENPOS_SAMPLES = 6


def _complement(jm, xi) -> List[List[Fraction]]:
    """A j-invariant complement of the complex line of xi, built greedily
    from the standard basis; the oracle's own hyperplane choice."""
    dim = len(xi)
    acc = [list(xi), linalg.mat_vec(jm, xi)]
    out = []
    for e in reversed(basis(dim)):
        if len(out) == dim - 2:
            break
        je = linalg.mat_vec(jm, e)
        if linalg.span_dim(acc + [e, je]) == len(acc) + 2:
            acc += [e, je]
            out += [e, je]
    return out


def _genpos_check(n_t: PointTensor, expect: str):
    def check(rep) -> None:
        require(rep.verdict == expect, f"verdict {rep.verdict}, expected {expect}")
        jm = structures.standard_matrix(n_t.dim_in // 2)
        if expect == "general_position":
            xi = rep.witness
            require(kernel_dim(n_t, xi) == 2, "witness kernel is not 2-dimensional")
            cert = genpos.alpha_N(n_t, xi, _complement(jm, xi))
            require(cert["positive"], "witness certificate is not positive")
        else:
            require(rep.samples_tested == GENPOS_SAMPLES, "degenerate verdict skipped samples")
            for xi in rep.degeneracy_witnesses:
                require(kernel_dim(n_t, xi) > 2, "degeneracy witness has a 2-dim kernel")
    return check


def _gp_task(kind: str, n_t: PointTensor, label: str, rng: random.Random,
             expect: str) -> Task:
    seed = rng.randrange(10 ** 6)
    return Task(kind, f"{label} samples seed {seed}",
                lambda: genpos.general_position_test(n_t, GENPOS_SAMPLES, seed),
                _genpos_check(n_t, expect))


def _single_pair_tensor(n: int, rng: random.Random) -> PointTensor:
    """Tensor supported on one pair of complex planes: its kernel contains the
    other n - 2 planes, so it is degenerate by construction for n >= 4."""
    s, t = sorted(rng.sample(range(n), 2))
    c = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(2 * n)]
    return structures.linear_nijenhuis_from_free_data(n, {(s, t): c})


def _decomposition_task(n: int, rng: random.Random, sign: int) -> Task:
    seed = rng.randrange(10 ** 6)
    n_t = structures.random_linear_nijenhuis(n, seed)
    j1 = PointTensor.from_matrix(structures.standard_matrix(n))
    j2 = j1 if sign > 0 else j1.neg()

    def check(dec) -> None:
        agree, oppose = (dec.pi_plus, dec.pi_minus) if sign > 0 else (dec.pi_minus, dec.pi_plus)
        require(oppose == [] and linalg.span_dim(agree) == 2 * n,
                "Pi spaces do not match the structure pair")
        for v in dec.full_kernel:
            require(all(n_t.apply([v, e]) == [0] * (2 * n) for e in basis(2 * n)),
                    "full kernel vector does not annihilate N")

    return Task("decomposition", f"random_linear_nijenhuis({n}, {seed}) sign {sign}",
                lambda: genpos.two_structure_decomposition(n_t, j1, j2), check)


def genpos_workload(rng: random.Random, tiny: bool, picks: Sequence[int]) -> List[Task]:
    tasks = []
    for n in ((4,) if tiny else (4, 5)):
        tasks.append(_gp_task("appendix", genpos.appendix_tensor(n),
                              f"appendix_tensor({n})", rng, "general_position"))
        for _ in range(1 if tiny else 3):
            seed = rng.randrange(10 ** 6)
            tasks.append(_gp_task("random_linear", structures.random_linear_nijenhuis(n, seed),
                                  f"random_linear_nijenhuis({n}, {seed})", rng,
                                  "general_position"))
            tasks.append(_gp_task("single_pair", _single_pair_tensor(n, rng),
                                  f"single pair n={n}", rng, "degenerate"))
        tasks.append(_decomposition_task(n, rng, 1))
        if not tiny:
            tasks.append(_decomposition_task(n, rng, -1))
    return tasks


# ---------------------------------------------------------------------------
# frame4: the 4D fixture family, frames, Tanaka forms, Lie verdicts
# ---------------------------------------------------------------------------

CAND_POINTS = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
               [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, -1]]


def _sparse_poly(rng: random.Random, dim: int):
    kind = rng.randrange(3)
    if kind == 0:
        return poly.const(rng.choice([-1, 1]), dim)
    term = poly.scale(poly.var(rng.randrange(1, dim + 1), dim), rng.choice([-1, 1]))
    if kind == 1:
        return term
    return poly.add(poly.const(rng.choice([-1, 1]), dim), term)


def family_structure(seed: int):
    """The 4D fixture family of the classify probe script: J = j0 + A with
    A e1 = c v, A e3 = v, v = (v1, v2, -c v1, -c v2) for sparse polynomials
    c, v1, v2 drawn from the seed."""
    rng = random.Random(seed)
    dim = 4
    c = _sparse_poly(rng, dim)
    v1 = _sparse_poly(rng, dim)
    v2 = _sparse_poly(rng, dim)
    v = [v1, v2, poly.neg(poly.mul(c, v1)), poly.neg(poly.mul(c, v2))]
    col0 = [poly.mul(c, comp) for comp in v]
    return structures.from_anticommuting_part([col0, list(v)], name=f"fam{seed}")


def diagonal_chart(j, d: Sequence[Fraction]):
    """D_* J for the chart change y = D x, D = diag(d): the entries are
    J'(y)_ik = d_i J_ik(D^-1 y) / d_k.  A point p of J corresponds to D p."""
    dim = j.dim
    inv = [poly.scale(poly.var(i + 1, dim), 1 / d[i]) for i in range(dim)]
    cols = [[poly.scale(poly.substitute(j.entry(i, k), inv, dim), d[i] / d[k])
             for i in range(dim)] for k in range(dim)]
    return structures.StructureField(cols, name=f"{j.name}/D{canon(list(d))}")


# members spanning the verdict classes: flat torsion (1, 22: ~0.01 s per
# sweep), derived failures (4: ~0.04 s), second-derived failures (0, 12:
# 0.2-0.4 s) and Tanaka runs at some points (16: ~1.3 s, 9: ~2 s), ordered to
# spread the cost.  The seed moves each member by a diagonal chart change,
# which keeps its monomials, its verdicts and so its cost.
FAMILY = (9, 0, 1, 16, 4, 12, 22)
TINY_FAMILY = (0, 4)


def _to_vec(v) -> List:
    return [c if isinstance(c, QuadExt) else Fraction(c) for c in v]


def _pair(n_at: PointTensor, x, y) -> List:
    """N(x, y) by bilinearity over the basis entries; works over Q(sqrt d)."""
    dim = n_at.dim_in
    out: List = [Fraction(0)] * dim
    for (a, b), val in n_at.entries.items():
        coeff = x[a] * y[b]
        if coeff == 0:
            continue
        for i in range(dim):
            if val[i]:
                out[i] = out[i] + coeff * val[i]
    return out


def _torsion_forms_route(j):
    """The torsion field as half the Froelicher-Nijenhuis square of J."""
    jf = forms.VectorForm.from_structure(j)
    return jf, forms.fn_bracket(jf, jf).scale(Fraction(1, 2))


def _torsion_at(nf, point) -> PointTensor:
    dim = nf.dim
    return PointTensor.from_function(dim, dim, 2, lambda idx: poly.vec_eval(
        nf.value_on_basis(idx), point))


def _sweep_task(j, nf, points) -> Task:
    """One member at its seven candidate points: the frame, then the Tanaka
    forms; a HypothesisError is the verdict at that point."""

    def at_point(pt):
        try:
            frame = classify.utxi_invariant(j, pt)
        except classify.HypothesisError as err:
            return ("hypothesis", err.stage)
        try:
            return ("tanaka", classify.tanaka_forms(j, pt))
        except classify.HypothesisError as err:
            return ("frame", frame, err.stage)

    def check_point(pt, out) -> None:
        n_at = _torsion_at(nf, pt)
        if out[0] == "hypothesis":
            if out[1] == "torsion":
                require(n_at.is_zero(), f"torsion hypothesis failed at {pt} on nonzero torsion")
            return
        frame = out[1].frame if out[0] == "tanaka" else out[1]
        jm = j.eval_matrix(pt)
        xi1, xi2, xi3, xi4 = (_to_vec(v) for v in (frame.xi1, frame.xi2, frame.xi3, frame.xi4))
        j_xi1 = [sum((jm[i][a] * xi1[a] for a in range(4)), Fraction(0)) for i in range(4)]
        require(j_xi1 == xi2, f"xi2 is not J xi1 at {pt}")
        require(_pair(n_at, xi1, xi3) == xi1, f"N(xi1, xi3) != xi1 at {pt}")
        require(_pair(n_at, xi1, xi4) == xi2, f"N(xi1, xi4) != xi2 at {pt}")

    def check(outs) -> None:
        for pt, out in zip(points, outs):
            check_point(pt, out)

    return Task("frame_sweep", j.name, lambda: [at_point(pt) for pt in points], check)


def _lie_task(j, nf, points) -> Task:
    dim = j.dim

    def product_vanishes(a: int, b: int, c: int) -> bool:
        # N(e_a, N(e_b, e_c)) expanded symbolically from the forms route
        inner = nf.value_on_basis((b, c))
        total = poly.vec_zero(dim)
        for i in range(dim):
            if inner[i]:
                total = poly.vec_add(total, [poly.mul(inner[i], p)
                                             for p in nf.value_on_basis((a, i))])
        return poly.vec_is_zero(total)

    def check(rep) -> None:
        is_lie = all(product_vanishes(a, b, c) for a in range(dim)
                     for b in range(dim) for c in range(b + 1, dim))
        require(rep.is_lie == is_lie, f"Lie verdict {rep.is_lie}, forms route {is_lie}")

    return Task("lie_check", j.name, lambda: classify.lie_check(j, points), check)


BRACKET_DEFECT = "'VectorForm' object has no attribute 'eq'"


def _bracket_report_task(j) -> Task:
    def call():
        try:
            return classify.bracket_identity_report(j)
        except AttributeError as err:
            if str(err) != BRACKET_DEFECT:
                raise
            return KnownDefect(str(err))

    def check(rep) -> None:
        if isinstance(rep, KnownDefect):
            return
        jf, half = _torsion_forms_route(j)
        nf = forms.VectorForm.from_pair_entries(j.dim, invariants.nijenhuis_field_bracket(j).entries)
        want = {
            "jj_algebraic_zero": forms.algebraic_bracket(jf, jf).is_zero(),
            "jj_fn_is_twice_torsion": half == nf,
            "nn_algebraic_zero": forms.algebraic_bracket(nf, nf).is_zero(),
            "nn_fn_zero": forms.fn_bracket(nf, nf).is_zero(),
            "jn_fn_zero": forms.fn_bracket(jf, nf).is_zero(),
        }
        require(rep == want, f"bracket identities {rep}, recomputed {want}")

    return Task("bracket_report", j.name, call, check)


def _joined(kind: str, first: Task, second: Task) -> Task:
    def check(out) -> None:
        first.check(out[0])
        second.check(out[1])

    return Task(kind, first.label, lambda: (first.call(), second.call()), check)


def hits_known_defect(out) -> bool:
    parts = out if isinstance(out, tuple) else (out,)
    return any(isinstance(p, KnownDefect) for p in parts)


def frame4(rng: random.Random, tiny: bool, picks: Sequence[int]) -> List[Task]:
    """One task per structure: a family member's sweep and Lie verdict, or a
    bundled example's Lie verdict and bracket-identity report."""
    tasks = []
    for seed in (TINY_FAMILY if tiny else FAMILY):
        d = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(4)]
        j = diagonal_chart(family_structure(seed), d)
        if structures.validate(j).status != "exact":
            raise RuntimeError(f"family member {j.name} is not exact")
        points = [[di * c for di, c in zip(d, pt)] for pt in CAND_POINTS]
        _, nf = _torsion_forms_route(j)
        tasks.append(_joined("member", _sweep_task(j, nf, points), _lie_task(j, nf, points)))
    eps = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    for j in (structures.example_structure("ex2"),
              structures.example_structure("ex5", eps),
              structures.example_structure("ex6", f_text="x5 + x5^2")):
        points = [pt + [0] * (j.dim - 4) for pt in CAND_POINTS]
        tasks.append(_joined("bundled", _lie_task(j, _torsion_forms_route(j)[1], points),
                             _bracket_report_task(j)))
    return tasks


# seconds one cycle takes on the reference host (a shared 2-core x86 VM,
# CPython 3.11), whose speed varies by up to a factor of two; the runner
# repeats a cycle round(seconds / CYCLE_S) times
CYCLE_S = {"torsion4": 17.0, "jet_lift": 9.5, "genpos": 5.0, "frame4": 5.0}

GENERATORS: Dict[str, Callable[[random.Random, bool, Sequence[int]], List[Task]]] = {
    "torsion4": torsion4, "jet_lift": jet_lift,
    "genpos": genpos_workload, "frame4": frame4,
}
WORKLOADS = tuple(GENERATORS)


def pick(name: str, seed: int, tiny: bool = False) -> List[int]:
    """Inputs the workload chooses by trial, as seeds of the accepted draws;
    build() then generates from them with a fixed amount of work.  The
    trials call the library a seed-dependent number of times, so the runner
    makes these choices before it times the set-up."""
    rng = random.Random(f"{name}-pick:{seed}")
    if name == "torsion4":
        return [pick_structure(rng, n, degree, band)
                for n, degree, band in _torsion_shapes(tiny)]
    if name == "jet_lift":
        return [pick_pushed_draw(rng) for _ in range(1 if tiny else PUSHED_PAIRS)]
    return []


def build(name: str, seed: int, tiny: bool = False,
          picks: Optional[Sequence[int]] = None) -> List[Task]:
    """The workload's task cycle, generated from the seed and from
    pick(name, seed, tiny), which is computed here when not given."""
    if picks is None:
        picks = pick(name, seed, tiny)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), tiny, picks)
