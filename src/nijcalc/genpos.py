"""General-position machinery for antiinvariant two-forms.

Counts nu(xi) = dim ker N(xi, .) exactly and certifies it with a Gram
determinant over a transversal invariant hyperplane, both from one map
per point kept on integer rows (N's reading contracted with the point's
numerators; no Fraction until the report); decides general position
exactly, by samples and then the nodes of a lower set of a grid
(interpolation on lower sets, Dyn and Floater 2014); provides the two
explicit dense tensors (conjugate-minor, cyclic-difference doubling) and
the projected Grassmann map; searches for general-position deformations
along a segment; and computes the two-structure subspace decomposition
with its inclusions verified.
"""

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .invariants import InternalInconsistencyError
from .structures import (StructureError, doubled_block_j,
                         doubled_nijenhuis_from_free_data,
                         linear_membership_violation,
                         linear_nijenhuis_from_free_data, standard_matrix)
from .tensor import (PointTensor, alternating_rep, dense_row, first_nonzero_sum,
                     identity_map, kernel_matrices)

Vector = List[Fraction]


def _as_fractions(v: Sequence, dim: int) -> Vector:
    """v as Fractions.  A length other than dim raises ValueError, and so
    does a float, which would be read as the nearest binary fraction,
    another vector, a string, which Fraction would parse, or None."""
    if len(v) != dim:
        raise ValueError(f"vector of length {len(v)} for a tensor on R^{dim}")
    if any(x is None or isinstance(x, (float, str)) for x in v):
        raise ValueError(f"float, string or None component in {list(v)!r}: vectors must be exact")
    return [Fraction(x) for x in v]


def alpha_N(n_tensor: PointTensor, xi: Sequence,
            pi_basis: Sequence[Sequence]) -> Dict:
    """Gram determinant of {N(xi, e_k)} over the given basis vectors.

    For a complex hyperplane transversal to xi this is the squared volume
    certificate: positive exactly when nu(xi) = 2.  The determinant is an
    exact rational; callers that want a volume take its square root.
    """
    xi = _as_fractions(xi, n_tensor.dim_in)
    basis = [_as_fractions(v, n_tensor.dim_in) for v in pi_basis]
    if linalg.in_span(xi, basis):
        raise ValueError("sample vector lies in the hyperplane")
    s = math.lcm(*(x.denominator for v in basis for x in v))
    return _gram_certificate(next(kernel_matrices(n_tensor, [xi])), s, [
        [x.numerator * (s // x.denominator) for x in v] for v in basis])


def appendix_tensor(n: int) -> PointTensor:
    """The dense tensor with complex components zbar_1 wbar_k - zbar_k wbar_1.

    First complex component zero, the rest the conjugate 2x2 minors against
    the first complex coordinate.  Nonzero whenever the arguments are
    complex independent and the first coordinate of the first argument is
    nonzero, so nu = 2 away from a complex hyperplane.  Its free data for
    j0 (linear_nijenhuis_from_free_data) are N(e_0, e_{2k}) = e_{2k} for
    k = 1..n-1, 0-based, and zero on the other pairs.
    """
    if n < 2:
        raise ValueError("need at least two complex dimensions")
    dim = 2 * n
    t = linear_nijenhuis_from_free_data(n, {(0, k): linalg.basis_vector(dim, 2 * k)
                                            for k in range(1, n)})
    j0 = PointTensor.from_matrix(standard_matrix(n))
    bad = linear_membership_violation(t, j0)
    if bad is not None:
        raise InternalInconsistencyError(
            f"conjugate-minor tensor fails antilinearity at {bad}")
    return t


def example3_tensor(n: int) -> Dict[str, PointTensor]:
    """Cyclic-difference tensor on R^n and its doubling on R^n (+) j R^n.

    A(xi, eta) has i-th component xi^i eta^{i+1} - xi^{i+1} eta^i with
    cyclic wraparound; the doubled tensor on the block structure
    j(xi (+) eta) = (-eta, xi) is [A(x1,x2) - A(y1,y2)] (+)
    [-A(x1,y2) - A(y1,x2)], whose free data for j
    (doubled_nijenhuis_from_free_data) are N(e_s, e_t) = A(e_s, e_t) (+) 0
    for s < t.  Returns A, N, and the block structure j.
    """
    if n < 2:
        raise ValueError("need at least two dimensions")

    def a_fn(idx):
        a, b = idx
        return [Fraction(int((a, b) == (i, (i + 1) % n)) - int((a, b) == ((i + 1) % n, i)))
                for i in range(n)]

    a_tensor = PointTensor.from_orbits(n, n, 2, alternating_rep, a_fn)
    zero = [Fraction(0)] * n
    n_tensor = doubled_nijenhuis_from_free_data(
        n, {(s, t): [*v, *zero] for (s, t), v in a_tensor.entries.items() if s < t})
    j_block = doubled_block_j(n)
    bad = linear_membership_violation(n_tensor, j_block)
    if bad is not None:
        raise InternalInconsistencyError(
            f"doubled cyclic tensor fails antilinearity at {bad}")
    return {"A": a_tensor, "N": n_tensor, "j": j_block}


def plucker_map() -> PointTensor:
    """Projected Grassmann coordinates as a skew map R^4 x R^4 -> R^4.

    Components (th12 - th34, th13 + th24, th14, th23) of the 2x2 minors;
    vanishes exactly on linearly dependent pairs.
    """
    def fn(idx):
        xi = linalg.basis_vector(4, idx[0])
        eta = linalg.basis_vector(4, idx[1])
        th = {}
        for r in range(4):
            for s in range(r + 1, 4):
                th[(r, s)] = xi[r] * eta[s] - xi[s] * eta[r]
        return [th[(0, 1)] - th[(2, 3)], th[(0, 2)] + th[(1, 3)],
                th[(0, 3)], th[(1, 2)]]

    return PointTensor.from_orbits(4, 4, 2, alternating_rep, fn)


@dataclass
class GenPosReport:
    verdict: str                      # general_position or degenerate, both exact
    samples_tested: int
    witness: Optional[Vector] = None
    degeneracy_witnesses: List[Vector] = field(default_factory=list)
    alpha_certificate: Optional[Fraction] = None


def _structure(j: Optional[PointTensor], dim: int) -> PointTensor:
    """j, the standard structure by default (built from its integer rows:
    e_2r -> e_2r+1, e_2r+1 -> -e_2r, as standard_matrix), refused unless it
    is a complex structure on R^dim; j^2 = -I is checked on the integer
    sum j o j + I."""
    if j is None:
        if dim % 2 != 0:
            raise ValueError("odd-dimensional space has no complex structure")
        return PointTensor.from_rows(dim, dim, 1, 1, {
            (c,): ((c + 1, 1),) if c % 2 == 0 else ((c - 1, -1),) for c in range(dim)})
    if (j.arity, j.dim_in, j.dim_out) != (1, dim, dim):
        raise StructureError(f"j must be a linear map of the tensor's R^{dim}, not an "
                             f"arity-{j.arity} map of R^{j.dim_in} to R^{j.dim_out}")
    if first_nonzero_sum(dim, dim, 1, [[(1, j, j, None, None),
                                        (1, None, identity_map(dim), None, None)]]) is not None:
        raise StructureError("j^2 != -I")
    return j


def _complex_complement(j: PointTensor, xi: Sequence) -> Tuple[int, List[List[int]]]:
    """Basis of a j-invariant complement of the complex line of xi, as
    integer vectors over s = j.den: s e_a, and j e_a read off j's rows.

    Greedy over the standard basis; adding e_a forces j e_a to be
    independent as well, so the result is an invariant hyperplane of
    dimension dim - 2 avoiding xi.
    """
    dim, s = j.dim_in, j.den
    j_xi = [0] * dim
    for a, x in enumerate(xi):
        for i, n in j.rows[(a,)]:
            j_xi[i] += x * n
    acc = linalg.Echelon([xi, j_xi])
    picked: List[List[int]] = []
    for a in range(dim):
        e_a = dense_row([(a, s)], dim)
        if acc.insert(e_a):
            j_e = dense_row(j.rows[(a,)], dim)
            acc.insert(j_e)
            picked.extend([e_a, j_e])
    if len(picked) != dim - 2:
        raise InternalInconsistencyError("invariant complement has wrong size")
    return s, picked


def _gram_certificate(k: PointTensor, s: int, basis: Sequence[Sequence[int]]) -> Dict:
    """alpha_N from k, the map eta -> N(xi, eta) as an arity-1 tensor, and
    basis vectors given as integers over s.  The images of those integers
    summed on k's rows are s * k.den times the images of the basis, so
    their integer Gram matrix is (s * k.den)^2 times the Gram matrix."""
    images = []
    for v in basis:
        u = [0] * k.dim_out
        for a, x in enumerate(v):
            if x:
                for i, n in k.rows[(a,)]:
                    u[i] += x * n
        images.append(u)
    gram = [[0] * len(images) for _ in images]
    for a, u in enumerate(images):
        nonzero = [(i, x) for i, x in enumerate(u) if x]
        for b in range(a, len(images)):
            gram[a][b] = gram[b][a] = sum(x * images[b][i] for i, x in nonzero)
    g = linalg.det(gram) / (s * k.den) ** (2 * len(gram))
    return {"positive": g > 0, "gram_det": g}


def _grid(n_tensor: PointTensor, j: PointTensor):
    """The nodes xi = b_1 + sum_k t_k b_k, t_k <= d_k, sum t_k <= n - 1, of
    general_position_test's grid, as ints: b_1 = e_0, and b_2..b_n are the
    e_a that the invariant complement of the complex line of e_0 picks.  A
    polynomial with monomials in this lower set vanishing at its nodes is
    zero (Dyn and Floater, J. Approx. Theory 177, 2014)."""
    dim = n_tensor.dim_in
    s, vectors = _complex_complement(j, dense_row([(0, 1)], dim))
    picks = [v.index(s) for v in vectors[0::2]]
    degrees = [min(len(picks), sum(1 for b in picks if n_tensor.rows[(a, b)]))
               for a in picks]
    for t in itertools.product(*(range(d + 1) for d in degrees)):
        if sum(t) <= len(picks):
            coords = {0: 1, **dict(zip(picks, t))}
            yield [coords.get(a, 0) for a in range(dim)]


def general_position_test(n_tensor: PointTensor, sample_count: int,
                          seed: int,
                          j: Optional[PointTensor] = None) -> GenPosReport:
    """Whether nu(xi) = 2 for some xi, exactly, with a witness when it is.

    First the seeded samples: a sample with nu = 2 decides general
    position.  With no witness among them, a grid decides exactly.  In the
    complex basis b_1 = e_0, b_2..b_n of _grid, at xi = sum_k z_k b_k,
    eta -> N(xi, eta) on span_C(b_2..b_n) is by antilinearity an
    n x (n-1) complex matrix with columns sum_k w_k N(b_k, b_l),
    w = conj(z).  The complex line of xi lies in the kernel, so at
    z_1 != 0, nu(xi) = 2 exactly when a maximal minor is nonzero.  w_k
    occurs only in the columns with N(b_k, b_l) != 0 (N(b_k, j b_l) =
    -j N(b_k, b_l) vanishes with it), so a minor has degree at most d_k in
    w_k, that count capped at n - 1, and, homogeneous of degree n - 1, at
    w_1 = 1 its monomials lie in the lower set A = {t : t_k <= d_k,
    sum t_k <= n - 1}.  A polynomial with monomials in A vanishing at the
    nodes of A is zero (interpolation on lower sets: Dyn and Floater, J.
    Approx. Theory 177, 2014; on the box prod_k {0..d_k}, the grid lemma of
    Schwartz 1980 and Alon 1999).  So the tensor is degenerate exactly
    when nu > 2 at every node b_1 + sum_k t_k b_k, t in A; else the first
    node with nu = 2 is the witness, the box's too (a minor vanishing on
    w_2 = 0..a-1 has the factor w_2 (w_2 - 1)..(w_2 - a + 1), so its first
    nonzero node in product order has sum t_k <= n - 1), and
    samples_tested counts the random samples only.  The points are ints.
    N and j are read once, by the antilinearity check, and kernel_matrices
    contracts N's reading with each point's numerators as the samples and
    the grid reach it: nu is the rank of the map's integer columns, the
    Gram certificate is summed on its rows over the complement's integer
    vectors, nu = 2 <=> positive certificate is rechecked at each point,
    the test stops at the first with nu = 2, and only the reported
    vectors and certificate become Fractions.

    j, the standard structure by default, must be a complex structure on
    the tensor's space, and the tensor antilinear for it; both are checked.
    The tensor is taken antisymmetric, as a Nijenhuis tensor is.
    """
    dim = n_tensor.dim_in
    j = _structure(j, dim)
    bad = linear_membership_violation(n_tensor, j)
    if bad is not None:
        raise StructureError(f"tensor fails antilinearity at {bad}")
    rng = random.Random(seed)
    degeneracy: List[Vector] = []

    def samples():
        while len(degeneracy) < sample_count:
            xi = [rng.randint(-3, 3) for _ in range(dim)]
            if any(xi):
                yield True, xi

    points, xis = itertools.tee(
        itertools.chain(samples(), ((False, xi) for xi in _grid(n_tensor, j))))
    for (sampled, xi), k in zip(points, kernel_matrices(n_tensor, (xi for _, xi in xis))):
        nu = dim - linalg.Echelon([dense_row(k.rows[(a,)], dim) for a in range(dim)]).rank
        cert = _gram_certificate(k, *_complex_complement(j, xi))
        if (nu == 2) != cert["positive"]:
            raise InternalInconsistencyError(
                f"kernel count and Gram certificate disagree at ({', '.join(map(str, xi))})")
        if nu == 2:
            return GenPosReport("general_position", len(degeneracy) + sampled,
                                _as_fractions(xi, dim), degeneracy, cert["gram_det"])
        if sampled:
            degeneracy.append(_as_fractions(xi, dim))
    return GenPosReport("degenerate", len(degeneracy), None, degeneracy)


def deformation_search(n_tensor: PointTensor, seed: int) -> Dict:
    """Deform toward the dense reference tensor until a member is certified.

    Tries epsilon = 1 first, then 1 - 1/k for k = 2, 3, ..., testing each
    member on 25 samples; the segment endpoint is the conjugate-minor
    tensor, so members close enough to it are in general position and the
    search terminates.
    """
    dim = n_tensor.dim_in
    reference = appendix_tensor(dim // 2)
    candidates = [Fraction(1)] + [1 - Fraction(1, k) for k in range(2, 65)]
    for eps in candidates:
        cand = n_tensor.scale(eps).add(reference.scale(1 - eps))
        report = general_position_test(cand, 25, seed)
        if report.verdict == "general_position":
            return {"epsilon": eps, "tensor": cand, "report": report}
    raise InternalInconsistencyError(
        "no member of the segment was certified; density fails")


@dataclass
class SubspaceDecomposition:
    pi_plus: List[Vector]
    pi_minus: List[Vector]
    k_plus: List[Vector]
    k_minus: List[Vector]
    kernel: List[Vector]          # K+ cap K-
    full_kernel: List[Vector]     # vectors annihilating N entirely


def annihilator(n_tensor: PointTensor,
                against: Sequence[Sequence]) -> List[Vector]:
    """Basis of {x : N(x, v) = 0 for every v in the given list}: the
    nullspace of the rows N(e_c, v)^comp, c = 0..dim-1, summed on N's
    integer rows and v's numerators (positive multiples of those rows)."""
    dim = n_tensor.dim_in
    if not against:
        return linalg.identity(dim)
    rows = []
    for v in against:
        v = _as_fractions(v, dim)
        s = math.lcm(*(x.denominator for x in v))
        block = [[0] * dim for _ in range(n_tensor.dim_out)]
        for k, x in enumerate(v):
            if x:
                x = x.numerator * (s // x.denominator)
                for c in range(dim):
                    for comp, n in n_tensor.rows[(c, k)]:
                        block[comp][c] += x * n
        rows.extend(block)
    return linalg.nullspace(rows)


def _require_antilinear_for_both(n_tensor: PointTensor, j1: PointTensor,
                                 j2: PointTensor) -> None:
    """Raise unless j1 and j2 are complex structures on the tensor's space
    and N is antilinear for both.  For j2 = +-j1 the second checks would
    repeat the first (j2^2 = j1^2; N(-j a, b) = -N(j a, b), -(-j) N = j N)."""
    repeated = j2 == j1 or j2 == j1.neg()
    for label, j in (("first", j1), ("second", j2))[:1 if repeated else 2]:
        _structure(j, n_tensor.dim_in)
        bad = linear_membership_violation(n_tensor, j)
        if bad is not None:
            raise StructureError(
                f"tensor fails antilinearity for the {label} structure at {bad}")


def two_structure_decomposition(n_tensor: PointTensor, j1: PointTensor,
                                j2: PointTensor) -> SubspaceDecomposition:
    """Subspaces cut out by a tensor antiinvariant for two structures.

    Pi+- are the agreement and anti-agreement spaces of the structures,
    K+- their annihilator conditions; the inclusions Pi+- within K+-,
    the covering V = K+ + K-, the identity K+ cap K- = Ker N(., Pi), and
    the containment of span Im N in Pi are all rechecked exactly.
    """
    dim = n_tensor.dim_in
    _require_antilinear_for_both(n_tensor, j1, j2)
    m1 = j1.to_matrix()
    m2 = j2.to_matrix()
    diff = [[m2[i][k] - m1[i][k] for k in range(dim)] for i in range(dim)]
    summ = [[m2[i][k] + m1[i][k] for k in range(dim)] for i in range(dim)]
    pi_plus = linalg.nullspace(diff)
    pi_minus = linalg.nullspace(summ)
    pi = linalg.sum_spans(pi_plus, pi_minus)

    in_pi = linalg.Echelon(pi)
    if not all(in_pi.contains(dense_row(row, dim)) for row in n_tensor.rows.values()):
        raise InternalInconsistencyError("span Im N escapes Pi")

    k_plus = annihilator(n_tensor, pi_minus)
    k_minus = annihilator(n_tensor, pi_plus)
    kernel = linalg.intersect_spans(k_plus, k_minus)
    # when one of Pi+- is empty (as with j2 = +-j1), Pi spans the other and
    # Ker N(., Pi) is K-+: rows of the same span, whose nullspace rref
    # makes canonical
    if not pi_plus or not pi_minus:
        against_pi = k_minus if pi_plus else k_plus
    else:
        against_pi = annihilator(n_tensor, pi)
    if not linalg.spans_equal(kernel, against_pi):
        raise InternalInconsistencyError("K+ cap K- differs from Ker N(., Pi)")
    for label, sub, space in (("Pi+ escapes K+", pi_plus, k_plus),
                              ("Pi- escapes K-", pi_minus, k_minus)):
        echelon = linalg.Echelon(space)
        if not all(echelon.contains(v) for v in sub):
            raise InternalInconsistencyError(label)
    if linalg.Echelon(k_plus + k_minus).rank != dim:
        raise InternalInconsistencyError("K+ + K- does not cover the space")

    # with j2 = +-j1, Pi is the whole space and its rref rows the identity
    full = against_pi if len(pi) == dim else annihilator(n_tensor, linalg.identity(dim))
    return SubspaceDecomposition(pi_plus, pi_minus, k_plus, k_minus,
                                 kernel, full)


def recover_sign(n_tensor: PointTensor, j1: PointTensor,
                 j2: PointTensor) -> int:
    """The sign making j1 = sign * j2, verified entrywise.

    Requires the tensor to be antiinvariant for both structures; for a
    general-position tensor one of the two signs must match, so anything
    else is reported as a failed hypothesis.
    """
    _require_antilinear_for_both(n_tensor, j1, j2)
    if j1 == j2:
        return 1
    if j1 == j2.neg():
        return -1
    raise StructureError(
        "structures differ by more than a sign; the tensor is not in "
        "general position")
