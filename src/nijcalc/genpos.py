"""General-position machinery for antiinvariant two-forms.

Counts nu(xi) = dim ker N(xi, .) exactly and certifies it with a Gram
determinant over a transversal invariant hyperplane, both from one matrix
per point; decides general position exactly, by samples and then a grid
that the grid lemma sizes (Schwartz 1980; Alon 1999); provides the two
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
from typing import Dict, List, Optional, Sequence

from . import linalg
from .invariants import InternalInconsistencyError
from .structures import (StructureError, doubled_block_j,
                         linear_membership_violation, standard_matrix)
from .tensor import (PointTensor, alternating_rep, identity_map, kernel_matrix,
                     post_compose)

Vector = List[Fraction]


def _as_fractions(v: Sequence, dim: int) -> Vector:
    """v as Fractions.  A length other than dim raises ValueError, and so
    does a float: it would be read as the nearest binary fraction, another
    vector."""
    if len(v) != dim:
        raise ValueError(f"vector of length {len(v)} for a tensor on R^{dim}")
    if any(isinstance(x, float) for x in v):
        raise ValueError(f"float component in {list(v)!r}: vectors must be exact")
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
    return _gram_certificate(kernel_matrix(n_tensor, xi), basis)


def appendix_tensor(n: int) -> PointTensor:
    """The dense tensor with complex components zbar_1 wbar_k - zbar_k wbar_1.

    First complex component zero, the rest the conjugate 2x2 minors against
    the first complex coordinate.  Nonzero whenever the arguments are
    complex independent and the first coordinate of the first argument is
    nonzero, so nu = 2 away from a complex hyperplane.
    """
    if n < 2:
        raise ValueError("need at least two complex dimensions")
    dim = 2 * n

    def conj_slot(u, k):
        # complex slot k, 1-based: (re, -im)
        return (u[2 * k - 2], -u[2 * k - 1])

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def fn(idx):
        u = linalg.basis_vector(dim, idx[0])
        v = linalg.basis_vector(dim, idx[1])
        out = [Fraction(0)] * dim
        for k in range(2, n + 1):
            first = cmul(conj_slot(u, 1), conj_slot(v, k))
            second = cmul(conj_slot(u, k), conj_slot(v, 1))
            out[2 * k - 2] = first[0] - second[0]
            out[2 * k - 1] = first[1] - second[1]
        return out

    t = PointTensor.from_orbits(dim, dim, 2, alternating_rep, fn)
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
    [-A(x1,y2) - A(y1,x2)].  Returns A, N, and the block structure j.
    """
    if n < 2:
        raise ValueError("need at least two dimensions")

    def a_fn(idx):
        a, b = idx
        return [Fraction(int((a, b) == (i, (i + 1) % n)) - int((a, b) == ((i + 1) % n, i)))
                for i in range(n)]

    a_tensor = PointTensor.from_orbits(n, n, 2, alternating_rep, a_fn)
    dim = 2 * n

    def split(v):
        return v[:n], v[n:]

    def n_fn(idx):
        x1, y1 = split(linalg.basis_vector(dim, idx[0]))
        x2, y2 = split(linalg.basis_vector(dim, idx[1]))
        first = [p - q for p, q in zip(a_tensor.apply([x1, x2]),
                                       a_tensor.apply([y1, y2]))]
        second = [-p - q for p, q in zip(a_tensor.apply([x1, y2]),
                                         a_tensor.apply([y1, x2]))]
        return first + second

    n_tensor = PointTensor.from_orbits(dim, dim, 2, alternating_rep, n_fn)
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


def _structure_matrix(j: Optional[PointTensor], dim: int) -> List[List[Fraction]]:
    """The matrix of j, the standard structure by default, refused unless it
    is a complex structure on R^dim."""
    if j is None:
        if dim % 2 != 0:
            raise ValueError("odd-dimensional space has no complex structure")
        return standard_matrix(dim // 2)
    if (j.arity, j.dim_in, j.dim_out) != (1, dim, dim):
        raise StructureError(f"j must be a linear map of the tensor's R^{dim}, not an "
                             f"arity-{j.arity} map of R^{j.dim_in} to R^{j.dim_out}")
    if not post_compose(j, j).add(identity_map(dim)).is_zero():
        raise StructureError("j^2 != -I")
    return j.to_matrix()


def _complex_complement(jm: Sequence[Sequence], xi: Vector) -> List[Vector]:
    """Basis of a j-invariant complement of the complex line of xi.

    Greedy over the standard basis; adding e_a forces j e_a to be
    independent as well, so the result is an invariant hyperplane of
    dimension dim - 2 avoiding xi.
    """
    dim = len(jm)
    acc = linalg.Echelon([xi, linalg.mat_vec(jm, xi)])
    picked: List[Vector] = []
    for a in range(dim):
        e_a = linalg.basis_vector(dim, a)
        if not acc.insert(e_a):
            continue
        j_e = [row[a] for row in jm]
        acc.insert(j_e)
        picked.extend([e_a, j_e])
    if len(picked) != dim - 2:
        raise InternalInconsistencyError("invariant complement has wrong size")
    return picked


def _gram_certificate(m: Sequence[Sequence], basis: Sequence[Vector]) -> Dict:
    """alpha_N from the matrix m of eta -> N(xi, eta).  With s the common
    denominator of m and the basis, the images of the integer numerators
    are s^2 m v, so their integer Gram matrix is s^4 times the Gram matrix."""
    s = math.lcm(*(x.denominator for row in (*m, *basis) for x in row))
    rows = [[x.numerator * (s // x.denominator) for x in row] for row in m]
    supports = [[(k, x.numerator * (s // x.denominator)) for k, x in enumerate(v) if x]
                for v in basis]
    images = [[sum(row[k] * x for k, x in support) for row in rows] for support in supports]
    gram = [[0] * len(images) for _ in images]
    for a, u in enumerate(images):
        nonzero = [(i, x) for i, x in enumerate(u) if x]
        for b in range(a, len(images)):
            gram[a][b] = gram[b][a] = sum(x * images[b][i] for i, x in nonzero)
    g = Fraction(linalg.det(gram)) / s ** (4 * len(gram))
    return {"positive": g > 0, "gram_det": g}


def _grid(n_tensor: PointTensor, jm: Sequence[Sequence]):
    """The points xi = b_1 + sum_k t_k b_k, t_k in {0..d_k}, of
    general_position_test's grid: b_1 = e_0, and b_2..b_n are the e_a that
    the invariant complement of the complex line of e_0 picks."""
    dim = n_tensor.dim_in
    picks = [v.index(1) for v in _complex_complement(jm, linalg.basis_vector(dim, 0))[0::2]]
    degrees = [min(len(picks), sum(1 for b in picks if any(n_tensor.entries[(a, b)])))
               for a in picks]
    for t in itertools.product(*(range(d + 1) for d in degrees)):
        coords = {0: 1, **dict(zip(picks, t))}
        yield [Fraction(coords.get(a, 0)) for a in range(dim)]


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
    w_k, that count capped at n - 1.  By the grid lemma (Schwartz, J. ACM
    27, 1980; Alon, "Combinatorial Nullstellensatz", 1999) a polynomial of
    degree at most d_k in each w_k vanishing on prod_k {0..d_k} is zero,
    and a homogeneous minor vanishes identically if it does at w_1 = 1.
    So the tensor is degenerate exactly when nu > 2 at every grid point
    b_1 + sum_k t_k b_k; else the first grid point with nu = 2 is the
    witness, and samples_tested counts the random samples only.  nu and
    the Gram certificate come from one matrix of eta -> N(xi, eta) per
    point, and nu = 2 <=> positive certificate is rechecked at each.

    j, the standard structure by default, must be a complex structure on
    the tensor's space, and the tensor antilinear for it; both are checked.
    The tensor is taken antisymmetric, as a Nijenhuis tensor is.
    """
    dim = n_tensor.dim_in
    jm = _structure_matrix(j, dim)
    bad = linear_membership_violation(n_tensor, PointTensor.from_matrix(jm))
    if bad is not None:
        raise StructureError(f"tensor fails antilinearity at {bad}")
    rng = random.Random(seed)
    degeneracy: List[Vector] = []

    def samples():
        while len(degeneracy) < sample_count:
            xi = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            if not linalg.vec_is_zero(xi):
                yield True, xi

    for sampled, xi in itertools.chain(samples(), ((False, xi) for xi in _grid(n_tensor, jm))):
        m = kernel_matrix(n_tensor, xi)
        nu = dim - linalg.rank(m)
        cert = _gram_certificate(m, _complex_complement(jm, xi))
        if (nu == 2) != cert["positive"]:
            raise InternalInconsistencyError(
                f"kernel count and Gram certificate disagree at ({', '.join(map(str, xi))})")
        if nu == 2:
            return GenPosReport("general_position", len(degeneracy) + sampled, xi,
                                degeneracy, cert["gram_det"])
        if sampled:
            degeneracy.append(xi)
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
    """Basis of {x : N(x, v) = 0 for every v in the given list}."""
    dim = n_tensor.dim_in
    if not against:
        return linalg.identity(dim)
    entries = n_tensor.entries
    rows = []
    for v in against:
        # row comp holds the components N(e_c, v)^comp, c = 0..dim-1
        support = [(k, x) for k, x in enumerate(_as_fractions(v, dim)) if x]
        if len(support) == 1 and support[0][1] == 1:
            k = support[0][0]
            rows.extend([entries[(c, k)][comp] for c in range(dim)]
                        for comp in range(n_tensor.dim_out))
            continue
        for comp in range(n_tensor.dim_out):
            row = [Fraction(0)] * dim
            for k, x in support:
                for c in range(dim):
                    value = entries[(c, k)][comp]
                    if value:
                        row[c] += x * value
            rows.append(row)
    return linalg.nullspace(rows)


def _require_antilinear_for_both(n_tensor: PointTensor, j1: PointTensor,
                                 j2: PointTensor) -> None:
    """Raise unless N is antilinear for j1 and j2.  For j2 = +-j1 the second
    check would repeat the first (N(-j a, b) = -N(j a, b), -(-j) N = j N)."""
    repeated = j2 == j1 or j2 == j1.neg()
    for label, j in (("first", j1), ("second", j2))[:1 if repeated else 2]:
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
    if not all(in_pi.contains(v) for v in n_tensor.entries.values()):
        raise InternalInconsistencyError("span Im N escapes Pi")

    k_plus = annihilator(n_tensor, pi_minus)
    k_minus = annihilator(n_tensor, pi_plus)
    kernel = linalg.intersect_spans(k_plus, k_minus)
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
