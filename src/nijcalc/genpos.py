"""General-position machinery for antiinvariant two-forms.

Counts nu(xi) = dim ker N(xi, .) exactly, certifies verdicts with Gram
determinants over a transversal invariant hyperplane, provides the two
explicit dense tensors (the conjugate-minor tensor and the cyclic-difference
doubling) plus the projected Grassmann map, searches for general-position
deformations along a segment, and computes the two-structure subspace
decomposition with its inclusions verified.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, poly
from .invariants import InternalInconsistencyError
from .structures import (StructureError, doubled_block_j,
                         linear_membership_violation, standard_matrix)
from .tensor import PointTensor, alternating_rep, kernel_dim

Vector = List[Fraction]


def _as_fractions(v: Sequence) -> Vector:
    """v as Fractions.  A float raises ValueError: it would be read as the
    nearest binary fraction, another vector."""
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
    xi = _as_fractions(xi)
    basis = [_as_fractions(v) for v in pi_basis]
    if linalg.in_span(xi, basis):
        raise ValueError("sample vector lies in the hyperplane")
    images = [n_tensor.apply([xi, v]) for v in basis]
    supports = [[(i, x) for i, x in enumerate(u) if x] for u in images]
    gram = [[Fraction(0)] * len(images) for _ in images]
    for a, u in enumerate(supports):
        for b in range(a, len(images)):
            gram[a][b] = gram[b][a] = sum((x * images[b][i] for i, x in u), Fraction(0))
    g = linalg.det(gram) if gram else Fraction(1)
    return {"positive": g > 0, "gram_det": g}


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
        out = [Fraction(0)] * n
        for i in range(n):
            ip = (i + 1) % n
            coeff = Fraction(0)
            if a == i and b == ip:
                coeff += 1
            if a == ip and b == i:
                coeff -= 1
            out[i] = coeff
        return out

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
    verdict: str                      # general_position, degenerate, inconclusive
    samples_tested: int
    witness: Optional[Vector] = None
    degeneracy_witnesses: List[Vector] = field(default_factory=list)
    alpha_certificate: Optional[Fraction] = None


def _standard_j_matrix(dim: int) -> List[List[Fraction]]:
    if dim % 2 != 0:
        raise ValueError("odd-dimensional space has no complex structure")
    return standard_matrix(dim // 2)


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


def _poly_det(m: List[List[poly.Poly]], num_vars: int) -> poly.Poly:
    """Determinant of a polynomial matrix by minor expansion with memo."""
    size = len(m)
    memo: Dict[Tuple[int, Tuple[int, ...]], poly.Poly] = {}

    def minor(row: int, cols: Tuple[int, ...]) -> poly.Poly:
        if row == size:
            return poly.const(1, num_vars)
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = poly.zero()
        for pos, c in enumerate(cols):
            if poly.is_zero(m[row][c]):
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = poly.mul(m[row][c], minor(row + 1, rest))
            acc = poly.add(acc, term) if pos % 2 == 0 else poly.sub(acc, term)
        memo[key] = acc
        return acc

    return minor(0, tuple(range(size)))


def _symbolic_alpha_vanishes(n_tensor: PointTensor,
                             jm: Sequence[Sequence]) -> bool:
    """Whether the Gram certificate vanishes identically in the sample vector.

    Uses the invariant complement of the first complex line as the fixed
    hyperplane; identical vanishing there means nu > 2 off a measure-zero
    set, which settles degeneracy.
    """
    dim = n_tensor.dim_in
    basis = _complex_complement(jm, linalg.basis_vector(dim, 0))
    # the columns sum_a x_a N(e_a, v), v in the basis, and their Gram
    # matrix, by the uncut jet kernels, which skip the many zero entries
    h = [poly.var(a + 1, dim) for a in range(dim)]
    columns = [poly.jet_apply_columns([[poly.const(c, dim) for c in n_tensor.apply(
        [linalg.basis_vector(dim, a), v])] for a in range(dim)], [h], math.inf)[0]
        for v in basis]
    gram = poly.jet_apply_columns([[u[i] for u in columns] for i in range(dim)],
                                  columns, math.inf)
    return poly.is_zero(_poly_det(gram, dim))


def general_position_test(n_tensor: PointTensor, sample_count: int,
                          seed: int,
                          j: Optional[PointTensor] = None) -> GenPosReport:
    """Sampled nu counting with exact certificates, deterministic by seed.

    A sample with nu = 2 decides general position (its positive Gram
    certificate over a transversal invariant hyperplane is a rational
    function of the sample, so one interior point forces the behavior
    almost everywhere).  With no witness, the certificate computed
    symbolically in the sample vector decides identical degeneracy; only
    an unlucky sample set on a nondegenerate tensor stays inconclusive.
    The nu = 2 <=> positive-certificate equivalence is rechecked on every
    sample.
    """
    dim = n_tensor.dim_in
    jm = _standard_j_matrix(dim) if j is None else j.to_matrix()
    bad = linear_membership_violation(n_tensor, PointTensor.from_matrix(jm))
    if bad is not None:
        raise StructureError(f"tensor fails antilinearity at {bad}")
    rng = random.Random(seed)
    tested = 0
    witness = None
    certificate = None
    degeneracy: List[Vector] = []
    while tested < sample_count:
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if linalg.vec_is_zero(xi):
            continue
        tested += 1
        nu = kernel_dim(n_tensor, xi)
        cert = alpha_N(n_tensor, xi, _complex_complement(jm, xi))
        if (nu == 2) != cert["positive"]:
            raise InternalInconsistencyError(
                "kernel count and Gram certificate disagree at a sample")
        if nu == 2:
            witness = xi
            certificate = cert["gram_det"]
            break
        degeneracy.append(xi)
    if witness is not None:
        return GenPosReport("general_position", tested, witness,
                            degeneracy, certificate)
    if _symbolic_alpha_vanishes(n_tensor, jm):
        return GenPosReport("degenerate", tested, None, degeneracy)
    return GenPosReport("inconclusive", tested, None, degeneracy)


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
        support = [(k, x) for k, x in enumerate(_as_fractions(v)) if x]
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


def two_structure_decomposition(n_tensor: PointTensor, j1: PointTensor,
                                j2: PointTensor) -> SubspaceDecomposition:
    """Subspaces cut out by a tensor antiinvariant for two structures.

    Pi+- are the agreement and anti-agreement spaces of the structures,
    K+- their annihilator conditions; the inclusions Pi+- within K+-,
    the covering V = K+ + K-, the identity K+ cap K- = Ker N(., Pi), and
    the containment of span Im N in Pi are all rechecked exactly.
    """
    dim = n_tensor.dim_in
    for label, j in (("first", j1), ("second", j2)):
        bad = linear_membership_violation(n_tensor, j)
        if bad is not None:
            raise StructureError(
                f"tensor fails antilinearity for the {label} structure at {bad}")
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
    for label, j in (("first", j1), ("second", j2)):
        bad = linear_membership_violation(n_tensor, j)
        if bad is not None:
            raise StructureError(
                f"tensor fails antilinearity for the {label} structure at {bad}")
    if j1 == j2:
        return 1
    if j1 == j2.neg():
        return -1
    raise StructureError(
        "structures differ by more than a sign; the tensor is not in "
        "general position")
