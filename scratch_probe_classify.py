"""Probe: drive classify over the fixture family; measure values to freeze."""
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

from nijcalc import linalg, poly
from nijcalc.classify import (HypothesisError, derived_distribution,
                              lie_check, pi2, tanaka_forms, utxi_invariant)
from nijcalc.quadext import QuadExt
from nijcalc.structures import (example_structure, from_anticommuting_part,
                                standard_structure)

F = Fraction


def sparse_poly(rng, dim):
    kind = rng.randrange(3)
    if kind == 0:
        return poly.const(rng.choice([-1, 1]), dim)
    term = poly.scale(poly.var(rng.randrange(1, dim + 1), dim), rng.choice([-1, 1]))
    if kind == 1:
        return term
    return poly.add(poly.const(rng.choice([-1, 1]), dim), term)


def family_structure(seed):
    rng = random.Random(seed)
    dim = 4
    c = sparse_poly(rng, dim)
    v1 = sparse_poly(rng, dim)
    v2 = sparse_poly(rng, dim)
    v = [v1, v2, poly.neg(poly.mul(c, v1)), poly.neg(poly.mul(c, v2))]
    col0 = [poly.mul(c, comp) for comp in v]
    col1 = list(v)
    return from_anticommuting_part([col0, col1], name=f"fam{seed}")


CAND_POINTS = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
               [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, -1]]


def fmt(v):
    out = []
    for c in v:
        if isinstance(c, QuadExt):
            out.append(f"({c.a}+{c.b}r{c.d})")
        else:
            out.append(str(c))
    return "[" + ", ".join(out) + "]"


def collinear(u, v):
    iu = next((i for i, c in enumerate(u) if c != 0), None)
    iv = next((i for i, c in enumerate(v) if c != 0), None)
    if iu != iv or iu is None:
        return False
    r = u[iu] / v[iv]
    return all(a == r * b for a, b in zip(u, v))


print("=== frame runs ===")
report = []
for seed in range(60):
    j = family_structure(seed)
    sq = j.square_plus_identity()
    if any(not poly.is_zero(e) for row in sq for e in row):
        continue
    for pt in CAND_POINTS:
        try:
            fr = utxi_invariant(j, pt)
        except (HypothesisError, Exception) as e:
            continue
        disc = fr.field_discriminant
        try:
            tf = tanaka_forms(j, pt)
            tan = (tf.omega2, tf.omega1)
        except HypothesisError as e:
            tan = f"hyp-fail({e.stage})"
        report.append((seed, tuple(pt), disc, tan))
        break
    if len(report) >= 12:
        break

for seed, pt, disc, tan in report:
    print(f"seed={seed} pt={pt} disc={disc} tanaka={tan}")
