"""Measure flip and shift behavior plus exact frame values on chosen seeds."""
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

from nijcalc import poly
from nijcalc.classify import tanaka_forms, utxi_invariant
from nijcalc.quadext import QuadExt
from nijcalc.structures import from_anticommuting_part

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


def fmt(v):
    out = []
    for c in v:
        if isinstance(c, QuadExt):
            out.append(f"QE({c.a},{c.b};{c.d})")
        else:
            out.append(str(c))
    return "(" + ", ".join(out) + ")"


def collinear(u, v):
    iu = next((i for i, c in enumerate(u) if c != 0), None)
    iv = next((i for i, c in enumerate(v) if c != 0), None)
    if iu != iv or iu is None:
        return False
    r = u[iu] / v[iv]
    return all(a == r * b for a, b in zip(u, v))


def neg(v):
    return [-1 * c for c in v]


def run(seed, pt):
    j = family_structure(seed)
    fr = utxi_invariant(j, pt)
    print(f"--- seed {seed} @ {pt} (disc {fr.field_discriminant}) ---")
    print("  structure cols:")
    for k, col in enumerate(j.cols):
        print(f"    J e{k+1} = [{', '.join(poly.format_poly(p) for p in col)}]")
    for name in ("xi1", "xi2", "xi3", "xi4"):
        print(f"  {name} = {fmt(getattr(fr, name))}")
    print(f"  plane = {fr.plane}")
    print(f"  t_orientation = {fr.t_orientation}")

    flip = utxi_invariant(j, pt, xi3_choice=neg(list(fr.xi3)))
    print(f"  flip: u1'~u2 {collinear(list(flip.u1), list(fr.u2))}, "
          f"u2'~u1 {collinear(list(flip.u2), list(fr.u1))}, "
          f"t_orient {flip.t_orientation}, xi3' == -xi3 "
          f"{all(a == -1 * b for a, b in zip(flip.xi3, fr.xi3))}")

    b1, b2 = [list(v) for v in fr.plane]
    shifted = [c + 1 * a - 2 * b for c, a, b in zip(fr.xi3, b1, b2)]
    sh = utxi_invariant(j, pt, xi3_choice=shifted)
    print(f"  shift: u1 same {list(sh.u1) == list(fr.u1)}, "
          f"u2 same {list(sh.u2) == list(fr.u2)}, "
          f"xi4 same {list(sh.xi4) == list(fr.xi4)}, t_orient {sh.t_orientation}")

    try:
        tf = tanaka_forms(j, pt)
        print(f"  omega2 = {fmt([tf.omega2])}, omega1 = {fmt(list(tf.omega1))}")
        tff = tanaka_forms(j, pt, xi3_choice=neg(list(fr.xi3)))
        print(f"  flipped omega2 = {fmt([tff.omega2])}, omega1 = {fmt(list(tff.omega1))}")
        tfs = tanaka_forms(j, pt, xi3_choice=shifted)
        print(f"  shifted omega2 = {fmt([tfs.omega2])}, omega1 = {fmt(list(tfs.omega1))}")
    except Exception as e:
        print(f"  tanaka: {type(e).__name__}: {e}")


run(9, [0, 0, 1, 0])
run(5, [0, 1, 0, 0])
run(19, [0, 0, 0, 0])
run(0, [1, 0, 1, -1])
