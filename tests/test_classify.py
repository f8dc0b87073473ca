"""classify outputs, frozen: bracket identity reports, the adapted frame,
the Tanaka forms and the Lie verdict on the probe family and the bundled
examples.

The frame, Tanaka and Lie outputs are compared with classify_frozen.txt,
one line per case: the case key, a tab, and the canonical text of the
output.  The canonical text tags every scalar with its type (a plain
rational, a Q(sqrt d) element or a machine integer), so a value that turns
from QuadExt into Fraction, or from Fraction into int, fails as well as a
changed value.  The file holds the outputs of the global-field
implementation that preceded the jet-at-point one, except the sweeps of
the PROBE_MEMBERS that FAMILY and FLIP_CASES do not already cover, which
were appended later from the jet-at-point implementation.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nijcalc import classify, invariants, linalg, poly
from nijcalc.classify import (HypothesisError, bracket_identity_report,
                              derived_distribution, lie_check, pi2,
                              tanaka_forms, utxi_invariant)
from nijcalc.genpos import alpha_N, annihilator, appendix_tensor
from nijcalc.invariants import (InternalInconsistencyError, nijenhuis_tensor,
                                torsion_jets)
from nijcalc.jets import JetSymbol, TruncatedMap
from nijcalc.quadext import QuadExt
from nijcalc.structures import (StructureError, StructureField, example_structure,
                                from_anticommuting_part, random_structure,
                                validate)
from nijcalc.tensor import identity_map
from reference import lie_bracket, nijenhuis_field_by_lie_brackets, tensor_with_entry

NOT_LIE = {"jj_algebraic_zero": True, "jj_fn_is_twice_torsion": True,
           "nn_algebraic_zero": False, "nn_fn_zero": True, "jn_fn_zero": True}
LIE = dict(NOT_LIE, nn_algebraic_zero=True)


@pytest.mark.parametrize("name, kwargs, want", [
    ("ex2", {}, NOT_LIE),
    ("ex5", {"eps": Fraction(-1, 3)}, NOT_LIE),
    ("ex6", {"f_text": "x5 + x5^2"}, LIE),
])
def test_bracket_identity_report_on_examples(name, kwargs, want):
    assert bracket_identity_report(example_structure(name, **kwargs)) == want


# ---------------------------------------------------------------------------
# the probe family: J = j0 + A, A e1 = c v, A e3 = v, v = (v1, v2, -c v1, -c v2)
# ---------------------------------------------------------------------------

def _sparse_poly(rng, dim):
    kind = rng.randrange(3)
    if kind == 0:
        return poly.const(rng.choice([-1, 1]), dim)
    term = poly.scale(poly.var(rng.randrange(1, dim + 1), dim), rng.choice([-1, 1]))
    if kind == 1:
        return term
    return poly.add(poly.const(rng.choice([-1, 1]), dim), term)


def family_structure(seed):
    rng = random.Random(seed)
    c = _sparse_poly(rng, 4)
    v1 = _sparse_poly(rng, 4)
    v2 = _sparse_poly(rng, 4)
    v = [v1, v2, poly.neg(poly.mul(c, v1)), poly.neg(poly.mul(c, v2))]
    return from_anticommuting_part([[poly.mul(c, x) for x in v], list(v)],
                                   name=f"fam{seed}")


CAND_POINTS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
               (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, -1)]
# members of every verdict class: flat torsion (1, 22), derived failures
# (4, 16 and most points of 9), second-derived failures (0, 12) and full
# Tanaka runs (9, 16)
FAMILY = (9, 0, 1, 16, 4, 12, 22)
# (seed, point) pairs with a frame, for the xi3_choice flip and shift cases
FLIP_CASES = ((9, (0, 0, 1, 0)), (5, (0, 1, 0, 0)), (19, (0, 0, 0, 0)),
              (0, (1, 0, 1, -1)))
# the first twelve members, by seed, with a frame at some candidate point,
# each at the first such point; every one has its sweep frozen
PROBE_MEMBERS = ((0, (1, 0, 1, -1)), (5, (0, 1, 0, 0)), (7, (0, 0, 0, 0)),
                 (9, (0, 0, 1, 0)), (10, (0, 0, 0, 0)), (11, (1, 0, 1, -1)),
                 (12, (0, 0, 1, 0)), (13, (0, 0, 1, 0)), (16, (1, 0, 1, -1)),
                 (17, (0, 0, 0, 0)), (19, (0, 0, 0, 0)), (20, (0, 0, 0, 0)))
EXAMPLES = (("ex2", {}), ("ex5", {"eps": Fraction(-1, 3)}),
            ("ex6", {"f_text": "x5 + x5^2"}))


def canon(x) -> str:
    if isinstance(x, QuadExt):
        return f"Q({x.a},{x.b},{x.d})"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return f"i{x}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(x.items())) + "}"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + "(" + ",".join(
            f"{f.name}={canon(getattr(x, f.name))}"
            for f in dataclasses.fields(x)) + ")"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _sweep(seed, pt):
    """The frame, then the Tanaka forms; a HypothesisError is the verdict."""
    j = family_structure(seed)
    try:
        frame = utxi_invariant(j, pt)
    except HypothesisError as err:
        return f"hypothesis {err.stage}"
    try:
        return canon(tanaka_forms(j, pt))
    except HypothesisError as err:
        return f"frame {canon(frame)} stops at {err.stage}"


def _xi3_choices(seed, pt):
    """The canonical xi3, its negative, and a shift by plane vectors."""
    fr = utxi_invariant(family_structure(seed), pt)
    b1, b2 = fr.plane
    return {"canonical": None,
            "flip": [-1 * c for c in fr.xi3],
            "shift": [c + 1 * a - 2 * b for c, a, b in zip(fr.xi3, b1, b2)]}


def _chosen(op, seed, pt, choice):
    j = family_structure(seed)
    xi3 = _xi3_choices(seed, pt)[choice]
    try:
        return canon(op(j, pt, xi3_choice=xi3))
    except HypothesisError as err:
        return f"hypothesis {err.stage}"


def _lie(name):
    j = example_structure(name, **dict(EXAMPLES)[name])
    return canon(lie_check(j, [list(p) + [0] * (j.dim - 4) for p in CAND_POINTS]))


def _key(*parts):
    return " ".join(",".join(map(str, p)) if isinstance(p, tuple) else str(p)
                    for p in parts)


CASES = {}
for _seed in FAMILY:
    for _pt in CAND_POINTS:
        CASES[_key("sweep", _seed, _pt)] = (_sweep, _seed, _pt)
for _seed, _pt in FLIP_CASES:
    for _choice in ("canonical", "flip", "shift"):
        CASES[_key("frame", _seed, _pt, _choice)] = (
            _chosen, utxi_invariant, _seed, _pt, _choice)
        CASES[_key("tanaka", _seed, _pt, _choice)] = (
            _chosen, tanaka_forms, _seed, _pt, _choice)
for _name, _ in EXAMPLES:
    CASES[_key("lie_check", _name)] = (_lie, _name)
for _seed, _pt in PROBE_MEMBERS:
    CASES.setdefault(_key("sweep", _seed, _pt), (_sweep, _seed, _pt))

FROZEN_FILE = Path(__file__).with_name("classify_frozen.txt")


def _frozen():
    lines = FROZEN_FILE.read_text().splitlines()
    return dict(line.split("\t") for line in lines if line)


def test_frozen_file_covers_every_case():
    assert sorted(_frozen()) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_frozen_outputs(key):
    fn, *args = CASES[key]
    assert fn(*args) == _frozen()[key]


def test_frozen_verdict_classes():
    """The frozen cases reach every HypothesisError stage and both kinds
    of scalar field, so the comparison covers each branch."""
    text = "\n".join(_frozen().values())
    for verdict in ("hypothesis torsion", "hypothesis derived",
                    "stops at second_derived", "hypothesis second_derived"):
        assert verdict in text
    assert "TanakaForms(omega2=Q(" in text
    assert "TanakaForms(omega2=-3/2" in text
    assert "LieReport(is_lie=True" in text and "LieReport(is_lie=False" in text


def _has_frame(j, pt):
    try:
        utxi_invariant(j, pt)
    except HypothesisError:
        return False
    return True


def test_probe_members_are_the_first_with_a_frame():
    found = []
    for seed in itertools.count():
        j = family_structure(seed)
        assert validate(j).status == "exact"
        pt = next((pt for pt in CAND_POINTS if _has_frame(j, pt)), None)
        if pt is not None:
            found.append((seed, pt))
        if len(found) == len(PROBE_MEMBERS):
            break
    assert tuple(found) == PROBE_MEMBERS


def _collinear(u, v):
    """u = r v for a nonzero r, with the leading entries in the same slot."""
    iu = next((i for i, c in enumerate(u) if c != 0), None)
    iv = next((i for i, c in enumerate(v) if c != 0), None)
    if iu is None or iu != iv:
        return False
    r = u[iu] / v[iv]
    return all(a == r * b for a, b in zip(u, v))


@pytest.mark.parametrize("seed, pt", FLIP_CASES)
def test_xi3_flip_swaps_the_lines_and_a_plane_shift_keeps_them(seed, pt):
    """Choosing -xi3 interchanges U1 and U2 and flips the half-space sign;
    shifting xi3 by plane vectors changes neither the lines nor xi4."""
    j = family_structure(seed)
    fr = utxi_invariant(j, pt)
    choices = _xi3_choices(seed, pt)
    flip = utxi_invariant(j, pt, xi3_choice=choices["flip"])
    assert _collinear(flip.u1, fr.u2) and _collinear(flip.u2, fr.u1)
    assert (fr.t_orientation, flip.t_orientation) == (1, -1)
    assert flip.xi3 == tuple(-1 * c for c in fr.xi3)
    shift = utxi_invariant(j, pt, xi3_choice=choices["shift"])
    assert (shift.u1, shift.u2, shift.xi4, shift.t_orientation) == \
        (fr.u1, fr.u2, fr.xi4, fr.t_orientation)


@pytest.mark.parametrize("entry, error", [
    ("TruncatedMap x", StructureError),
    ("TruncatedMap y", StructureError),
    ("alpha_N", ValueError),
    ("annihilator", ValueError),
    ("xi3_choice", StructureError),
])
def test_float_vectors_are_refused(entry, error):
    """A float would be read as the nearest binary fraction, so (0.1, 0)
    would name another point and alpha_N would certify another vector,
    a string would be parsed as a number and None would fail inside
    Fraction: the base points of a truncated map, the vectors of alpha_N
    and annihilator, and an xi3 choice refuse all three, naming the
    value.  A QuadExt xi3 choice still passes."""
    one = (JetSymbol(1, identity_map(2)),)
    # entry -> (call on a bad component, the float it is tested with)
    calls = {
        "TruncatedMap x": (lambda x: TruncatedMap((x, 0), (0, 0), one), 0.1),
        "TruncatedMap y": (lambda x: TruncatedMap((0, 0), (0, x), one), 0.0),
        "alpha_N": (lambda x: alpha_N(appendix_tensor(2), [x, 0, 1, 0],
                                      [[0, 0, 1, 0], [0, 0, 0, 1]]), 0.1),
        "annihilator": (lambda x: annihilator(appendix_tensor(2), [[x, 0, 0, 0]]), 1.0),
        "xi3_choice": (lambda x: utxi_invariant(family_structure(9), (0, 0, 1, 0),
                                                xi3_choice=[x, 0, Fraction(-4, 3), 0]), 1.0),
    }
    call, x = calls[entry]
    with pytest.raises(error, match="float"):
        call(x)
    with pytest.raises(error, match="string.*'1'"):
        call("1")
    with pytest.raises(error, match=r"None .*None"):
        call(None)
    if entry == "xi3_choice":
        seed, pt = FLIP_CASES[-1]
        choice = _xi3_choices(seed, pt)["flip"]
        assert any(isinstance(c, QuadExt) for c in choice)
        assert utxi_invariant(family_structure(seed), pt, xi3_choice=choice).t_orientation == -1


def test_lie_check_reports_at_the_first_sample_point():
    """The image and annihilator bases come from the first sample point
    even when a later point has a different torsion (ex5 vanishes at 0)."""
    j = example_structure("ex5", eps=Fraction(-1, 3))
    first = [0, 1, 0, 0]
    rep = lie_check(j, [first, [0, 0, 0, 0]])
    n_at = nijenhuis_tensor(j, first)
    image = linalg.span_basis([n_at.entries[(a, b)] for a in range(4)
                               for b in range(a + 1, 4)])
    assert rep.pi_basis == tuple(tuple(v) for v in image) != ()
    assert len(rep.annihilator_basis) < 4
    assert lie_check(j, [[0, 0, 0, 0], first]).pi_basis == ()


def _lie_cases():
    """The family members and the bundled examples, each with the
    candidate points padded to its dimension."""
    js = [family_structure(seed) for seed in FAMILY]
    js += [example_structure(name, **kwargs) for name, kwargs in EXAMPLES]
    return [pytest.param(j, [list(p) + [0] * (j.dim - 4) for p in CAND_POINTS], id=j.name)
            for j in js]


@pytest.mark.parametrize("j, points", _lie_cases())
def test_lie_check_reads_each_point_off_the_global_torsion(monkeypatch, j, points):
    """lie_check computes no torsion jet at its sample points: it shifts
    the global torsion form there, and both routes still check the
    torsion at every point, which equals nijenhuis_tensor's."""
    seen, orders, other_route = [], [], []
    real_from_jets, real_torsion_jets = classify.torsion_from_jets, invariants.torsion_jets
    real_other = invariants._torsion_first_differential

    def counted_torsion_jets(jet, order):
        orders.append(order)
        return real_torsion_jets(jet, order)

    monkeypatch.setattr(classify, "torsion_from_jets",
                        lambda jet, n_jets: seen.append(real_from_jets(jet, n_jets)) or seen[-1])
    monkeypatch.setattr(invariants, "torsion_jets", counted_torsion_jets)
    monkeypatch.setattr(invariants, "_torsion_first_differential",
                        lambda jet: other_route.append(1) or real_other(jet))
    lie_check(j, points)
    assert orders == [math.inf]  # the global form, once
    assert len(other_route) == len(points)
    monkeypatch.undo()
    assert seen == [nijenhuis_tensor(j, pt) for pt in points]


def test_lie_check_still_cross_checks_the_torsion_routes():
    """J e1 = e2 + x2 e3, J e2 = -e1, J e3 = e4, J e4 = -e3 has J^2 != -I
    off x2 = 0, where the first-differential route no longer computes the
    bracket route's torsion: lie_check raises rather than answer."""
    v2, one, z = poly.var(2, 4), poly.const(1, 4), poly.zero()
    j = StructureField([[z, one, v2, z], [poly.neg(one), z, z, z],
                        [z, z, z, one], [z, z, poly.neg(one), z]], name="not_a_structure")
    with pytest.raises(InternalInconsistencyError, match="torsion routes disagree"):
        lie_check(j, [[0, 1, 0, 0]])


@pytest.mark.parametrize("op, name, kwargs", [
    (op, name, kwargs) for op in ("nijenhuis_tensor", "utxi_invariant", "lie_check")
    for name, kwargs in EXAMPLES if op != "utxi_invariant" or name != "ex6"])
def test_a_point_of_the_wrong_length_is_refused(op, name, kwargs):
    """StructureField.jet names both lengths before any shift is tried;
    lie_check builds its jets before it evaluates anything at its points.
    (utxi_invariant refuses 6D ex6 for its dimension first.)"""
    call = {"nijenhuis_tensor": nijenhuis_tensor, "utxi_invariant": utxi_invariant,
            "lie_check": lambda j, pt: lie_check(j, [[0] * j.dim, pt])}[op]
    j = example_structure(name, **kwargs)
    for pt in ([0, 0, 0], [0] * (j.dim + 1)):
        with pytest.raises(StructureError, match=f"point has {len(pt)} coordinates, "
                                                 f"expected {j.dim}"):
            call(j, pt)


# ---------------------------------------------------------------------------
# the frame inside tanaka_forms: one jet, the same frame, N still checked
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", [utxi_invariant, tanaka_forms])
def test_frame_cross_checks_the_torsion_routes(monkeypatch, op):
    """The frame reads N through the two-route check, so a disagreement
    between the routes still raises inside utxi_invariant and
    tanaka_forms."""
    true_route = invariants._torsion_first_differential

    def broken(jet):
        return tensor_with_entry(true_route(jet), (1, 3), lambda v: [v[0] + 1] + v[1:])

    monkeypatch.setattr(invariants, "_torsion_first_differential", broken)
    with pytest.raises(InternalInconsistencyError, match=r"\(1, 3\)"):
        op(family_structure(9), (0, 0, 1, 0))


def test_tanaka_forms_builds_one_jet_of_j_and_of_the_torsion(monkeypatch):
    calls = []
    real_jet, real_torsion_jets = StructureField.jet, invariants.torsion_jets

    def counted_jet(self, point, order):
        calls.append(("jet", order))
        return real_jet(self, point, order)

    def counted_torsion_jets(jet, order):
        calls.append(("torsion_jets", order))
        return real_torsion_jets(jet, order)

    monkeypatch.setattr(StructureField, "jet", counted_jet)
    monkeypatch.setattr(invariants, "torsion_jets", counted_torsion_jets)
    monkeypatch.setattr(classify, "torsion_jets", counted_torsion_jets)
    forms = tanaka_forms(family_structure(9), (0, 0, 1, 0))
    assert forms.omega2 == Fraction(-3, 2)
    assert calls == [("jet", 3), ("torsion_jets", 2)]


def test_tanaka_forms_computes_each_bracket_once_and_level_two_as_read(monkeypatch):
    """The 15 brackets of the six torsion generators are computed once, at
    order 1, and the frame reads their values: no order-0 bracket of two
    generators.  Level two, the [g_i, h_ab](p), is computed one row at a
    time as the flag and the bracket scalars read it: fewer than its 90
    brackets at a fam9 Tanaka point, all 90 where the flag stops short."""
    calls = []
    real = poly.jet_brackets
    monkeypatch.setattr(poly, "jet_brackets", lambda fields, pairs, order: (
        calls.append((len(fields), list(pairs), order)) or real(fields, pairs, order)))
    gen_pairs = list(itertools.combinations(range(6), 2))
    everything = sorted((i, 6 + p) for i in range(6) for p in range(15))

    def level_two():
        pairs = [pair for _, ps, order in calls if order == 0 for pair in ps]
        assert all(k >= 6 for _, k in pairs)  # [g_i, h_ab], never [g_a, g_b]
        return pairs

    assert tanaka_forms(family_structure(9), (0, 0, 1, 0)).omega2 == Fraction(-3, 2)
    assert [(n, ps, order) for n, ps, order in calls if order == 1] == [(6, gen_pairs, 1)]
    assert 0 < len(level_two()) < 90
    calls.clear()
    with pytest.raises(HypothesisError) as err:
        tanaka_forms(family_structure(12), (0, 0, 1, 0))
    assert err.value.stage == "second_derived"
    assert [(n, ps, order) for n, ps, order in calls if order == 1] == [(6, gen_pairs, 1)]
    assert sorted(level_two()) == everything


@pytest.mark.parametrize("seed", FAMILY)
def test_tanaka_frame_is_the_frame(seed):
    """tanaka_forms builds its frame from the 3-jet; it equals
    utxi_invariant's, element types included, and where the frame fails
    both raise at the same stage."""
    j = family_structure(seed)
    for pt in CAND_POINTS:
        try:
            want = canon(utxi_invariant(j, pt))
        except HypothesisError as err:
            with pytest.raises(HypothesisError) as got:
                tanaka_forms(j, pt)
            assert got.value.stage == err.stage, pt
            continue
        try:
            assert canon(tanaka_forms(j, pt).frame) == want, pt
        except HypothesisError as err:
            assert err.stage == "second_derived", pt


# ---------------------------------------------------------------------------
# the jet routes against the global polynomial fields they replace
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
points4 = st.lists(rationals, min_size=4, max_size=4)
# family members and random structures in dimension 4
structures4 = st.one_of(
    st.sampled_from(FAMILY + (5, 19)).map(family_structure),
    st.integers(0, 10**6).map(lambda seed: random_structure(2, seed)))


def _global_generators(j):
    """All six torsion fields N(e_a, e_b), a < b, zero ones included."""
    nf = nijenhuis_field_by_lie_brackets(j)
    return [nf.entries[(a, b)] for a in range(4) for b in range(a + 1, 4)]


@settings(max_examples=25, deadline=None)
@given(structures4, points4)
def test_plane_and_derived_fiber_from_jets(j, pt):
    assert nijenhuis_tensor(j, pt) == nijenhuis_field_by_lie_brackets(j).at_point(pt)
    gens = list(torsion_jets(j.jet(pt, 2), 1).values())
    try:
        plane = pi2(j, pt)
    except HypothesisError as err:
        assert err.stage == "torsion"
        assert linalg.span_basis(classify._values(gens)) == []
        return
    assert linalg.span_basis(classify._values(gens)) == [list(v) for v in plane.fiber]
    want = derived_distribution(plane, pt).fiber
    brackets = poly.jet_brackets(gens, classify._pairs(len(gens)), 0)
    assert classify._derived_fiber(gens, brackets) == [list(v) for v in want]


@settings(max_examples=4, deadline=None)
@given(structures4, points4)
def test_second_level_from_jets(j, pt):
    """Level one and every row of level two at the point, bracket by
    bracket, against the evaluated global brackets, so the second derived
    fiber tanaka_forms spans from them is the span of the evaluated
    level-2 brackets."""
    g = _global_generators(j)
    level1 = g + [lie_bracket(g[i], g[k], 4)
                  for i in range(6) for k in range(6) if i != k]
    level1_vals = [poly.vec_eval(f, pt) for f in level1]
    top = [[poly.vec_eval(lie_bracket(gi, f, 4), pt) for f in level1]
           for gi in g]
    gens = list(torsion_jets(j.jet(pt, 3), 2).values())
    half = poly.jet_brackets(gens, classify._pairs(len(gens)), 1)
    got_level1, got_top = classify._second_level(gens, half)
    assert got_level1 == level1_vals
    assert [got_top(i) for i in range(6)] == top
