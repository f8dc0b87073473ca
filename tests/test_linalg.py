"""Exact linear algebra and the quadratic extension field."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nijcalc import linalg, quadext
from nijcalc.quadext import QuadExt, sqrt_exact

F = Fraction


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert linalg.rank(m) == 1
    assert linalg.rank(linalg.identity(3)) == 3


def test_nullspace_is_deterministic_and_correct():
    m = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    ns = linalg.nullspace(m)
    assert ns == [[F(-1), F(1), F(0)]]
    for v in ns:
        assert linalg.vec_is_zero(linalg.mat_vec(m, v))


def test_solve_branches():
    # full line: 0*x = 0
    sol = linalg.solve_affine([[F(0)]], [F(0)])
    assert sol is not None and sol[1] == [[F(1)]]
    # inconsistent
    assert linalg.solve([[F(1)], [F(1)]], [F(0), F(1)]) is None
    # unique
    assert linalg.solve([[F(2), F(0)], [F(0), F(4)]], [F(1), F(1)]) == [F(1, 2), F(1, 4)]


def test_det_and_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.det(m) == F(-2)
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_span_operations():
    e1 = [F(1), F(0), F(0)]
    e2 = [F(0), F(1), F(0)]
    e3 = [F(0), F(0), F(1)]
    d = [F(1), F(1), F(0)]
    assert linalg.span_dim([e1, e2, d]) == 2
    assert linalg.in_span(d, [e1, e2])
    assert not linalg.in_span(e3, [e1, e2])
    inter = linalg.intersect_spans([e1, e3], [e2, d])
    assert linalg.span_basis(inter) == linalg.span_basis([e1])
    assert linalg.spans_equal([e1, e2], [d, e1])


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5))
def test_nullspace_vectors_satisfy_system(rows):
    m = [[F(x) for x in row] for row in rows]
    for v in linalg.nullspace(m):
        assert linalg.vec_is_zero(linalg.mat_vec(m, v))
    assert linalg.rank(m) + len(linalg.nullspace(m)) == 4


def test_quadext_field_axioms():
    r2 = sqrt_exact(2)
    assert isinstance(r2, QuadExt)
    assert r2 * r2 == 2
    x = QuadExt(F(1, 2), F(-3), 2)
    y = QuadExt(2, F(1, 3), 2)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert 1 / r2 == r2 / 2


def test_quadext_exact_signs():
    r2 = sqrt_exact(2)
    # 3 - 2*sqrt(2) > 0 because 9 > 8
    assert (3 - 2 * r2).sign() == 1
    # 1 - sqrt(2) < 0
    assert (1 - r2).sign() == -1
    assert (r2 - r2).sign() == 0
    assert r2 > 1 and r2 < F(3, 2)


def test_quadext_arithmetic_does_not_revalidate_the_radicand(monkeypatch):
    x = QuadExt(F(1, 2), F(-3), 2)
    y = QuadExt(2, F(1, 3), 2)
    calls = []
    real = quadext._is_square
    monkeypatch.setattr(quadext, "_is_square",
                        lambda f: calls.append(f) or real(f))
    results = [x + y, x - y, x * y, x / y, -x, x.conjugate(),
               x + 1, 1 + x, x - F(1, 3), 2 - x, 3 * x, x * F(1, 2),
               x / 2, 1 / x, x < y, x >= 1]
    assert calls == []
    assert results[:4] == [QuadExt(F(5, 2), F(-8, 3), 2),
                           QuadExt(F(-3, 2), F(-10, 3), 2),
                           QuadExt(-1, F(-35, 6), 2),
                           (x * y.conjugate()) / F(34, 9)]
    assert results[5] == QuadExt(F(1, 2), 3, 2)
    assert all(r.d == 2 for r in results[:-2])


def test_quadext_constructor_validates_the_radicand():
    for d in (4, 0, -2, F(9, 4)):
        with pytest.raises(ValueError):
            QuadExt(1, 1, d)


def test_sqrt_exact_rational_cases():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(0) == 0
    with pytest.raises(ValueError):
        sqrt_exact(-1)


def test_elimination_over_quadext():
    # invariant-line style solve with irrational entries
    r5 = sqrt_exact(5)
    m = [[QuadExt(1, 0, 5), r5], [r5, QuadExt(5, 0, 5)]]
    assert linalg.rank(m) == 1
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    assert linalg.vec_is_zero(linalg.mat_vec(m, ns[0]))
