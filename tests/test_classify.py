"""Bracket identity reports of the bundled examples, frozen."""

from fractions import Fraction

import pytest

from nijcalc.classify import bracket_identity_report
from nijcalc.structures import example_structure

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
