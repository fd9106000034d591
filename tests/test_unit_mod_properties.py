"""Property tests of the memoized unit and inverse answers, on the ideals
of acceptance criterion 10c: two generators in x, y, each of one to three
terms x^a y^b, a, b <= 2, with coefficients in [-3, 3] + [-3, 3] i.
They need hypothesis, which the `test` extra installs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qp3.gaussian import gr
from qp3.groebner import (Ideal, NotAUnitError, buchberger, invert_mod,
                          is_unit_mod, normal_form)
from qp3.multipoly import Polynomial, VarSet

VS = VarSet(["x", "y"])

coefficients = st.builds(gr, st.integers(-3, 3), st.integers(-3, 3))
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monomials, coefficients, min_size=1, max_size=3).map(
    lambda terms: Polynomial(VS, terms))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(polys, min_size=2, max_size=2), polys)
def test_memoized_unit_answer_and_inverse(gens, u):
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    I = Ideal(gens)
    plain = buchberger(Ideal(gens + [u])).contains_one()
    assert is_unit_mod(u, I) == is_unit_mod.__wrapped__(u, I) == plain
    G = buchberger(I)
    try:
        v = invert_mod(u, G)
    except NotAUnitError:
        return
    assert normal_form(u * v - Polynomial.constant(VS, 1), G).is_zero()
