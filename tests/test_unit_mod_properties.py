"""Property tests of the memoized unit and inverse answers, on the ideals
of acceptance criterion 10c: two generators in x, y, each of one to three
terms x^a y^b, a, b <= 2, with coefficients in [-3, 3] + [-3, 3] i, and of
the unit answer for a monomial, read off its variables.
They need hypothesis, which the `test` extra installs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qp3.gaussian import gr
from qp3.groebner import (GroebnerLimits, Ideal, NotAUnitError, _buchberger,
                          buchberger, invert_mod, is_unit_mod, limits_scope,
                          normal_form)
from qp3.multipoly import Polynomial, ResourceLimitError, VarSet

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


# a nonzero scalar times a monomial, the constants and lone variables among them
monomial_polys = st.builds(lambda m, c: Polynomial(VS, {m: c}), monomials,
                           coefficients.filter(bool))


def _answer(run):
    try:
        return run()
    except ResourceLimitError:
        return None


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(polys, min_size=2, max_size=2), monomial_polys, st.integers(1, 6))
def test_monomial_unit_answer_is_the_prefix_run(gens, u, max_basis):
    # is_unit_mod answers a monomial from its variables, a constant at once;
    # the full run of G + [u] with G a finished prefix agrees, and under a
    # narrow basis bound so does every answer that both give
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    I = Ideal(gens)

    def prefix_run():
        G = buchberger(I)
        return _buchberger(Ideal(list(G.basis) + [u], I.order), len(G)).contains_one()

    assert is_unit_mod(u, I) == prefix_run()
    with limits_scope(GroebnerLimits(max_basis=max_basis)):
        rule, full = _answer(lambda: is_unit_mod(u, I)), _answer(prefix_run)
    assert None in (rule, full) or rule == full
