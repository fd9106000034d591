"""Property test of the integer rows shipped in components.json: each
table, specialised by `multipoly.from_rows` at a drawn gamma or kept over
Q(i)[g], is its text oracle parsed there, and the psi1 partners that the
rows' signed permutation derives are the `substitute` images.  It needs
hypothesis, which the `test` extra installs."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qp3.fixtures import _PSI1_PERM, load_fixtures, table_polys
from qp3.gaussian import gr
from qp3.multipoly import parse_poly
from qp3.quadratic_algebra import M_VARS, with_g

import table_texts
from oracles import psi1_on_pluecker

# small heights, the gammas where the catalog or rho splits, and the ends
# of the range
small = st.builds(gr, st.fractions(-9, 9, max_denominator=9),
                  st.fractions(-9, 9, max_denominator=9)).filter(bool)
gammas = st.one_of(st.sampled_from([
    None, gr(2), gr(-2), gr(4), gr(-4), gr(0, 2), gr(0, -2), gr(2 ** 4000),
    gr(Fraction(1, 2 ** 4000)), gr(Fraction(1, 2 ** 100))]), small)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(gammas)
def test_the_rows_at_gamma_are_the_texts_parsed_there(gamma):
    fx, vs = load_fixtures(), with_g(M_VARS, gamma)
    for table, texts in ((fx.line_scheme, table_texts.LINE_SCHEME),
                         (fx.components_intersection, table_texts.COMPONENTS_INTERSECTION),
                         *((fx.component_generators[n], table_texts.COMPONENTS[n])
                           for n in table_texts.COMPONENTS)):
        built = table_polys(table, gamma)
        assert built == [parse_poly(t, vs, gamma=gamma) for t in texts]
        assert table_polys(table, gamma, _PSI1_PERM) == list(map(psi1_on_pluecker, built))
