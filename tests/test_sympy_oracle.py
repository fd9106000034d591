"""A differential oracle that shares no arithmetic with the engine: sympy's
own Groebner bases over Q(i).

Polynomials cross between the two systems as text only: qp3's printed form
is read by sympy's parser, and each term of a sympy basis element is
written out (real and imaginary part of its coefficient, then its
monomial) and read by `parse_poly`.  Reduced bases are unique, so the two
sets of monic polynomials must agree."""

import pytest

sympy = pytest.importorskip("sympy")

from qp3.gaussian import gr  # noqa: E402
from qp3.groebner import buchberger  # noqa: E402
from qp3.line_scheme import component_catalog, line_scheme_ideal  # noqa: E402
from qp3.multipoly import parse_poly, print_poly  # noqa: E402
from qp3.point_scheme import zgamma_ideal  # noqa: E402

GAMMAS = [gr(1), gr(4), gr(3, 2)]
IDS = ["1", "4", "3+2i"]


def _to_sympy(f, names):
    local = {n: sympy.Symbol(n) for n in names}
    local["i"] = sympy.I
    return sympy.parse_expr(print_poly(f).replace("^", "**"), local_dict=local)


def _from_sympy(p, varset):
    def monomial(m):
        return "".join(f"*{n}^{e}" for n, e in zip(varset.names, m) if e)

    text = " + ".join(f"({sympy.re(c)} + ({sympy.im(c)})*i){monomial(m)}"
                      for m, c in p.terms())
    return parse_poly(text, varset)


def _assert_same_basis(I):
    names = I.varset.names
    gens = [_to_sympy(f, names) for f in I.generators]
    theirs = sympy.groebner(gens, *sympy.symbols(names), order="grevlex",
                            domain="QQ_I")
    mine = {print_poly(g) for g in buchberger(I)}
    assert {print_poly(_from_sympy(p, I.varset).monic()) for p in theirs.polys} == mine


@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_line_scheme_basis_matches_sympy(gamma):
    _assert_same_basis(line_scheme_ideal(gamma).ideal)


@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_rho_basis_matches_sympy(gamma):
    _assert_same_basis(zgamma_ideal(gamma))


@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_component_bases_match_sympy(gamma):
    for comp in component_catalog(gamma):
        _assert_same_basis(comp.ideal)
