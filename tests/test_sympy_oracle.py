"""A differential oracle that shares no arithmetic with the engine: sympy's
own Groebner bases over Q(i), and its own row reduction.

Polynomials cross between the two systems as text only: qp3's printed form
is read by sympy's parser, and each term of a sympy basis element is
written out (real and imaginary part of its coefficient, then its
monomial) and read by `parse_poly`.  Reduced bases are unique, so the two
sets of monic polynomials must agree."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qp3.gaussian import gr  # noqa: E402
from qp3.groebner import buchberger, normal_form  # noqa: E402
from qp3.line_scheme import (component_catalog, components_intersection,  # noqa: E402
                             line_scheme_ideal)
from qp3.multipoly import Polynomial, parse_poly, print_poly  # noqa: E402
from qp3.quadratic_algebra import M_VARS, make_A  # noqa: E402
from qp3.point_scheme import zgamma_ideal  # noqa: E402
from qp3.polylinalg import nullspace, row_echelon  # noqa: E402

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


def _random_quartic(rng):
    terms = {}
    for _ in range(rng.randint(3, 8)):
        e = [0] * len(M_VARS)
        for _ in range(4):
            e[rng.randrange(len(e))] += 1
        terms[tuple(e)] = gr(rng.randint(-5, 5), rng.randint(-5, 5))
    return Polynomial(M_VARS, terms)


@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_component_remainders_match_sympy(gamma):
    # the bases of the components hold coordinate variables, so their
    # one-term reducers take the monomial path of the engine's reduction;
    # a remainder modulo a Groebner basis is unique, so sympy's must agree
    rng = random.Random(211)
    names = M_VARS.names
    symbols = sympy.symbols(names)
    polys = list(line_scheme_ideal(gamma).polys)
    quartics = [q for q in (_random_quartic(rng) for _ in range(6)) if not q.is_zero()]
    monomial_reducers = nonzero = 0
    for comp in component_catalog(gamma):
        gb = buchberger(comp.ideal)
        monomial_reducers += sum(len(g.terms) == 1 for g in gb)
        theirs = sympy.groebner([_to_sympy(g, names) for g in comp.ideal.generators],
                                *symbols, order="grevlex", domain="QQ_I")
        for f in polys + quartics:
            _, rem = theirs.reduce(_to_sympy(f, names))
            expected = _from_sympy(sympy.Poly(rem, *symbols, domain="QQ_I"), M_VARS)
            mine = normal_form(f, gb)
            assert print_poly(mine) == print_poly(expected)
            nonzero += not mine.is_zero()
    assert monomial_reducers > 0 and nonzero > 0


def _sympy_intersection(I, J, t, symbols):
    # t*I + (1 - t)*J, t eliminated by a lex basis with t first
    gb = sympy.groebner([t * f for f in I] + [(1 - t) * g for g in J], t, *symbols,
                        order="lex", domain="QQ_I")
    return [p for p in gb.exprs if not p.has(t)]


@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_components_intersection_matches_sympy(gamma):
    # qp3 folds the intersection as a balanced tree, sympy as a chain
    # from the left; the reduced basis of the intersection is unique
    names = M_VARS.names
    symbols = sympy.symbols(names)
    t = sympy.Symbol("t")
    C = component_catalog(gamma)
    ideals = [[_to_sympy(g, names) for g in comp.ideal.generators] for comp in C]
    inter = ideals[0]
    for J in ideals[1:]:
        inter = _sympy_intersection(inter, J, t, symbols)
    theirs = sympy.groebner(inter, *symbols, order="grevlex", domain="QQ_I")
    mine = {print_poly(g) for g in buchberger(components_intersection(C))}
    assert {print_poly(_from_sympy(p, M_VARS).monic()) for p in theirs.polys} == mine


# Row reduction: qp3 reads a scalar matrix's rows as linear forms and takes
# their reduced Groebner basis; sympy eliminates on Matrix entries built
# from sympy.I.  Reduced echelon forms and the nullspace bases read off
# them are unique, so the two must agree entry by entry.

def _sympy_entry(c):
    return sympy.Rational(c.a, c.d) + sympy.Rational(c.b, c.d) * sympy.I


def _from_sympy_entry(x):
    x = sympy.expand(sympy.radsimp(x))
    re, im = sympy.re(x), sympy.im(x)
    return gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _assert_same_reduction(rows):
    theirs = sympy.Matrix([[_sympy_entry(c) for c in row] for row in rows])
    red, pivots = theirs.rref(iszerofunc=lambda x: sympy.expand(sympy.radsimp(x)) == 0,
                              simplify=True)
    echelon, mine = row_echelon(rows)
    assert mine == list(pivots)
    assert echelon == [[_from_sympy_entry(x) for x in red.row(k)]
                       for k in range(len(pivots))]
    kernel = theirs.nullspace(simplify=True)
    assert nullspace(rows) == [[_from_sympy_entry(x) for x in v] for v in kernel]


def _random_matrix(rng):
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 7)
    rows = [[gr(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
             if rng.random() < 0.7 else gr(0)
             for _ in range(n_cols)] for _ in range(n_rows)]
    if rng.random() < 0.4:
        rows[rng.randrange(n_rows)] = [gr(0)] * n_cols
    if rng.random() < 0.4:
        col = rng.randrange(n_cols)
        for row in rows:
            row[col] = gr(0)
    return rows


@pytest.mark.parametrize("seed", range(30))
def test_row_reduction_matches_sympy_on_random_matrices(seed):
    _assert_same_reduction(_random_matrix(random.Random(seed)))


@pytest.mark.parametrize("order", ["left", "right"])
@pytest.mark.parametrize("gamma", GAMMAS, ids=IDS)
def test_relation_row_reduction_matches_sympy(gamma, order):
    rels = make_A(gamma).relations
    if order == "left":
        rows = [[t[i][j] for i in range(4) for j in range(4)] for t in rels]
    else:
        rows = [[t[i][j] for j in range(4) for i in range(4)] for t in rels]
    _assert_same_reduction(rows)
