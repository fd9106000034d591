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
from qp3.groebner import (Ideal, buchberger, eliminate, intersect,  # noqa: E402
                          normal_form)
from qp3.fixtures import load_fixtures, table_polys  # noqa: E402
from qp3.line_scheme import component_catalog, line_scheme_ideal  # noqa: E402
from qp3.multipoly import (DEGREVLEX, MonomialOrder, Polynomial,  # noqa: E402
                           VarSet, parse_poly, print_poly)
from qp3.quadratic_algebra import M_VARS, XY_VARS, make_A  # noqa: E402
from qp3.point_scheme import zgamma_ideal  # noqa: E402
from qp3.polylinalg import nullspace, row_echelon  # noqa: E402
from oracles import components_intersection, saturate  # noqa: E402

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
    # qp3 folds the intersection psi1 partners first (L2 with L3, L4 with
    # L5, L6a with L6b, and L1a with L1b at gamma = 4), sympy as a chain
    # from the left; the reduced basis of the intersection is unique, and
    # the table of the intersection at gamma, which the verify reads, has it too
    names = M_VARS.names
    symbols = sympy.symbols(names)
    t = sympy.Symbol("t")
    C = component_catalog(gamma)
    ideals = [[_to_sympy(g, names) for g in comp.ideal.generators] for comp in C]
    inter = ideals[0]
    for J in ideals[1:]:
        inter = _sympy_intersection(inter, J, t, symbols)
    theirs = sympy.groebner(inter, *symbols, order="grevlex", domain="QQ_I")
    expected = {print_poly(_from_sympy(p, M_VARS).monic()) for p in theirs.polys}
    assert {print_poly(g) for g in buchberger(components_intersection(C))} == expected
    table = table_polys(load_fixtures().components_intersection, gamma)
    assert {print_poly(g) for g in buchberger(Ideal(table))} == expected


# The "append t, eliminate t" step on small random ideals: `intersect`,
# `saturate` and `eliminate` against sympy's lex basis of the same
# construction, the eliminated variables first.  The reduced DEGREVLEX
# bases of the two results are unique, so they must agree.

T = sympy.Symbol("t_oracle")


def _random_ideal(rng, vs, order=DEGREVLEX, size=None):
    gens = []
    while not gens:
        for _ in range(size or rng.randint(1, 2)):
            terms = {tuple(rng.randint(0, 2) for _ in vs.names):
                     gr(rng.randint(-3, 3), rng.randint(-2, 2))
                     for _ in range(rng.randint(1, 3))}
            p = Polynomial(vs, terms, order)
            if not p.is_zero():
                gens.append(p)
    return Ideal(gens, order)


def _eliminated(exprs, first, rest):
    # the elements free of `first` of the lex basis with `first` ahead
    gb = sympy.groebner(exprs, *first, *rest, order="lex", domain="QQ_I")
    return [p for p in gb.exprs if not p.has(*first)]


def _assert_same_ideal(mine, theirs):
    vs = mine.varset
    expected = set()
    if theirs:
        gb = sympy.groebner(theirs, *sympy.symbols(vs.names), order="grevlex",
                            domain="QQ_I")
        expected = {print_poly(_from_sympy(p, vs).monic()) for p in gb.polys}
    assert {print_poly(g) for g in buchberger(mine.with_order(DEGREVLEX))} == expected


def _sympy_intersect(I, J):
    names = I.varset.names
    return _eliminated([T * _to_sympy(f, names) for f in I.generators]
                       + [(1 - T) * _to_sympy(g, names) for g in J.generators],
                       [T], sympy.symbols(names))


@pytest.mark.parametrize("names", [("x", "y", "z"), ("x", "t_int", "y")],
                         ids=["xyz", "holds-t_int"])
def test_intersect_matches_sympy_on_random_ideals(names):
    # a VarSet that already holds t_int makes the lift pick another name
    rng = random.Random(401)
    vs = VarSet(names)
    for _ in range(8):
        I, J = _random_ideal(rng, vs), _random_ideal(rng, vs)
        inter = intersect(I, J)
        assert inter == intersect(J, I)
        _assert_same_ideal(inter, _sympy_intersect(I, J))


def test_intersect_with_the_unit_ideal_and_itself_matches_sympy():
    rng = random.Random(409)
    vs = VarSet(["x", "y"])
    one = Ideal([Polynomial.constant(vs, 1)])
    for _ in range(6):
        I = _random_ideal(rng, vs)
        basis = buchberger(I).basis
        for J in (one, I):
            assert intersect(I, J).generators == intersect(J, I).generators == basis
            _assert_same_ideal(intersect(I, J), _sympy_intersect(I, J))
    assert [print_poly(g) for g in intersect(one, one).generators] == ["1"]


def test_saturate_and_eliminate_match_sympy_on_random_ideals():
    # kept variables in front, in the back and around a dropped one
    rng = random.Random(419)
    names = ("x", "y", "z")
    vs = VarSet(names)
    proper = 0
    for _ in range(8):
        I = _random_ideal(rng, vs)
        gens = [_to_sympy(g, names) for g in I.generators]
        f = _random_ideal(rng, vs).generators[0]
        _assert_same_ideal(saturate(I, f), _eliminated(
            gens + [1 - T * _to_sympy(f, names)], [T], sympy.symbols(names)))
        K = _random_ideal(rng, vs, size=2)
        for keep in (["x", "y"], ["y", "z"], ["x", "z"], ["z"]):
            drop = [n for n in names if n not in keep]
            E = eliminate(K, keep)
            proper += [print_poly(g) for g in E.generators] not in ([], ["1"])
            _assert_same_ideal(E, _eliminated([_to_sympy(g, names) for g in K.generators],
                                              sympy.symbols(drop), sympy.symbols(keep)))
    assert proper >= 12


def test_elimination_of_lex_ordered_ideals_matches_sympy():
    # a lex input is repacked into DEGREVLEX before t is appended, and the
    # result comes back in lex
    rng = random.Random(421)
    lex = MonomialOrder.lex()
    names = ("x", "y", "z")
    vs = VarSet(names)
    for _ in range(6):
        I, J = _random_ideal(rng, vs, lex), _random_ideal(rng, vs, lex)
        f = _random_ideal(rng, vs, lex).generators[0]
        inter, sat = intersect(I, J), saturate(I, f)
        for result in (inter, sat):
            assert result.order == lex
            assert all(g.order == lex for g in result.generators)
        _assert_same_ideal(inter, _sympy_intersect(I, J))
        _assert_same_ideal(sat, _eliminated(
            [_to_sympy(g, names) for g in I.generators] + [1 - T * _to_sympy(f, names)],
            [T], sympy.symbols(names)))


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
    # the word x_a x_b at 4a + b ("left") or at 4b + a ("right")
    pairs = [(a, b) if order == "left" else (b, a)
             for a in range(1, 5) for b in range(1, 5)]
    words = [parse_poly(f"x{a}*y{b}", XY_VARS).leading_monomial() for a, b in pairs]
    rows = [[f.terms.get(w, gr(0)) for w in words] for f in make_A(gamma).relations]
    _assert_same_reduction(rows)
