import random
import threading
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations
from math import gcd

import pytest

from qp3.gaussian import GaussianRational, gr
from qp3.multipoly import (DEGREVLEX, ExponentOverflowError, MonomialOrder,
                           Polynomial, VarSet, VarSetMismatchError, parse_poly,
                           print_poly)
from qp3 import cli, groebner, multipoly
from qp3.groebner import (GroebnerLimits, Ideal, NonHomogeneousError,
                          NotAUnitError, ResourceLimitError, buchberger,
                          eliminate, hilbert_dimension_degree, hilbert_numerator,
                          intersect, invert_mod, is_unit_mod, limits_scope,
                          normal_form, quotient_dimension, radical_member)
from qp3.quadratic_algebra import CHART_VARS, M_VARS, X_VARS, make_A
from qp3.point_scheme import (chart_ideal, point_ideal, rho_system, verify_rho_derivation,
                              zgamma_ideal)
from qp3.line_scheme import (LINE_SCHEME_NUMERATOR, component_catalog,
                             line_scheme_ideal, verify_decomposition)
from oracles import (components_intersection, nf_two_pass,
                     radical_member_rabinowitsch, saturate, spoly_two_pass,
                     staircase_counts)
from printed import parse_point_polys


def test_single_monic_generator():
    G = buchberger(Ideal([Polynomial.variable(X_VARS, "x1")]))
    assert [print_poly(p) for p in G] == ["x1"]


def test_line_slice_contains_named_member():
    # cutting the line scheme with M24 = 0 forces M13 to vanish on the
    # M14 M23 != 0 stratum: the named quartic lies in the slice ideal
    L = line_scheme_ideal(gr(1))
    slice_ideal = Ideal(list(L.ideal.generators)
                        + [Polynomial.variable(M_VARS, "M24")])
    G = buchberger(slice_ideal)
    assert normal_form(parse_poly("M13^2*M14*M23", M_VARS), G).is_zero()


def test_case_two_exactly_three_products():
    f = parse_poly("M12^3 - M12*M23^2 - i*M23*M24^2", M_VARS)
    gens = [Polynomial.variable(M_VARS, v) * f for v in ("M12", "M23", "M24")]
    lin = [Polynomial.variable(M_VARS, v) for v in ("M13", "M14", "M34")]
    G = buchberger(Ideal(gens + lin))
    nonlinear = {print_poly(p) for p in G if p.degree() > 1}
    expected = {print_poly((Polynomial.variable(M_VARS, v) * f).monic())
                for v in ("M12", "M23", "M24")}
    assert nonlinear == expected
    assert {print_poly(p) for p in G if p.degree() == 1} == {"M13", "M14", "M34"}


def test_normal_form_of_generator_is_zero():
    I = Ideal([parse_poly("x1^2 - x2", X_VARS), parse_poly("x3*x4", X_VARS)])
    G = buchberger(I)
    for g in I.generators:
        assert normal_form(g, G).is_zero()


def test_first_fixture_in_point_ideal():
    G = buchberger(point_ideal(make_A(gr(1))))
    assert normal_form(parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS), G).is_zero()


def test_unit_ideal_normal_form():
    I = Ideal([parse_poly("x1", X_VARS), parse_poly("x1 - 1", X_VARS)])
    G = buchberger(I)
    assert normal_form(Polynomial.constant(X_VARS, 1), G).is_zero()


def test_normal_form_idempotent():
    I = Ideal([parse_poly("x1^2 - x2", X_VARS), parse_poly("x2^2 - x3", X_VARS)])
    G = buchberger(I)
    f = parse_poly("x1^5 + x1*x2 + x4", X_VARS)
    r = normal_form(f, G)
    assert normal_form(r, G) == r


def test_ideal_member_examples():
    G = buchberger(point_ideal(make_A(gr(1))))
    assert normal_form(parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS), G).is_zero()
    assert not normal_form(Polynomial.variable(X_VARS, "x1"), G).is_zero()
    assert normal_form(Polynomial.zero(X_VARS), G).is_zero()


def test_ideal_member_order_independent():
    PI = point_ideal(make_A(gr(1)))
    G_drl = buchberger(PI)
    G_lex = buchberger(PI.with_order(MonomialOrder.lex()))
    fx = parse_point_polys(gr(1))
    probes = fx + [Polynomial.variable(X_VARS, "x1"),
                   parse_poly("x1*x2 - x3*x4", X_VARS)]
    for f in probes:
        lex_f = f.with_order(MonomialOrder.lex())
        assert normal_form(f, G_drl).is_zero() == normal_form(lex_f, G_lex).is_zero()


def _no_rabinowitsch(*args):
    raise AssertionError("Rabinowitsch run inside radical_member")


@pytest.mark.parametrize("gamma", [gr(1), gr(4), gr(Fraction(3, 2), 1)])
def test_line_scheme_saturation_identity(gamma):
    # L^sat = I, the intersection of the component ideals: every component
    # is a complete intersection, four generators in codimension four, L
    # lies in I, and m*I lies in L, m the ideal of the M_ij.  Four of the
    # fourteen generators of I lie in L and the other ten only times m
    L = line_scheme_ideal(gamma)
    C = component_catalog(gamma)
    assert all(len(c.ideal.generators) == 4
               and hilbert_dimension_degree(c.ideal)[0] == 1 for c in C)
    assert all(normal_form(p, buchberger(c.ideal)).is_zero()
               for c in C for p in L.polys)
    gb = buchberger(L.ideal)
    inter = components_intersection(C).generators
    assert (sum(normal_form(f, gb).is_zero() for f in inter), len(inter)) == (4, 14)
    assert all(normal_form(Polynomial.variable(M_VARS, n) * f, gb).is_zero()
               for f in inter for n in M_VARS.names)
    assert verify_decomposition(gamma).intersection_in_radical


@pytest.mark.parametrize("gamma", [gr(1), gr(-4), gr(Fraction(3, 2), 1)],
                         ids=["1", "-4", "3/2+i"])
def test_intersection_tree_matches_chained_fold(gamma):
    # components_intersection folds psi1 partners first, from the end of
    # the catalog; the chain from the left is the same ideal, so the
    # reduced bases agree
    C = component_catalog(gamma)
    chained = reduce(intersect, [comp.ideal for comp in C])
    assert ([print_poly(g) for g in buchberger(components_intersection(C))]
            == [print_poly(g) for g in buchberger(chained)])


def test_radical_member_examples(monkeypatch):
    monkeypatch.setattr(groebner, "_rabinowitsch", _no_rabinowitsch)
    vs = VarSet(["x", "y"])
    x, y = parse_poly("x", vs), parse_poly("y", vs)
    # a member of any ideal, by its normal form
    assert radical_member(x * y, Ideal([y]))
    assert radical_member(Polynomial.zero(vs), Ideal([y]))
    # nilpotent modulo a zero-dimensional ideal, or not
    assert radical_member(x, Ideal([parse_poly("x^2", vs), y]))
    assert radical_member(x + y, Ideal([parse_poly("x^3", vs), y * y]))
    assert not radical_member(x, Ideal([parse_poly("x^2 - x", vs), y]))
    assert not radical_member(x, Ideal([parse_poly("x - 1", vs), y]))
    # x^5 is in <x^5, y> and x^4 is not: squaring runs to x^8, past D = 5
    I = Ideal([parse_poly("x^5", vs), y])
    assert quotient_dimension(I) == 5
    assert not normal_form(parse_poly("x^4", vs), buchberger(I)).is_zero()
    assert radical_member(x, I)
    # a non-member of an ideal of positive dimension has no power bound
    for I in (Ideal([y]), Ideal([parse_poly("x^2", vs)])):
        with pytest.raises(ValueError, match="zero-dimensional"):
            radical_member(x, I)


def _random_poly(rng, vs, terms, top):
    return Polynomial(vs, {tuple(rng.randint(0, top) for _ in vs.names):
                           gr(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(terms)})


def test_radical_member_on_random_zero_dimensional_ideals(fresh_caches, monkeypatch):
    # I = <a^j, b^k> for random a, b with <a, b> zero-dimensional: a and b
    # lie in rad(I) and, for j or k above one, mostly not in I; x, y and
    # a + x*b are drawn against the same ideal.  Each answer is checked
    # against Rabinowitsch's rule
    monkeypatch.setattr(groebner, "_rabinowitsch", _no_rabinowitsch)
    rng = random.Random(36)
    vs = VarSet(["x", "y"])
    x, y = parse_poly("x", vs), parse_poly("y", vs)
    nilpotent = cases = 0
    while cases < 60:
        a = _random_poly(rng, vs, rng.randint(1, 3), 2)
        b = _random_poly(rng, vs, rng.randint(1, 3), 2)
        if a.is_zero() or b.is_zero() or quotient_dimension(Ideal([a, b])) is None:
            continue
        I = Ideal([a ** rng.randint(1, 2), b ** rng.randint(1, 2)])
        G = buchberger(I)
        for f in (a, b, x, y, a + x * b):
            answer = radical_member(f, I)
            assert answer == radical_member_rabinowitsch(f, I)
            nilpotent += answer and not normal_form(f, G).is_zero()
            cases += 1
    assert nilpotent > 20


def test_radical_member_component_product():
    L = line_scheme_ideal(gr(1))
    prod = Polynomial.constant(M_VARS, 1)
    for comp in component_catalog(gr(1)):
        prod = prod * next(p for p in comp.ideal.generators if p.degree() > 1)
    assert prod.degree() == 18
    assert radical_member(prod, L.ideal)


def test_eliminate_triangular():
    vs = VarSet(["x", "y", "t"])
    I = Ideal([parse_poly("x - t^2", vs), parse_poly("y - t^3", vs)])
    E = eliminate(I, ["x", "y"])
    G = buchberger(E)
    assert [print_poly(p) for p in G] == ["x^3 - y^2"]


def test_eliminate_chart_to_x4():
    # the raw chart ideal eliminates to <x4 * rho1>: the extra factor x4
    # accounts for e1; saturating at x4 first gives exactly <rho1>
    g1 = gr(1)
    chart = chart_ideal(make_A(g1), 0)
    rho1 = parse_poly("x4^8 - 4*x4^4 + g^2", CHART_VARS, gamma=g1)
    x4 = Polynomial.variable(CHART_VARS, "x4")

    E_raw = eliminate(chart, ["x4"])
    vs4 = E_raw.varset
    expected_raw = parse_poly("x4^9 - 4*x4^5 + x4", vs4)
    assert [print_poly(p) for p in buchberger(E_raw)] == [print_poly(expected_raw)]

    sat = saturate(chart, x4)
    E_sat = eliminate(sat, ["x4"])
    assert [print_poly(p.monic()) for p in buchberger(E_sat)] == [
        print_poly(parse_poly("x4^8 - 4*x4^4 + 1", vs4))]
    assert rho1 is not None


def test_eliminate_zero_ideal():
    I = Ideal([Polynomial.variable(M_VARS, "M13"),
               Polynomial.variable(M_VARS, "M24")])
    E = eliminate(I, ["M12", "M14", "M23", "M34"])
    assert E.generators == ()


# the 8 gammas of the point-scheme digests, and -2*i
RHO_GAMMAS = ("1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3", "-2*i")


@pytest.mark.parametrize("text", RHO_GAMMAS)
def test_saturated_chart_lex_basis_is_rho_system(text):
    # the saturation J : x4^infinity by an appended variable is the
    # reference for the three membership facts that certify rho without one
    gamma = cli.parse_gamma(text)
    chart = chart_ideal(make_A(gamma), 0)
    x4 = Polynomial.variable(CHART_VARS, "x4")
    lex = MonomialOrder.lex()
    G = buchberger(saturate(chart, x4).with_order(lex))
    rho = rho_system(gamma)
    assert set(G.basis) == {p.with_order(lex).monic() for p in rho}
    # (i) J in <rho>, (ii) x4 a unit modulo <rho>, (iii) x4 * rho in J
    assert all(normal_form(m, buchberger(zgamma_ideal(gamma))).is_zero()
               for m in chart.generators)
    assert is_unit_mod(x4, zgamma_ideal(gamma))
    assert all(normal_form(x4 * r, buchberger(chart)).is_zero() for r in rho)
    assert all(verify_rho_derivation(gamma).values())


def test_intersect_examples():
    vs = VarSet(["x1", "x2"])
    Ix = Ideal([parse_poly("x1", vs)])
    Iy = Ideal([parse_poly("x2", vs)])
    J = intersect(Ix, Iy)
    assert [print_poly(p) for p in buchberger(J)] == ["x1*x2"]
    # I cap I = I
    I = Ideal([parse_poly("x1^2 - x2", vs)])
    J2 = intersect(I, I)
    assert set(buchberger(J2).basis) == set(buchberger(I).basis)


def test_intersect_l6a_l6b():
    cat = component_catalog(gr(1))
    J = intersect(cat.get("L6a").ideal, cat.get("L6b").ideal)
    G = buchberger(J)
    for text in ("M14", "M23", "M12^2 + M34^2", "M12*M34 - M13*M24"):
        assert normal_form(parse_poly(text, M_VARS), G).is_zero()
    # and conversely each generator vanishes on both conics
    for comp in ("L6a", "L6b"):
        Gc = buchberger(cat.get(comp).ideal)
        for p in J.generators:
            assert normal_form(p, Gc).is_zero()


def test_quotient_dimension_two_points():
    vs = VarSet(["x", "y"])
    I = Ideal([parse_poly("x^2 - 1", vs), parse_poly("y - x", vs)])
    assert quotient_dimension(I) == 2
    assert quotient_dimension(Ideal([parse_poly("x^2 - 1", vs),
                                     parse_poly("x", vs)])) == 0
    assert quotient_dimension(Ideal([], varset=VarSet([]))) == 1


@pytest.mark.parametrize("gens", [["x^2 - y", "y^2 - x"], ["x^3 - y^2", "x*y - 1"],
                                  ["x*y - 1"], ["x^2 - 1", "x"]])
def test_quotient_dimension_does_not_depend_on_the_order(gens):
    # the standard monomials of any order are a basis of the quotient
    vs = VarSet(["x", "y"])
    I = Ideal([parse_poly(g, vs) for g in gens])
    assert quotient_dimension(I.with_order(MonomialOrder.lex())) == quotient_dimension(I)


@pytest.mark.parametrize("gamma", [gr(1), gr(Fraction(3, 2), 1), gr(2), gr(4), gr(0, 2)])
def test_rho_is_counted_in_lex_without_a_pair(fresh_caches, gamma):
    # rho's lex leads x4^8, x3^2 and x2 are coprime: its lex basis forms no
    # S-pair, and it counts the 16 points of Z_gamma as DEGREVLEX does
    rho = zgamma_ideal(gamma)
    with limits_scope(GroebnerLimits(max_pairs=0)):
        assert quotient_dimension(rho.with_order(MonomialOrder.lex())) == 16
    assert quotient_dimension(rho) == 16


def test_quotient_dimension_chart():
    assert quotient_dimension(chart_ideal(make_A(gr(1)), 0)) == 17
    assert quotient_dimension(chart_ideal(make_A(gr(2)), 0)) == 17


def test_gamma_two_distinct_count_is_nine_on_chart():
    # 17 with multiplicity; the root multiplicities leave 8 + e1 = 9
    from qp3.point_scheme import root_multiplicities

    rho1, _, _ = rho_system(gr(2))
    mults = root_multiplicities(rho1, "x4")
    assert mults == {2: 4}
    distinct_on_chart = 2 * sum(mults.values()) + 1
    assert distinct_on_chart == 9


def test_quotient_dimension_infinite():
    vs = VarSet(["x", "y"])
    assert quotient_dimension(Ideal([parse_poly("x*y", vs)])) is None


def test_hilbert_component_values():
    cat = component_catalog(gr(1))
    assert hilbert_dimension_degree(cat.get("L1").ideal) == (1, 4)
    assert hilbert_dimension_degree(cat.get("L2").ideal) == (1, 3)
    assert hilbert_dimension_degree(line_scheme_ideal(gr(1)).ideal) == (1, 20)


def test_hilbert_rejects_inhomogeneous():
    vs = VarSet(["x", "y"])
    with pytest.raises(NonHomogeneousError):
        hilbert_dimension_degree(Ideal([parse_poly("x^2 - y", vs)]))


def test_hilbert_invariant_under_generator_shuffle():
    rng = random.Random(23)
    L = line_scheme_ideal(gr(1))
    gens = list(L.ideal.generators)
    base = hilbert_dimension_degree(L.ideal)
    for _ in range(3):
        rng.shuffle(gens)
        assert hilbert_dimension_degree(Ideal(list(gens))) == base


def _series(num, n, top):
    """The coefficients of t^0..t^top in num / (1 - t)^n."""
    s = (list(num) + [0] * top)[:top + 1]
    for _ in range(n):
        s = list(accumulate(s))
    return s


def _monomial_ideal(gens, vs):
    return Ideal([Polynomial(vs, {m: 1}) for m in gens], varset=vs)


def test_hilbert_numerator_matches_a_staircase_count():
    rng = random.Random(35)
    for n in range(8):
        one = (0,) * n
        cases = [[], [one], [one, one, (1,) * n]]
        for _ in range(6):
            gens = [tuple(rng.randrange(3) for _ in range(n))
                    for _ in range(rng.randrange(1, 7))]
            gens += [tuple(e + rng.randrange(2) for e in g) for g in gens]
            cases.append(gens + rng.sample(gens, 2))    # non-minimal, repeated
        for gens in cases:
            assert _series(hilbert_numerator(gens, n), n, 6) == staircase_counts(gens, n, 6)
        if n:
            # with a power of every variable the quotient is finite: the
            # count ends in zeros, and sums to the quotient's dimension
            powers = [rng.randrange(1, 3) for _ in range(n)]
            gens = [tuple(e * (j == k) for j in range(n)) for k, e in enumerate(powers)]
            gens += cases[-1]
            top = sum(powers) - n + 1
            counts = staircase_counts(gens, n, top)
            assert counts[-1] == 0
            assert _series(hilbert_numerator(gens, n), n, top) == counts
            I = _monomial_ideal(gens, VarSet([f"x{k}" for k in range(n)]))
            assert quotient_dimension(I) == sum(counts)
            assert hilbert_dimension_degree(I) == (-1, sum(counts))
            # the unit ideal, series 0: no standard monomial, empty projectively
            unit = _monomial_ideal([one], I.varset)
            assert quotient_dimension(unit) == 0
            assert hilbert_dimension_degree(unit) == (-1, 0)


@pytest.mark.parametrize("gamma", [gr(1), gr(4), gr(-4), gr(Fraction(3, 2), 1)],
                         ids=str)
def test_line_scheme_hilbert_data_match_a_staircase_count(gamma):
    # L and its components are curves: from degree 4 on, their Hilbert
    # function grows by the degree at each step
    L = line_scheme_ideal(gamma)
    for ideal in [L.ideal, *(c.ideal for c in component_catalog(gamma))]:
        n = len(ideal.varset)
        lead = buchberger(ideal.with_order(DEGREVLEX)).leading_monomials()
        counts = staircase_counts(lead, n, 7)
        assert _series(hilbert_numerator(lead, n), n, 7) == counts
        [degree] = {b - a for a, b in zip(counts[4:], counts[5:])}
        for I in (ideal, _monomial_ideal(lead, ideal.varset)):
            assert hilbert_dimension_degree(I) == (1, degree)
            assert quotient_dimension(I) is None


def test_hilbert_numerator_refuses_what_its_fields_cannot_hold():
    # the generators are packed into 15-bit fields, as the engine's are
    assert hilbert_numerator([(2 ** 15 - 1, 0)], 2) == (1,) + (0,) * (2 ** 15 - 2) + (-1,)
    with pytest.raises(ExponentOverflowError):
        hilbert_numerator([(2 ** 15, 0)], 2)
    with pytest.raises(ValueError):
        hilbert_numerator([(1, -1)], 2)
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0, 5)], 2)
    # the pivot count keeps one 16-bit field per variable
    with pytest.raises(ResourceLimitError):
        groebner._staircase(tuple(range(1, 2 ** 16 + 1)), 2)


def test_buchberger_s_polynomials_reduce_posthoc():
    I = point_ideal(make_A(gr(1)))
    G = buchberger(I)
    _assert_spolys_reduce(G)


def test_basis_term_lists_are_primitive():
    # every term list a basis keeps is its own primitive form: the lead is
    # a positive integer and the integer content of the coefficients is 1;
    # `basis` is the monic view of those same lists, with no conversion
    G = buchberger(line_scheme_ideal(gr(1)).ideal)
    assert len(G._lists) == len(G.basis) > 1
    for p, g in zip(reversed(G._lists), G.basis):
        a, b = p[0][2]
        assert a > 0 and b == 0
        assert gcd(*(x for _, _, c in p for x in c)) == 1
        assert multipoly._primitive(p)[0] == p
        assert g._list is p and g._scale == (1, 0, a)
        assert g.leading_coefficient() == gr(1)
    assert ([G._packing.unpack(p[0][1]) for p in reversed(G._lists)]
            == G.leading_monomials())


def test_term_lists_carry_their_exact_scalar():
    # a Polynomial stores its primitive list and the exact scale s in Q(i)
    # with f = s * list, for real negative, imaginary and Gaussian leads;
    # a multiple of f by any nonzero scalar keeps the same list
    vs = VarSet(["x", "y"])
    q = Fraction
    cases = {
        "-3*x^2 + 6*y": {(2, 0): gr(-3), (0, 1): gr(6)},
        "5*i*x - 10*y": {(1, 0): gr(0, 5), (0, 1): gr(-10)},
        "(2+i)*x*y + 1/3*y - 5": {(1, 1): gr(2, 1), (0, 1): gr(q(1, 3)),
                                  (0, 0): gr(-5)},
        "-1/2*x + 1/4 - 1/4*i": {(1, 0): gr(q(-1, 2)), (0, 0): gr(q(1, 4), q(-1, 4))},
        "(-4-2*i)*y^2 + 2*x": {(0, 2): gr(-4, -2), (1, 0): gr(2)},
    }
    for text, terms in cases.items():
        f = parse_poly(text, vs)
        assert f == Polynomial(vs, terms)
        p, pk = f._list, f._pk
        assert multipoly._primitive(p)[0] == p
        s = GaussianRational._make(*f._scale)
        assert {pk.unpack(m): gr(a, b) * s for _, m, (a, b) in p} == terms
        for c in (gr(-1), gr(0, 1), gr(q(3, 7), -2)):
            g = f * c
            assert g._list == p and GaussianRational._make(*g._scale) == s * c


_FIVE = VarSet(["a", "b", "c", "d", "t"])


@pytest.mark.parametrize("order", [MonomialOrder.lex(), DEGREVLEX,
                                   MonomialOrder.elimination(_FIVE, ["b", "t"])],
                         ids=["lex", "degrevlex", "elim"])
def test_packed_monomials_match_their_tuple_definitions(order):
    # seeded exponent vectors, many at the field boundaries: the largest
    # exponent a field stores and the largest a reducer may carry
    rng = random.Random(23)
    n = len(_FIVE)
    pk = multipoly._packing(n, order)
    top, half = pk.mask, pk.mask >> 1

    def vector(bound):
        return tuple(min(bound, rng.choice([0, 1, rng.randint(0, 9), half,
                                            half + 1, top, rng.randint(0, top)]))
                     for _ in range(n))

    for _ in range(2000):
        a, b = vector(top), vector(top)
        (ka, ma), (kb, mb) = pk.pack(a), pk.pack(b)
        assert pk.unpack(ma) == a and pk.key(ma) == ka and pk.degree(ma) == sum(a)
        assert pk.divides(ma, mb) == all(x <= y for x, y in zip(a, b))
        assert pk.lcm(ma, mb) == pk.pack(tuple(map(max, a, b)))[1]
        assert (ka < kb) == (order.key(a) < order.key(b))
        assert (ka == kb) == (a == b)
        # additivity: a product of two reducer-sized monomials
        c, d = vector(half), vector(half)
        (kc, mc), (kd, md) = pk.pack(c), pk.pack(d)
        assert pk.pack(tuple(x + y for x, y in zip(c, d))) == (kc + kd, mc + md)
    with pytest.raises(ExponentOverflowError):
        pk.pack((0, top + 1, 0, 0, 0))
    with pytest.raises(ExponentOverflowError):
        pk.check([pk.pack((0, 0, half + 1, 0, 0)) + ((1, 0),)])


def test_an_appended_eliminated_variable_keeps_the_degrevlex_weights():
    # why `_append` lifts a DEGREVLEX list to the order that eliminates a
    # variable appended last without computing a key anew
    for n in range(1, 21):
        vs = VarSet([f"x{k}" for k in range(n + 1)])
        elim = MonomialOrder.elimination(vs, [vs.names[-1]])
        assert (multipoly._packing(n + 1, elim).weights[:-1]
                == multipoly._packing(n, DEGREVLEX).weights)


def test_exponents_beyond_the_packed_width_are_refused(fresh_caches):
    # y - x^3 reduces to y - z^36000 modulo x - z^12000: a multiplier of
    # the reduction passes 2^14 - 1, the most the fixed fields allow, so
    # the basis is refused as a resource limit
    assert groebner.ResourceLimitError is multipoly.ResourceLimitError
    assert issubclass(ExponentOverflowError, ResourceLimitError)
    lex = MonomialOrder.lex()
    vs = VarSet(["y", "x", "z"])
    assert 12000 < 2 ** 14 <= 24000 < 2 ** 15 < 36000
    I = Ideal([parse_poly("y - x^3", vs, order=lex),
               parse_poly("x - z^12000", vs, order=lex)], lex)
    with pytest.raises(ResourceLimitError):
        buchberger(I)
    # modulo x - z^12000 alone, x*z^10000 shifts the reducer by z^10000,
    # which fits; x*z^30000 would shift it by z^30000, which does not
    G = buchberger(Ideal([parse_poly("x - z^12000", vs, order=lex)], lex))
    f = parse_poly("x*z^10000", vs, order=lex)
    assert print_poly(normal_form(f, G)) == "z^22000"
    with pytest.raises(ExponentOverflowError):
        normal_form(parse_poly("x*z^30000", vs, order=lex), G)


def test_eliminate_refuses_kept_names_that_are_not_variables():
    vs = VarSet(["x", "y"])
    I = Ideal([parse_poly("x - y", vs)])
    with pytest.raises(VarSetMismatchError):
        eliminate(I, ["x", "q"])
    assert [print_poly(g) for g in eliminate(I, ["x", "y"]).generators] == ["x - y"]


def _assert_spolys_reduce(G):
    from itertools import combinations

    vs = G.varset
    for f, g in combinations(G.basis, 2):
        lmf, lmg = f.leading_monomial(), g.leading_monomial()
        lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
        uf = Polynomial(vs, {tuple(a - b for a, b in zip(lcm, lmf)):
                             g.leading_coefficient()}, G.order)
        ug = Polynomial(vs, {tuple(a - b for a, b in zip(lcm, lmg)):
                             f.leading_coefficient()}, G.order)
        s = uf * f - ug * g
        assert normal_form(s, G).is_zero()


def test_resource_limit_raises():
    with pytest.raises(ResourceLimitError):
        with limits_scope(GroebnerLimits(max_pairs=1)):
            buchberger(point_ideal(make_A(gr(1))))


def test_limits_scope_is_per_thread(fresh_caches):
    # a narrow scope in one thread leaves another thread on the defaults
    I = point_ideal(make_A(gr(1)))
    scope_open = threading.Barrier(2, timeout=60)
    b_done = threading.Barrier(2, timeout=60)
    results = {}

    def narrow():
        with limits_scope(GroebnerLimits(max_pairs=1)):
            scope_open.wait()
            b_done.wait()
            try:
                results["a"] = buchberger(I)
            except ResourceLimitError as exc:
                results["a"] = exc

    def default():
        scope_open.wait()
        try:
            results["b"] = buchberger(I)
        except ResourceLimitError as exc:
            results["b"] = exc
        b_done.wait()

    threads = [threading.Thread(target=narrow), threading.Thread(target=default)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert isinstance(results["b"], groebner.GroebnerBasis)
    assert isinstance(results["a"], ResourceLimitError)


def test_limits_scope_reuses_cached_basis():
    I = point_ideal(make_A(gr(3)))
    with limits_scope(GroebnerLimits(max_pairs=400_000)):
        assert buchberger(I) is buchberger(I)


def test_limits_scope_restores_defaults_after_error(fresh_caches):
    I = point_ideal(make_A(gr(1)))
    with pytest.raises(ResourceLimitError):
        with limits_scope(GroebnerLimits(max_pairs=1)):
            buchberger(I)
    assert len(buchberger(I)) > 0


def test_is_unit_and_invert_mod():
    rho = zgamma_ideal(gr(1))
    G = buchberger(rho)
    x3 = Polynomial.variable(CHART_VARS, "x3")
    assert is_unit_mod(x3, rho)
    inv = invert_mod(x3, G)
    assert normal_form(x3 * inv, G) == Polynomial.constant(CHART_VARS, 1)
    assert quotient_dimension(rho) == 16
    # a nonzero constant inverts in Q(i)
    assert invert_mod(Polynomial.constant(CHART_VARS, 4), G) == Polynomial.constant(
        CHART_VARS, gr(1) / gr(4))
    with pytest.raises(NotAUnitError):
        invert_mod(Polynomial.zero(CHART_VARS), G)
    with limits_scope(GroebnerLimits(max_pairs=1)):
        with pytest.raises(ResourceLimitError):
            invert_mod(x3, G)
    vs = VarSet(["x", "y"])
    x = Polynomial.variable(vs, "x")
    # x is a unit modulo the saturation of <x^2 - x> by x, not modulo it
    with pytest.raises(NotAUnitError):
        invert_mod(x, buchberger(Ideal([parse_poly("x^2 - x", vs)])))
    # an infinite-dimensional quotient may still hold the inverse
    for order in (DEGREVLEX, MonomialOrder.lex()):
        hyperbola = buchberger(Ideal([parse_poly("x*y - 1", vs)], order))
        assert invert_mod(x, hyperbola) == Polynomial.variable(vs, "y", order)
    whole = buchberger(Ideal([parse_poly("x^2 - 1", vs), x]))
    for u in (x, Polynomial.constant(vs, 1)):
        with pytest.raises(NotAUnitError):
            invert_mod(u, whole)


def test_zero_is_a_unit_exactly_modulo_the_unit_ideal(fresh_caches):
    # 1 lies in I + <0> = I exactly when 1 lies in I
    vs = VarSet(["x", "y"])
    zero = Polynomial.zero(vs)
    assert is_unit_mod(zero, Ideal([Polynomial.constant(vs, 1)]))
    assert not is_unit_mod(zero, Ideal([Polynomial.variable(vs, "x")]))


def test_a_monomial_unit_is_read_off_its_variables(fresh_caches):
    # a constant is a unit at once, x^2*y is one iff x and y are, and a
    # candidate on another ring is refused, a constant too
    vs = VarSet(["x", "y"])
    x, y = (Polynomial.variable(vs, n) for n in "xy")
    I = Ideal([x * y - 1])
    assert is_unit_mod(Polynomial.constant(vs, 3), I)
    assert is_unit_mod(2 * x * x * y, I) and not is_unit_mod(x * y, Ideal([x * x - x]))
    with pytest.raises(VarSetMismatchError):
        is_unit_mod(Polynomial.constant(VarSet(["x"]), 3), I)


@pytest.mark.parametrize("c", [gr(-1), gr(0, 1), gr(0, -1), gr(Fraction(3, 2))])
def test_a_scaled_variable_asks_its_monic_variable(fresh_caches, monkeypatch, c):
    # c*x is a unit iff x is, and once x is answered c*x runs no Buchberger
    vs = VarSet(["x", "y"])
    I = Ideal([parse_poly("x^2 - 1", vs), parse_poly("y^2 - y", vs)])
    runs = []
    core = groebner._buchberger

    def counted(*args):
        runs.append(args)
        return core(*args)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    for name, unit in (("x", True), ("y", False)):
        v = Polynomial.variable(vs, name)
        assert is_unit_mod(v, I) is unit
        asked = len(runs)
        assert is_unit_mod(c * v, I) is unit
        assert len(runs) == asked


def test_a_member_of_the_ideal_runs_no_buchberger(fresh_caches, monkeypatch):
    # u in I gives I + <u> = I: a unit iff 1 in I, read off the basis of I
    vs = VarSet(["x", "y"])
    I = Ideal([parse_poly("x^2 - y", vs), parse_poly("y^2 - x", vs)])
    whole = Ideal([*I.generators, parse_poly("x + 1", vs), parse_poly("y - 1", vs)])
    assert not buchberger(I).contains_one()
    assert buchberger(whole).contains_one()
    runs = []
    monkeypatch.setattr(groebner, "_buchberger", lambda *args: runs.append(args))
    assert not is_unit_mod(parse_poly("x^2 - y + (1+i)*(y^2 - x)", vs), I)
    assert is_unit_mod(parse_poly("x*y + 2", vs), whole)
    assert runs == []


def test_unit_answers_are_cached_per_limits(fresh_caches):
    rho = zgamma_ideal(gr(1))
    x3 = Polynomial.variable(CHART_VARS, "x3")
    assert is_unit_mod(x3, rho)
    # under the same limits the answer is read back
    assert is_unit_mod(x3, rho)
    assert is_unit_mod.cache_info().hits == 1
    # under narrower limits it is recomputed, and raises if a bound is hit
    with limits_scope(GroebnerLimits(max_pairs=400_000)):
        assert is_unit_mod(x3, rho)
    assert is_unit_mod.cache_info().misses == 2
    with limits_scope(GroebnerLimits(max_pairs=1)):
        with pytest.raises(ResourceLimitError):
            is_unit_mod(x3, rho)


def test_not_a_unit_is_not_cached(fresh_caches):
    # invert_mod keeps no memo: each call runs, and each refuses x
    vs = VarSet(["x", "y"])
    G = buchberger(Ideal([parse_poly("x^2 - x", vs)]))
    assert not hasattr(invert_mod, "cache_info")
    for _ in range(2):
        with pytest.raises(NotAUnitError):
            invert_mod(Polynomial.variable(vs, "x"), G)


def test_seeded_basis_is_not_cached(fresh_caches):
    # is_unit_mod caches the basis G of I and its answer; the basis of
    # G + [u] it computes on the way is dropped
    rho = zgamma_ideal(gr(1))
    assert is_unit_mod(Polynomial.variable(CHART_VARS, "x3"), rho)
    assert buchberger.cache_info().currsize == 1
    assert buchberger.cache_info().hits == 0
    buchberger(rho)
    assert buchberger.cache_info().hits == 1


def test_nf_leaves_its_input_unchanged():
    # x and y^2 are one-term reducers: their terms are dropped by moving
    # the read position, which must not write to the list passed in
    vs = VarSet(["x", "y", "z"])
    G = buchberger(Ideal([parse_poly(t, vs) for t in ("x", "y^2", "z^3 - y*z")]))
    assert sorted(len(p) for p in G._lists) == [1, 1, 2]
    f = parse_poly("3*x^2*z + y^3 - 2*x*y + z^3 + (1+i)*y*z^2 + z - 5", vs)
    p, _ = f._packed(G._packing)
    before = list(p)
    r, s = groebner._nf(p, G._heads, G._packing)
    assert p == before
    assert groebner._poly(vs, G._packing, r, 1, 0, s) == parse_poly(
        "(1+i)*y*z^2 + y*z + z - 5", vs)


def test_normal_form_reduces_against_the_stored_heads(monkeypatch):
    # the heads of a basis are built once, by the Buchberger run that
    # returns it; a normal form builds none
    vs = VarSet(["x", "y", "z"])
    G = buchberger(Ideal([parse_poly(t, vs) for t in ("x*y - z^2", "y^2 - x*z")]))
    assert G._heads == [groebner._head(p) for p in G._lists]
    # each head points into its stored list; no copy of a tail is kept
    assert all(h[3] is p for h, p in zip(G._heads, G._lists))
    calls = []
    head = groebner._head
    monkeypatch.setattr(groebner, "_head", lambda g: calls.append(g) or head(g))
    f = parse_poly("x^3*y + y^3 - z^4 + x*y*z", vs)
    assert normal_form(f, G) == normal_form(f, G) != f
    assert calls == []


def _random_list(rng, pk, n, terms, degree):
    """A term list of at most `terms` terms in n variables, each exponent
    at most `degree`, with Gaussian coefficients of 1, 4 or 20 bits."""
    bits = rng.choice((1, 4, 20))
    monos = {pk.pack(tuple(rng.randint(0, degree) for _ in range(n)))
             for _ in range(terms)}
    coeffs = ((rng.randint(-2 ** bits, 2 ** bits), rng.randint(-2 ** bits, 2 ** bits))
              for _ in monos)
    return sorted(((k, m, c) for (k, m), c in zip(monos, coeffs) if c != (0, 0)),
                  reverse=True)


def _kernels_agree(lists, fs, pk):
    """Assert that the one-pass kernels and the two-pass oracle give the
    same normal forms of fs and S-polynomials of lists; the s of each f."""
    heads = [groebner._head(g) for g in lists]
    for g, h in combinations(lists, 2):
        l = pk.lcm(g[0][1], h[0][1])
        assert groebner._spoly(g, h, pk.key(l), l) == spoly_two_pass(g, h, pk.key(l), l)
    found = [groebner._nf(f, heads, pk) for f in fs]
    assert found == [nf_two_pass(f, heads, pk) for f in fs]
    return [s for _, s in found]


@pytest.mark.parametrize("elimination", [False, True], ids=["degrevlex", "elimination"])
def test_one_pass_kernels_match_the_two_pass_oracle(elimination):
    # random primitive reducers, some of one term, most with leads d > 1
    # (the rescale path); an empty f, and small ones that reduce to zero
    rng = random.Random(3801 + elimination)
    scales = []
    for _ in range(40):
        n = rng.randint(3, 7)
        vs = VarSet([f"v{k}" for k in range(n)])
        pk = multipoly._packing(n, MonomialOrder.elimination(vs, ["v0", "v1"])
                                if elimination else DEGREVLEX)
        lists = [multipoly._primitive(p)[0] for p in (
            _random_list(rng, pk, n, rng.choice((1, 2, 4)), 2) for _ in range(4)) if p]
        fs = [[]] + [_random_list(rng, pk, n, rng.randint(1, 8), 3) for _ in range(4)]
        scales += _kernels_agree(lists, fs, pk)
    assert scales.count(1) > 1 and max(scales) > 1
    # c = 1+i on the lead 2x of 2x + (1+i)y: the step rescales by 2, and the
    # content 2 of 2z - 2i*y then goes, so s returns to 1
    pk = multipoly._packing(3, DEGREVLEX)
    (kx, x), (ky, y), (kz, z) = (pk.pack(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f = [(kx, x, (1, 1)), (kz, z, (1, 0))]
    g = [(kx, x, (2, 0)), (ky, y, (1, 1))]
    assert _kernels_agree([g], [f], pk) == [1]
    assert groebner._nf(f, [groebner._head(g)], pk) == ([(ky, y, (0, -1)), (kz, z, (1, 0))], 1)


def test_one_pass_kernels_match_on_the_line_scheme_bases():
    # the reducer sets that line-scheme --verify meets at gamma = 3/2+i: the
    # basis of L and of each component, each reducing every generator of
    # the others
    gamma = gr(Fraction(3, 2), 1)
    ideals = [line_scheme_ideal(gamma).ideal] + [
        c.ideal for c in component_catalog(gamma).components]
    for G in map(buchberger, ideals):
        pk = G._packing
        fs = [f._packed(pk)[0] for I in ideals for f in I.generators]
        _kernels_agree(G._lists, fs, pk)


def test_both_kernels_refuse_a_multiplier_with_its_high_bit_set():
    pk = multipoly._packing(3, DEGREVLEX)
    f = [(*pk.pack((2 ** 14 + 1, 0, 0)), (1, 0))]
    g = [(*pk.pack((1, 0, 0)), (1, 0)), (*pk.pack((0, 1, 0)), (1, 0))]
    for nf in (groebner._nf, nf_two_pass):
        with pytest.raises(ExponentOverflowError):
            nf(f, [groebner._head(g)], pk)


@pytest.mark.parametrize("case", ["unit", "non-unit", "u in I", "1 in I",
                                  "elimination order"])
def test_seeded_is_unit_mod_agrees_with_plain_basis(fresh_caches, case):
    # is_unit_mod seeds the reduced basis of I as a finished prefix; the
    # plain basis of I + <u> from the raw generators must give the same
    # answer.  No generating set below is a Groebner basis, and in the
    # case 1 in I only pairs of generators of I find 1: z is coprime to
    # every lead; the seeded basis is never cached, so the plain one below
    # is computed
    vs = VarSet(["x", "y", "z"])
    # V(x^2 - 1, x*y - 1) = {(1, 1), (-1, -1)}
    gens, u, order = {
        "unit": (["x^2 - 1", "x*y - 1"], "x + y", DEGREVLEX),
        "non-unit": (["x^2 - 1", "x*y - 1"], "x + 1", DEGREVLEX),
        "u in I": (["x^2 - 1", "x*y - 1"], "x - y", DEGREVLEX),
        "1 in I": (["x^2 - 1", "y^2 - 1", "x*y - 2"], "z", DEGREVLEX),
        "elimination order": (["x*z - y", "z^2 - 2"],
                              "z", MonomialOrder.elimination(vs, ["z"])),
    }[case]
    I = Ideal([parse_poly(t, vs, order=order) for t in gens], order)
    u = parse_poly(u, vs, order=order)
    seeded = is_unit_mod(u, I)
    plain = buchberger(Ideal(list(I.generators) + [u], I.order)).contains_one()
    assert seeded == plain == (case in ("unit", "1 in I", "elimination order"))


def test_determinism_repeated_runs(fresh_caches):
    I = point_ideal(make_A(gr(5)))
    a = buchberger(I)
    buchberger.cache_clear()
    b = buchberger(I)
    assert a is not b
    assert [print_poly(p) for p in a] == [print_poly(p) for p in b]


def _rabinowitsch_bases(f, I):
    """The Rabinowitsch basis for f and I under the order that eliminates
    t, as `invert_mod` forms it, seeded from the reduced DEGREVLEX basis of
    I and unseeded from its raw generators.  Only the plain one is cached."""
    from qp3.groebner import _buchberger, _rabinowitsch

    G = buchberger(I)
    seeded = _buchberger(Ideal(_rabinowitsch(G.basis, f, "t_rad")), len(G))
    plain = buchberger(Ideal(_rabinowitsch(I.generators, f, "t_rad")))
    assert seeded is not plain
    return seeded, plain


def _assert_seeded_rabinowitsch_agrees(f, I):
    # both bases agree, decide Rabinowitsch's rule as the DEGREVLEX oracle
    # does, and radical_member agrees wherever it answers
    seeded, plain = _rabinowitsch_bases(f, I)
    assert seeded.basis == plain.basis
    expected = radical_member_rabinowitsch(f, I)
    assert plain.contains_one() == expected
    if (normal_form(f, buchberger(I)).is_zero()
            or quotient_dimension(I) is not None):
        assert radical_member(f, I) == expected
    else:
        with pytest.raises(ValueError):
            radical_member(f, I)


def test_seeded_rabinowitsch_on_line_scheme_and_components(fresh_caches):
    from qp3.line_scheme import component_catalog, line_scheme_ideal

    for g in (gr(1), gr(4)):
        L = line_scheme_ideal(g)
        C = component_catalog(g)
        member = Polynomial.constant(M_VARS, 1)
        for comp in C:
            member = member * comp.ideal.generators[0]
        for f in (member, parse_poly("M12", M_VARS),
                  parse_poly("M13*M24 - M14*M23", M_VARS)):
            _assert_seeded_rabinowitsch_agrees(f, L.ideal)
        for comp in C:
            for f in (parse_poly("M12 + M34", M_VARS), comp.ideal.generators[-1]):
                _assert_seeded_rabinowitsch_agrees(f, comp.ideal)


def test_seeded_rabinowitsch_on_random_ideals(fresh_caches):
    # the ideals of acceptance criterion 10c, drawn from the same stream,
    # with f = x and y in turn; a random f of degree 4 can take seconds
    rng = random.Random(107)
    vs = VarSet(["x", "y"])
    seen = 0
    for k in range(500):
        gens = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = (rng.randint(0, 2), rng.randint(0, 2))
                terms[m] = gr(rng.randint(-3, 3), rng.randint(-3, 3))
            p = Polynomial(vs, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        f = Polynomial.variable(vs, "xy"[k % 2])
        _assert_seeded_rabinowitsch_agrees(f, Ideal(gens))
        seen += 1
    assert seen > 400


def test_update_criteria_pinned_pair_by_pair(fresh_caches, monkeypatch):
    # every S-pair of one small basis, in the order the engine forms them,
    # each as the leading monomials of its two elements.  Each criterion
    # of the UPDATE prunes a pair here that no other one would: without
    # the coprime criterion (x^2, y^4) is formed too, without the chain
    # criterion (x*z^2, y^3*z), without the equal-lcm tie-break
    # (x*y*z, y^2*z^2), and without the B_k test (y^4, y^2*z^2) and
    # (x*y*z, y^4)
    vs = VarSet(["x", "y", "z"])
    leads = []
    spoly = groebner._spoly

    def recorded(f, g, key_l, l):
        leads.append((f[0][1], g[0][1]))
        return spoly(f, g, key_l, l)

    monkeypatch.setattr(groebner, "_spoly", recorded)
    G = buchberger(Ideal([parse_poly(t, vs) for t in (
        "x^2*z", "2*x^2*y^2 - x*y^3", "2*x^2 - x*y + 2*y^2", "-x*z^2")]))

    def name(m):
        return print_poly(Polynomial(vs, {G._packing.unpack(m): gr(1)}))

    assert [(name(a), name(b)) for a, b in leads] == [
        ("x*z^2", "x*y*z"), ("x^2", "x*z^2"), ("x^2", "x*y*z"),
        ("y^2*z^2", "y^3*z"), ("x*z^2", "y^2*z^2"), ("y^4", "y^3*z"),
        ("x*y*z", "y^3*z")]
    assert [print_poly(g) for g in G] == [
        "y^4", "y^3*z", "y^2*z^2", "x*y*z - 2*y^2*z", "x*z^2",
        "x^2 - 1/2*x*y + y^2"]


@pytest.mark.parametrize("gamma", [gr(1), gr(4), gr(3, 2)], ids=["1", "4", "3+2i"])
def test_line_scheme_verification_s_pair_count(fresh_caches, monkeypatch, gamma):
    # the Buchberger work of `line-scheme --verify` from empty caches: every
    # S-polynomial the engine forms, over all the bases the check computes.
    # There is none: the basis of the 46 is certified by its leads, which
    # carry LINE_SCHEME_NUMERATOR, and the component intersection is read
    # off COMPONENTS_INTERSECTION, not folded (218, 225 and 218 before,
    # all of them the fold's, pinned below)
    calls = _recorded_spolys(monkeypatch)
    assert verify_decomposition(gamma).ok
    assert len(calls) == 0


@pytest.mark.parametrize("gamma, spolys", [(gr(1), 218), (gr(4), 225),
                                           (gr(3, 2), 218)],
                         ids=["1", "4", "3+2i"])
def test_components_intersection_s_pair_count(fresh_caches, monkeypatch,
                                             gamma, spolys):
    # every S-polynomial of the component intersection at gamma, folded
    # psi1 partners first, from empty caches.  The pairs depend on the
    # leading monomials, the selection order and the bracketing of the
    # fold alone, so how polynomials are stored or pairs are bookkept must
    # not change these counts
    calls = _recorded_spolys(monkeypatch)
    components_intersection(component_catalog(gamma))
    assert len(calls) == spolys


# the 8 digest gammas, the other signs of 2, 4 and 2i, and the ends of the
# range the exact commands are tried at
HINT_GAMMAS = ("1", "3/2+i", "2", "-2", "4", "-4", "2*i", "-2*i", "1/3",
               "2^40", "1/2^30")


def _recorded_spolys(monkeypatch):
    """The leads of the two elements of each S-polynomial formed from now on."""
    leads = []
    spoly = groebner._spoly

    def recorded(f, g, key_l, l):
        leads.append((f[0][1], g[0][1]))
        return spoly(f, g, key_l, l)

    monkeypatch.setattr(groebner, "_spoly", recorded)
    return leads


@pytest.mark.parametrize("text", HINT_GAMMAS)
def test_line_scheme_numerator_stops_the_pair_loop(monkeypatch, text):
    # the leads of the interreduced 46 carry the generic numerator at each
    # gamma, so the hinted run forms no S-pair and ends with the basis the
    # pair loop finds
    L = line_scheme_ideal(cli.parse_gamma(text))
    leads = _recorded_spolys(monkeypatch)
    hinted = groebner._buchberger(L.ideal, 0, LINE_SCHEME_NUMERATOR)
    assert leads == []
    assert hinted._lists == groebner._buchberger(L.ideal, 0)._lists
    assert leads


@pytest.mark.parametrize("k", range(len(LINE_SCHEME_NUMERATOR)))
def test_an_unattained_numerator_replays_every_pair(monkeypatch, k):
    # a hint the leads do not carry changes nothing: the same S-polynomials
    # in the same order, and the same basis
    L = line_scheme_ideal(gr(3, 2))
    leads = _recorded_spolys(monkeypatch)
    plain = groebner._buchberger(L.ideal, 0)
    expected, leads[:] = leads[:], []
    wrong = list(LINE_SCHEME_NUMERATOR)
    wrong[k] += 1
    assert groebner._buchberger(L.ideal, 0, tuple(wrong))._lists == plain._lists
    assert leads == expected and len(expected) == 158


@pytest.mark.parametrize("run", ["the 46", "a unit with a prefix"])
def test_each_element_enters_the_basis_once(fresh_caches, monkeypatch, run):
    # an element joins G by one insort.  Each inserted element builds one
    # `_head`, and so does each element of the basis returned, so the
    # insorts are the `_head` calls less the basis length: a run that no
    # numerator certifies forms each input's pairs against the G it met
    # and inserts none again, and a finished prefix enters the same way
    if run == "the 46":
        I, prefix = line_scheme_ideal(gr(Fraction(3, 2), 1)).ideal, 0
    else:
        I = chart_ideal(make_A(gr(Fraction(3, 2), 1)), 0)
        prefix = len(buchberger(I))
        assert prefix > 1
    calls = {"insort": 0, "head": 0, "basis": 0}
    insort, head, core = groebner.bisect.insort, groebner._head, groebner._buchberger

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def measured(*args):
        G = core(*args)
        calls["basis"] += len(G)
        return G

    monkeypatch.setattr(groebner.bisect, "insort", counted("insort", insort))
    monkeypatch.setattr(groebner, "_head", counted("head", head))
    monkeypatch.setattr(groebner, "_buchberger", measured)
    if prefix:
        is_unit_mod(Polynomial.variable(I.varset, I.varset.names[-1]), I)
    else:
        groebner._buchberger(I, 0)
    assert calls["insort"] == calls["head"] - calls["basis"] > prefix


def test_line_scheme_verification_runs_one_basis_of_the_46(fresh_caches, monkeypatch):
    # the hinted basis is the only one: the Hilbert data of L is read off
    # it, not off a second, unhinted memo entry
    gamma = gr(3, 2)
    L = line_scheme_ideal(gamma)
    runs = []
    core = groebner._buchberger

    def counted(I, *args):
        runs.append(I == L.ideal)
        return core(I, *args)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    assert verify_decomposition(gamma).ok
    assert runs.count(True) == 1
