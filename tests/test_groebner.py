import random
import threading

import pytest

from qp3.gaussian import gr
from qp3.multipoly import (DEGREVLEX, MonomialOrder, Polynomial, VarSet,
                           parse_poly, print_poly)
from qp3 import groebner
from qp3.groebner import (GroebnerLimits, Ideal, NonHomogeneousError,
                          ResourceLimitError, buchberger, eliminate,
                          hilbert_dimension_degree, ideal_member, intersect,
                          invert_mod, is_unit_mod, limits_scope, normal_form,
                          quotient_dimension, radical_member, saturate,
                          standard_monomials)
from qp3.quadratic_algebra import CHART_VARS, M_VARS, X_VARS, make_A
from qp3.point_scheme import chart_ideal, point_ideal, rho_system, zgamma_ideal
from qp3.line_scheme import component_catalog, line_scheme_ideal
from qp3.fixtures import load_fixtures


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
    PI = point_ideal(make_A(gr(1)))
    assert ideal_member(parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS), PI)
    assert not ideal_member(Polynomial.variable(X_VARS, "x1"), PI)
    assert ideal_member(Polynomial.zero(X_VARS), PI)


def test_ideal_member_order_independent():
    PI = point_ideal(make_A(gr(1)))
    G_drl = buchberger(PI)
    G_lex = buchberger(PI.with_order(MonomialOrder.lex()))
    fx = load_fixtures().parse_point_polys(gr(1))
    probes = fx + [Polynomial.variable(X_VARS, "x1"),
                   parse_poly("x1*x2 - x3*x4", X_VARS)]
    for f in probes:
        lex_f = f.with_order(MonomialOrder.lex())
        assert normal_form(f, G_drl).is_zero() == normal_form(lex_f, G_lex).is_zero()


def test_radical_member_examples():
    vs = VarSet(["x1", "x2"])
    assert radical_member(parse_poly("x1", vs), Ideal([parse_poly("x1^2", vs)]))
    assert not radical_member(parse_poly("x2", vs), Ideal([parse_poly("x1", vs)]))


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
    assert E.is_zero()


def test_saturated_chart_lex_basis_is_rho_system():
    g1 = gr(1)
    chart = chart_ideal(make_A(g1), 0)
    sat = saturate(chart, Polynomial.variable(CHART_VARS, "x4"))
    lex = MonomialOrder.lex()
    G = buchberger(sat.with_order(lex))
    rho = [p.with_order(lex).monic() for p in rho_system(g1)]
    assert set(G.basis) == set(rho)


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


def test_quotient_dimension_chart():
    assert quotient_dimension(chart_ideal(make_A(gr(1)), 0)) == 17
    assert quotient_dimension(chart_ideal(make_A(gr(2)), 0)) == 17


def test_gamma_two_distinct_count_is_nine_on_chart():
    # 17 with multiplicity; the squarefree analysis leaves 8 + e1 = 9
    from qp3.point_scheme import squarefree_decomposition

    rho1, _, _ = rho_system(gr(2))
    decomp = squarefree_decomposition(rho1, "x4")
    assert [(k, p.degree()) for k, p in decomp] == [(2, 4)]
    distinct_on_chart = 2 * sum(p.degree() for _, p in decomp) + 1
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


def test_buchberger_s_polynomials_reduce_posthoc():
    I = point_ideal(make_A(gr(1)))
    G = buchberger(I)
    _assert_spolys_reduce(G)


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


def test_limits_scope_is_per_thread(monkeypatch):
    # a narrow scope in one thread leaves another thread on the defaults
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
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


def test_limits_scope_restores_defaults_after_error(monkeypatch):
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
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
    sm = standard_monomials(G)
    assert sm is not None and len(sm) == 16


def test_determinism_repeated_runs(monkeypatch):
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    I = point_ideal(make_A(gr(5)))
    a = buchberger(I)
    groebner._GB_CACHE.clear()
    b = buchberger(I)
    assert a is not b
    assert [print_poly(p) for p in a] == [print_poly(p) for p in b]


def _rabinowitsch_bases(f, I):
    """The Rabinowitsch basis for f and I, seeded from the reduced basis of
    I and unseeded from its raw generators.  The cache is cleared between
    the two: when I is already reduced they share a cache key."""
    from qp3.groebner import _buchberger, _rabinowitsch

    G = buchberger(I)
    seeded = _buchberger(Ideal(_rabinowitsch(G.basis, f, "t_rad"), DEGREVLEX),
                         True, len(G))
    groebner._GB_CACHE.clear()
    plain = buchberger(Ideal(_rabinowitsch(I.generators, f, "t_rad"), DEGREVLEX))
    assert seeded is not plain
    return seeded, plain


def _assert_seeded_rabinowitsch_agrees(f, I):
    seeded, plain = _rabinowitsch_bases(f, I)
    assert seeded.basis == plain.basis
    assert radical_member(f, I) == plain.contains_one()


def test_seeded_rabinowitsch_on_line_scheme_and_components(monkeypatch):
    from qp3.line_scheme import component_catalog, line_scheme_ideal

    monkeypatch.setattr(groebner, "_GB_CACHE", {})
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


def test_seeded_rabinowitsch_on_random_ideals(monkeypatch):
    # the ideals of acceptance criterion 10c, drawn from the same stream,
    # with f = x and y in turn; a random f of degree 4 can take seconds
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
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
