import sys
from fractions import Fraction
from math import comb

import pytest

from qp3.gaussian import gr
from qp3.multipoly import (DEGREVLEX, MonomialOrder, Polynomial, VarSet,
                           parse_poly, print_poly, substitute)
from qp3.polylinalg import PolyMatrix, all_minors
from qp3.groebner import (Ideal, buchberger, eliminate,
                          hilbert_numerator, ideals_equal, intersect, normal_form)
from qp3.quadratic_algebra import M_VARS, MG_VARS, UV_VARS, make_A
from qp3.cli import parse_gamma
import qp3.line_scheme as ls
from qp3.line_scheme import (LINE_SCHEME_NUMERATOR, Component, ComponentCatalog,
                             build_big_matrix, component_catalog,
                             jacobian_smoothness_check, line_scheme_ideal,
                             minors_modulo_P, pluecker_polynomial,
                             verify_decomposition, _pluecker_gb_M,
                             _quartic_of_minor, _split_l1)
from qp3.fixtures import load_fixtures, table_polys
from oracles import (certifies_intersection_table, components_intersection,
                     det_bareiss, intersection_over_q_i_g, rank)
import printed
import table_texts
from printed import (LINE_SCHEME_POLYS, displayed_big_matrix, fixture_forensics,
                     match_displayed_big_matrix, match_fixture_polys, parse_line_polys)


# M_ij -> the bracket it stands for, N_kl = u_k v_l - u_l v_k; its kernel
# is the ideal of the Pluecker quadric
M_TO_UV = {name: parse_poly(text, UV_VARS) for name, text in (
    ("M12", "u3*v4 - u4*v3"),
    ("M13", "-(u2*v4 - u4*v2)"),
    ("M14", "u2*v3 - u3*v2"),
    ("M23", "u1*v4 - u4*v1"),
    ("M24", "-(u1*v3 - u3*v1)"),
    ("M34", "u1*v2 - u2*v1"),
)}


def _in_uv(f: Polynomial) -> Polynomial:
    return substitute(f, M_TO_UV, target=UV_VARS)


def test_big_matrix_matches_displayed_up_to_row_scaling():
    for gv in (1, 4, 5):
        A = make_A(gr(gv))
        perm = match_displayed_big_matrix(A)
        assert len(perm) == 10
        assert len({idx for idx, _ in perm}) == 10
        for _, scalar in perm:
            assert not scalar.is_zero()


def test_displayed_row_seven():
    shown = displayed_big_matrix(gr(1))
    assert [print_poly(e) for e in shown.row(6)] == [
        "-u4", "0", "0", "i*u1", "-v4", "0", "0", "i*v1"]
    # and the computed matrix contains that row up to a scalar
    A = make_A(gr(1))
    perm = match_displayed_big_matrix(A)
    mine = build_big_matrix(A)
    idx, scalar = perm[6]
    for c in range(8):
        assert mine.entries[idx][c] == shown.entries[6][c] * scalar


def test_columns_swap_under_uv_exchange():
    big = build_big_matrix(make_A(gr(1)))
    from qp3.multipoly import substitute

    swap = {f"u{k}": Polynomial.variable(UV_VARS, f"v{k}") for k in range(1, 5)}
    swap.update({f"v{k}": Polynomial.variable(UV_VARS, f"u{k}") for k in range(1, 5)})
    for r in range(10):
        for c in range(4):
            assert substitute(big.entries[r][c], swap) == big.entries[r][c + 4]


def test_line_scheme_polys_expand_to_the_uv_minors():
    # an oracle that shares nothing with the construction: each computed
    # quartic, written back in u and v, is the full 8x8 minor over u, v
    assert _in_uv(pluecker_polynomial()).is_zero()
    for g in (gr(1), gr(2), gr(4), gr(-4), gr(Fraction(3, 2), 1),
              gr(Fraction(1, 7), Fraction(-2, 3)), gr(0, 2 ** 40)):
        for tensor_order in ("left", "right"):
            L = minors_modulo_P(g, tensor_order)
            if tensor_order == "left":
                assert L.polys == line_scheme_ideal(g).polys
            minors = all_minors(build_big_matrix(make_A(g), tensor_order), 8)
            assert len(minors) == len(L.polys) - 1 == 45
            for k, minor in enumerate(minors, start=1):
                assert _in_uv(L.polys[k]) == minor


def test_minor_quartic_needs_m34_to_the_fourth():
    # the normal form modulo P must be M34^4 times a quartic: here it is
    # M12*M13^2*M24^2*M34^3
    with pytest.raises(ValueError):
        _quartic_of_minor(parse_poly("M34^2*(M13*M24 - M14*M23)*M13^2*M24^2", M_VARS))
    with pytest.raises(ValueError):
        _quartic_of_minor(parse_poly("M13^8", M_VARS))
    # M13*M24 - M14*M23 reduces to M12*M34 modulo P, which supplies the
    # fourth factor M34
    assert _quartic_of_minor(parse_poly("M34^3*(M13*M24 - M14*M23)*M13^3", M_VARS)) \
        == parse_poly("M12*M13^3", M_VARS)


def test_line_scheme_ideal_shape():
    L = line_scheme_ideal(gr(1))
    assert len(L.polys) == 46
    assert L.polys[0] == pluecker_polynomial()
    gbP = _pluecker_gb_M(M_VARS)
    for p in L.polys[1:]:
        assert p.is_homogeneous() and p.degree() == 4
        assert normal_form(p, gbP) == p


def test_line_scheme_matches_fixture_ideal():
    for gv in (1, 4, 5):
        L = line_scheme_ideal(gr(gv))
        F = Ideal(parse_line_polys(gr(gv)))
        assert ideals_equal(L.ideal, F)


def test_fixture_difference_18_19():
    fx = parse_line_polys(gr(1))
    diff = fx[18] - fx[19]
    target = parse_poly("M14*M23*M24^2", M_VARS)
    # proportional to M14 M23 M24^2 (the factor is 2i)
    assert diff == target * gr(0, 2)


def test_fixture_forensics_certificates():
    fr = fixture_forensics(gr(5))
    assert len(fr.direct_matches) == 30
    assert len(fr.combination_certificates) == 15
    # each certificate reconstructs the reference polynomial exactly
    gbP = _pluecker_gb_M(M_VARS)
    fixture = parse_line_polys(gr(5))
    mine = [normal_form(p, gbP) for p in line_scheme_ideal(gr(5)).polys[1:]]
    for j, combo in fr.combination_certificates.items():
        acc = Polynomial.zero(M_VARS)
        for k, c in combo:
            acc = acc + mine[k] * c
        assert acc == normal_form(fixture[j], gbP)
    # under the other tensor enumeration all but one entry match directly
    assert len(fr.right_order_matches) == 14
    assert list(fr.right_order_discrepancies) == [31]
    disc = fr.right_order_discrepancies[31]
    assert disc == parse_poly("(1 - i)*M12^2*M14*M24", M_VARS)


def test_erratum_31_certified_by_bareiss_determinant():
    # the corrected entry 31 is i times the "right" minor on rows
    # (1,3,4,5,6,7,8,9), with the determinant recomputed by Bareiss
    # elimination rather than the subset-DP `minor`; the kernel of
    # M -> u, v is the Pluecker ideal, so equality of the u, v expansions
    # is equality modulo P
    rows = (1, 3, 4, 5, 6, 7, 8, 9)
    for gv in (1, 4, 5):
        big = build_big_matrix(make_A(gr(gv)), "right")
        det = det_bareiss(PolyMatrix([big.entries[r] for r in rows]))
        entry = parse_line_polys(gr(gv), corrected=True)[31]
        assert _in_uv(entry) == det * gr(0, 1)
        as_printed = parse_line_polys(gr(gv))[31]
        assert _in_uv(as_printed) != det * gr(0, 1)


def test_reference_list_matches_the_right_minors_over_q_i_g():
    # criterion 2b as an identity in g: with its erratum, each printed
    # quartic reduced modulo P over MG_VARS is a unit multiple of a distinct
    # "right" entry over Q(i)[g], 46 of 46; as printed, entry 31 is the
    # one miss
    L = minors_modulo_P(None, "right")
    assert sorted(match_fixture_polys(L).values()) == list(range(46))
    gbP = _pluecker_gb_M(MG_VARS)
    misses = [j for j, f in enumerate(parse_line_polys(None))
              if all(printed._ratio(normal_form(f, gbP) if j else f, p)
                     not in printed.UNITS for p in L.polys)]
    assert misses == [31]


def test_match_fixture_polys_reports_mismatch():
    with pytest.raises(ValueError):
        match_fixture_polys(line_scheme_ideal(gr(1)))


def test_match_fixture_polys_rejects_non_unit_scalar(monkeypatch):
    # entry 1 is a single monomial: three times it has the same monic form
    # as its minor but is not a unit multiple of it
    assert LINE_SCHEME_POLYS[1] == "2*M13*M14*M23*M24"
    monkeypatch.setattr(printed, "LINE_SCHEME_POLYS", (
        LINE_SCHEME_POLYS[0], "6*M13*M14*M23*M24") + LINE_SCHEME_POLYS[2:])
    with pytest.raises(ValueError, match="non-unit"):
        match_fixture_polys(minors_modulo_P(gr(1), "right"))


def test_fixture_forensics_direct_matches_need_a_unit_scalar(monkeypatch):
    # entry 1 is one of the 30 direct "left" matches; three times it has
    # the same monic form but is only a combination, with a non-unit
    # coefficient
    assert LINE_SCHEME_POLYS[1] == "2*M13*M14*M23*M24"
    monkeypatch.setattr(printed, "LINE_SCHEME_POLYS", (
        LINE_SCHEME_POLYS[0], "6*M13*M14*M23*M24") + LINE_SCHEME_POLYS[2:])
    fr = fixture_forensics(gr(5))
    assert 1 not in fr.direct_matches
    assert len(fr.direct_matches) == 29
    [(k, c)] = fr.combination_certificates[1]
    assert c / gr(3) in printed.UNITS
    assert 1 not in fr.right_order_matches


def test_component_catalog_counts():
    assert len(component_catalog(gr(1))) == 7
    assert len(component_catalog(gr(5))) == 7
    cat4 = component_catalog(gr(4))
    assert len(cat4) == 8
    gens = [print_poly(p) for p in cat4.get("L1a").ideal.generators]
    assert "M12 + M14 - M23 - M34" in gens


def test_gamma4_split_forms():
    # at gamma = +-4, L1a and L1b are L1 with its quadric q2 replaced by
    # the two linear factors of the pencil member q2 - (gamma/2) q1
    for gv, forms in ((4, ("M12 + M14 - M23 - M34", "M12 - M14 + M23 - M34")),
                      (-4, ("M12 + M14 + M23 + M34", "M12 - M14 - M23 + M34"))):
        g = gr(gv)
        q1, q2 = load_fixtures().parse_components(g)["L1"][2:]
        split = []
        for name, form in zip(("L1a", "L1b"), forms):
            *rest, f = component_catalog(g).get(name).ideal.generators
            assert [print_poly(p) for p in rest] == ["M13", "M24", print_poly(q1)]
            assert print_poly(f) == form
            split.append(f)
        assert split[0] * split[1] == q2 - (g / 2) * q1
    for g in (gr(0, 4), gr(0, -4), gr(2)):
        assert [c.name for c in component_catalog(g)] == [
            "L1", "L2", "L3", "L4", "L5", "L6a", "L6b"]
    # elsewhere the pencil member is no difference of two squares
    l1 = load_fixtures().parse_components(gr(2))["L1"]
    with pytest.raises(ValueError, match="does not split"):
        _split_l1(gr(2), l1)


def test_verify_decomposition():
    for gv in (1, 4):
        rep = verify_decomposition(gr(gv))
        assert rep.ok
        assert rep.hilbert == (1, 20)
        assert rep.degrees_sum == 20


_GAMMAS = {"3/2+i": gr(Fraction(3, 2), 1), "4": gr(4)}


def _verified_with(monkeypatch, gamma, catalog=None, scheme=None):
    """`verify_decomposition(gamma)` with the builders returning `catalog`
    or `scheme` in place of their own.  A catalog comes with its own table
    of the intersection: the rows of its oracle fold."""
    if scheme is not None:
        monkeypatch.setattr(ls, "line_scheme_ideal", lambda g: scheme)
    if catalog is not None:
        monkeypatch.setattr(ls, "component_catalog", lambda g: catalog)
        fx = load_fixtures()
        table = tuple(tuple(table_texts.rows(substitute(f, {}, target=MG_VARS)))
                      for f in components_intersection(catalog).generators)
        monkeypatch.setattr(ls, "load_fixtures",
                            lambda: fx._replace(components_intersection=table))
    return verify_decomposition(gamma)


@pytest.mark.parametrize("gamma, dropped", [
    (g, c.name) for g in _GAMMAS for c in component_catalog(_GAMMAS[g])])
def test_verify_decomposition_negative_control(monkeypatch, gamma, dropped):
    C = component_catalog(_GAMMAS[gamma])
    truncated = ComponentCatalog(
        gamma=C.gamma, components=tuple(c for c in C if c.name != dropped))
    rep = _verified_with(monkeypatch, C.gamma, catalog=truncated)
    assert rep.poly_in_components
    assert not rep.intersection_in_radical
    assert not rep.ok


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_verify_decomposition_refuses_a_doubled_component(monkeypatch, gamma):
    # L2 replaced by a second copy of L3: L lies in every component, each
    # is a complete intersection of dimension one, and the degrees still
    # sum to 20, so only the cover clause sees that L2 is missing
    C = component_catalog(_GAMMAS[gamma])
    doubled = ComponentCatalog(gamma=C.gamma, components=tuple(
        c._replace(ideal=C.get("L3").ideal) if c.name == "L2" else c for c in C))
    rep = _verified_with(monkeypatch, C.gamma, catalog=doubled)
    assert rep.poly_in_components
    assert all(rep.component_hilbert[c.name][0] == 1 and len(c.ideal.generators) == 4
               for c in doubled)
    assert rep.hilbert == (1, 20) and rep.degrees_sum == 20
    assert not rep.intersection_in_radical
    assert not rep.ok


def test_verify_decomposition_refuses_an_embedded_point(monkeypatch):
    # L cap m_p^2, p a point of the conic L6a on no other component: the
    # same zero set and Hilbert polynomial as L, but its saturation is the
    # intersection of the components cap m_p^2, which misses the
    # generators of the intersection that are regular at p
    gamma = _GAMMAS["3/2+i"]
    L = line_scheme_ideal(gamma)
    C = component_catalog(gamma)
    p = dict(zip(M_VARS.names, (gr(0, -1), gr(1), gr(0), gr(0), gr(0, -1), gr(1))))
    assert all(substitute(f, p).is_zero() for f in L.polys)
    assert [c.name for c in C if all(substitute(f, p).is_zero()
                                     for f in c.ideal.generators)] == ["L6a"]
    m34 = Polynomial.variable(M_VARS, "M34")
    lin = [Polynomial.variable(M_VARS, n) - m34 * p[n] for n in M_VARS.names[:-1]]
    J = intersect(L.ideal, Ideal([a * b for k, a in enumerate(lin) for b in lin[k:]]))
    rep = _verified_with(monkeypatch, gamma, scheme=L._replace(polys=J.generators, ideal=J))
    assert rep.poly_in_components and rep.hilbert == (1, 20) and rep.degrees_sum == 20
    assert not rep.intersection_in_radical
    assert not rep.ok


def test_verify_decomposition_needs_complete_intersections(monkeypatch):
    # L6a with a fifth, redundant generator is the same ideal, but no
    # longer a complete intersection, so nothing shows it saturated
    C = component_catalog(gr(1))
    gens = C.get("L6a").ideal.generators
    padded = ComponentCatalog(gamma=C.gamma, components=tuple(
        c._replace(ideal=Ideal([*gens, gens[0] + gens[1]])) if c.name == "L6a" else c
        for c in C))
    rep = _verified_with(monkeypatch, C.gamma, catalog=padded)
    assert rep.poly_in_components and rep.degrees_sum == 20
    assert not rep.intersection_in_radical
    assert not rep.ok


def test_component_degree_table():
    from qp3.groebner import hilbert_dimension_degree

    expected = {"L1": (1, 4), "L2": (1, 3), "L3": (1, 3), "L4": (1, 3),
                "L5": (1, 3), "L6a": (1, 2), "L6b": (1, 2)}
    cat = component_catalog(gr(5))
    for name, dd in expected.items():
        assert hilbert_dimension_degree(cat.get(name).ideal) == dd
        assert (cat.get(name).dimension, cat.get(name).degree) == dd
    kinds = {"L1": "spatial_elliptic", "L1a": "conic", "L1b": "conic",
             "L2": "planar_elliptic", "L3": "planar_elliptic",
             "L4": "planar_elliptic", "L5": "planar_elliptic",
             "L6a": "conic", "L6b": "conic"}
    for gv, count in ((5, 7), (4, 8), (-4, 8)):
        cat = component_catalog(gr(gv))
        assert len(cat) == count
        assert all(c.kind == kinds[c.name] for c in cat)
    # a quadric surface and a line have no kind
    for texts in (("M13", "M24", "M12*M34 - M14*M23"), ("M13", "M24", "M14", "M23")):
        with pytest.raises(ValueError, match="no kind"):
            Component("X", Ideal([parse_poly(t, M_VARS) for t in texts])).kind


def test_jacobian_smoothness():
    cat1 = component_catalog(gr(1))
    assert jacobian_smoothness_check(cat1.get("L1").ideal)
    for gv in (1, 4, 5):
        cat = component_catalog(gr(gv))
        assert jacobian_smoothness_check(cat.get("L2").ideal)
    # at gamma = 4 the quadric pair degenerates and acquires singular points
    q1 = parse_poly("M14*M23 + M12*M34", M_VARS)
    q2 = parse_poly("M12^2 + M34^2 + g*M14*M23 - M14^2 - M23^2", M_VARS,
                    gamma=gr(4))
    L1_at_4 = Ideal([Polynomial.variable(M_VARS, "M13"),
                     Polynomial.variable(M_VARS, "M24"), q1, q2])
    assert not jacobian_smoothness_check(L1_at_4)


@pytest.mark.parametrize("gamma", [gr(1), gr(4), gr(-4), gr(Fraction(3, 2), 1)],
                         ids=["1", "4", "-4", "3/2+i"])
def test_every_catalog_component_is_smooth(gamma):
    assert all(jacobian_smoothness_check(c.ideal) for c in component_catalog(gamma))


def test_jacobian_smoothness_sees_two_meeting_lines():
    # with M14 = M23 = 0 and M34 = M13 + M24 - M12, the quadric becomes
    # -(M12 - M13)*(M12 - M24): two lines that meet, a singular conic
    two_lines = Ideal([parse_poly(t, M_VARS) for t in (
        "M14", "M23", "M12*M34 - M13*M24", "M12 - M13 - M24 + M34")])
    assert not jacobian_smoothness_check(two_lines)
    # five generators in codimension four: the criterion does not apply
    L1 = component_catalog(gr(1)).get("L1").ideal
    with pytest.raises(ValueError, match="not a complete intersection"):
        jacobian_smoothness_check(Ideal(list(L1.generators)
                                        + [parse_poly("M12*M13", M_VARS)]))


def test_pluecker_polynomial_irreducible():
    # a quadric is irreducible when its Gram matrix has rank > 2
    P = pluecker_polynomial()
    n = len(M_VARS)
    half = gr(1) / gr(2)
    grid = [[gr(0)] * n for _ in range(n)]
    for mono, c in P.terms.items():
        idx = [k for k, e in enumerate(mono) if e]
        if len(idx) == 1:
            grid[idx[0]][idx[0]] = c
        else:
            a, b = idx
            grid[a][b] = grid[a][b] + c * half
            grid[b][a] = grid[b][a] + c * half
    assert rank(grid) == 6


def test_sum_of_component_degrees_is_twenty():
    for gv in (1, 4, 5):
        cat = component_catalog(gr(gv))
        assert sum(c.degree for c in cat) == 20


def test_verify_decomposition_gamma_minus_four():
    # the split catalog at the other square root of 16, derived by the
    # same rank-two factorization, verifies end to end
    g = gr(-4)
    cat = component_catalog(g)
    assert len(cat) == 8
    rep = verify_decomposition(g)
    assert rep.ok and rep.hilbert == (1, 20)


def test_jacobian_smoothness_planar_cubics_with_gamma():
    for gv in (1, 5):
        cat = component_catalog(gr(gv))
        for name in ("L3", "L4", "L5"):
            assert jacobian_smoothness_check(cat.get(name).ideal)


def test_generic_components_are_singular_only_at_listed_gammas():
    # over Q(i)[g]: each generic component plus the 4x4 minors of its
    # Jacobian in the M_ij, one chart M_ij = 1 at a time, with the M_ij
    # eliminated, leaves the gammas where the component is singular.  So
    # every kind holds for every gamma but 0 and, for L1, +-4, where L1
    # splits into the conics L1a and L1b
    MG = VarSet([*M_VARS.names, "g"])
    expected = {"L1": "g^3 - 16*g", "L2": "1", "L3": "1", "L4": "g^2",
                "L5": "g^2", "L6a": "1", "L6b": "1"}
    found = {}
    for name, gens in load_fixtures().parse_components(None).items():
        jac = PolyMatrix([[f.derivative(n) for n in M_VARS.names] for f in gens])
        sing = gens + [d for d in all_minors(jac, 4) if not d.is_zero()]
        charts = [eliminate(Ideal(sing + [Polynomial.variable(MG, n) - 1]), ["g"])
                  for n in M_VARS.names]
        union = charts[0]
        for chart in charts[1:]:
            union = intersect(union, chart)
        [found[name]] = (print_poly(p) for p in buchberger(union))
    assert found == expected


def _hilbert_function(I: Ideal, top: int):
    """dim (S/I)_d for d = 0..top, from the Hilbert numerator over (1-t)^n."""
    n = len(I.varset)
    num = hilbert_numerator(
        buchberger(I.with_order(DEGREVLEX)).leading_monomials(), n)
    return [sum(c * comb(d - k + n - 1, n - 1) for k, c in enumerate(num[:d + 1]))
            for d in range(top + 1)]


@pytest.mark.parametrize("gamma", [gr(1), gr(4), gr(-4), gr(Fraction(3, 2), 1)],
                         ids=str)
def test_saturated_line_scheme_ideal_is_the_component_intersection(gamma):
    # L lies in I_cap, whose components are complete intersections, so
    # I_cap is saturated and holds L^sat.  Each generator of I_cap lies in
    # L or has all six M_ij * f in L, so I_cap lies in (L : m) and
    # L^sat = I_cap: the scheme is the union of the curves, no embedded
    # point, and L differs from I_cap in degree 3 alone.
    L = line_scheme_ideal(gamma)
    inter = components_intersection(component_catalog(gamma))
    gb = buchberger(L.ideal)
    variables = [Polynomial.variable(L.ideal.varset, v) for v in M_VARS.names]
    in_L = [normal_form(f, gb).is_zero() for f in inter.generators]
    assert (len(in_L), sum(in_L)) == (14, 4)
    assert all(normal_form(m * f, gb).is_zero()
               for f, inside in zip(inter.generators, in_L) if not inside
               for m in variables)
    hf_L, hf_cap = _hilbert_function(L.ideal, 9), _hilbert_function(inter, 9)
    assert [d for d in range(10) if hf_L[d] != hf_cap[d]] == [3]
    assert (hf_L[3], hf_cap[3]) == (50, 40)


@pytest.mark.parametrize("text", ("1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3"))
def test_the_46_over_q_i_g_specialise_to_each_gamma(text):
    gamma = parse_gamma(text)
    for order in ("left", "right"):
        assert [substitute(f, {"g": gamma}, target=M_VARS)
                for f in minors_modulo_P(None, order).polys] == list(
                    minors_modulo_P(gamma, order).polys)


def test_line_scheme_numerator_is_the_series_over_q_i_g():
    """LINE_SCHEME_NUMERATOR is the Hilbert numerator of the 46 over Q(i)(g).

    The 46 over Q(i)[g] are the table the commands read, the pipeline's
    46 with g kept: the dual comes from Cramer's rule on a constant pivot
    minor, so it, and each of the 45 minors and quartics after it,
    specialises at g = gamma to the one built at gamma, at every gamma
    (see the tests above).  A basis G of them under the order that
    eliminates the M_ij, with g dropped from its leads, is a basis over
    Q(i)(g) in DEGREVLEX.

    Why a run at one gamma may stop on this numerator: dim L(gamma)_d is
    the rank at gamma of a matrix over Q(i)[g], which cannot exceed its
    rank over Q(i)(g), so HF(R/L(gamma)) >= the generic series.  The
    leads of the run's elements lie in LT(L(gamma)), so HF(R/leads) >=
    HF(R/L(gamma)).  Equality of the leads' series with the generic one
    forces LT(L(gamma)) to be generated by the leads: the elements are a
    Groebner basis."""
    L = line_scheme_ideal(None)
    G = buchberger(Ideal(L.polys, MonomialOrder.elimination(MG_VARS, M_VARS.names)))
    leads = [m[:-1] for m in G.leading_monomials()]
    assert hilbert_numerator(leads, len(M_VARS)) == LINE_SCHEME_NUMERATOR


def test_components_intersection_is_the_fold_over_q_i_g():
    """The table of the intersection, its rows over Q(i)[g], generates the
    intersection of the seven generic components at every gamma != 0.

    The fold over Q(i)[g] meets the components as `components_intersection`
    does at one gamma, each basis under the order that puts the block
    (M_ij, t), degrevlex, above g.  Each element of each of its six bases
    is homogeneous in the M_ij and has a leading coefficient c*g^k, which
    vanishes at no gamma != 0, so by Kalkbrener each basis specialises to
    a basis at gamma of the specialised t*I + (1 - t)*J, and its t-free
    elements, t-free by their leads, to generators of I(gamma) cap J(gamma).
    The inputs specialise to the catalog's up to scalars: each text is
    parsed with g kept or bound, and psi1 is free of g (checked at the
    digest gammas below).  The last level's t-free elements are the table,
    in order."""
    bases, generators = intersection_over_q_i_g()
    assert [len(G) for G in bases] == [11, 11, 6, 15, 15, 23]
    table = table_polys(load_fixtures().components_intersection, None)
    assert len(generators) == len(table) == 14
    assert certifies_intersection_table(table)


# the 8 gammas of tests/line_verify_digests.json
DIGEST_GAMMAS = ("1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3")


def test_the_line_scheme_table_is_the_pipeline_over_q_i_g():
    # the rows that line_scheme_ideal reads are minors_modulo_P(None),
    # polynomial for polynomial, P first, and so is their text oracle, printed
    built = minors_modulo_P(None).polys
    assert line_scheme_ideal(None).polys == built
    assert list(table_texts.LINE_SCHEME) == [print_poly(f) for f in built]


@pytest.mark.parametrize("text", DIGEST_GAMMAS)
def test_the_line_scheme_table_at_gamma_is_the_pipeline_at_gamma(text):
    # the proof beside _line_scheme_ideal, checked at the digest gammas,
    # +-2 and +-4 among them
    gamma = parse_gamma(text)
    table, built = line_scheme_ideal(gamma).polys, minors_modulo_P(gamma).polys
    assert table == built
    assert [print_poly(f) for f in table] == [print_poly(f) for f in built]


@pytest.mark.parametrize("gamma", ["3/2+i", "4"])
@pytest.mark.parametrize("command", [["line-scheme", "--verify"],
                                     ["lines-through", "--symbolic"]], ids=" ".join)
def test_commands_read_the_46_off_the_table(gamma, command, monkeypatch, capsys,
                                            fresh_caches):
    # no command computes a minor of the doubled matrix; the counter does
    # see the pipeline's
    from qp3 import cli, polylinalg

    calls = []
    original = polylinalg.all_minors

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qp3") and getattr(mod, "all_minors", None) is original:
            monkeypatch.setattr(mod, "all_minors", counted)
    assert cli.main([f"--gamma={gamma}", *command]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls == []
    minors_modulo_P(parse_gamma(gamma))
    assert calls == [8]


@pytest.mark.parametrize("gamma", ["3/2+i", "4"])
@pytest.mark.parametrize("command", [["line-scheme", "--verify"],
                                     ["lines-through", "--symbolic"]], ids=" ".join)
def test_commands_parse_no_table_text(gamma, command, monkeypatch, capsys, fresh_caches):
    # the three tables are built from their rows; the counter does see a
    # text of each when it is parsed
    from qp3 import cli, multipoly

    texts = set(table_texts.LINE_SCHEME) | set(table_texts.COMPONENTS_INTERSECTION) | {
        t for gens in table_texts.COMPONENTS.values() for t in gens}
    parsed = []
    original = multipoly.parse_poly

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return original(text, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qp3") and getattr(mod, "parse_poly", None) is original:
            monkeypatch.setattr(mod, "parse_poly", counted)
    assert cli.main([f"--gamma={gamma}", *command]) == cli.EXIT_OK
    capsys.readouterr()
    assert not texts & set(parsed)
    multipoly.parse_poly(table_texts.LINE_SCHEME[1], MG_VARS)
    assert texts & set(parsed) == {table_texts.LINE_SCHEME[1]}


@pytest.mark.parametrize("text", DIGEST_GAMMAS)
def test_the_table_at_gamma_is_the_folded_intersection(text):
    # a cross-check of the proof above, and at gamma = +-4, where the
    # catalog splits L1 into L1a and L1b, the proof that the table at
    # gamma is the intersection of the eight: L1 is L1a cap L1b there
    gamma = parse_gamma(text)
    # the fold's inputs specialise to the catalog's, up to scalars
    fixtures = load_fixtures()
    assert {name: [substitute(f, {"g": gamma}, target=M_VARS).monic() for f in gens]
            for name, gens in fixtures.parse_components(None).items()} == {
        name: [f.monic() for f in gens]
        for name, gens in fixtures.parse_components(gamma).items()}
    C = component_catalog(gamma)
    assert len(C) == (8 if gamma * gamma == gr(16) else 7)
    table = Ideal(table_polys(load_fixtures().components_intersection, gamma))
    assert ideals_equal(table, components_intersection(C))
