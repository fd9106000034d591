from collections import Counter
from fractions import Fraction

import pytest

from qp3.gaussian import gr
from qp3.multipoly import Polynomial, VarSet, parse_poly, substitute
from qp3.groebner import (GroebnerLimits, Ideal, ResourceLimitError,
                          buchberger, ideals_equal, is_unit_mod, limits_scope,
                          normal_form)
from qp3.quadratic_algebra import CHART_VARS, X_VARS, ZeroGammaError, make_A
from qp3.point_scheme import (BASIS_POINTS, E1, E2, E3, E4, NotOnSchemeError,
                              ProjectivePoint, chart_ideal, count_points,
                              point_ideal, rho_system, root_multiplicities, sigma,
                              sigma_forms, sigma_orbit_certificates, symbolic_point,
                              sigma_symbolic, verify_rho_derivation,
                              verify_vanishing_pairs, zgamma_gb, zgamma_ideal)
from qp3.quadratic_algebra import QuadraticAlgebra, bilinear_value
from qp3.cli import parse_gamma
from qp3 import cli
from oracles import SIGMA_SWAPS, sigma_chart_map
from printed import parse_point_polys

# the gamma values whose outputs the digests pin
DIGEST_GAMMAS = ["1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3"]


def test_point_ideal_generator_count():
    assert len(point_ideal(make_A(gr(1))).generators) == 15


def test_point_ideal_matches_fixture_ideal():
    for gv in (1, 4, 5):
        PI = point_ideal(make_A(gr(gv)))
        FI = Ideal(parse_point_polys(gr(gv)))
        assert ideals_equal(PI, FI)


def test_point_minors_over_q_i_g_are_the_printed_list():
    # made monic, the 15 minors over Q(i)[g] are the printed 15 made monic
    generic = [p.monic() for p in point_ideal(make_A(None)).generators]
    assert len(generic) == 15
    assert set(generic) == {p.monic() for p in parse_point_polys(None)}


@pytest.mark.parametrize("text", DIGEST_GAMMAS)
def test_point_minors_over_q_i_g_specialise(text):
    # g -> gamma takes each minor over Q(i)[g] to the minor at gamma, up to
    # a nonzero scalar
    gamma = parse_gamma(text)
    generic = point_ideal(make_A(None)).generators
    minors = point_ideal(make_A(gamma)).generators
    assert len(generic) == len(minors) == 15
    for f, h in zip(generic, minors):
        at = substitute(f, {"g": gamma}, target=X_VARS)
        assert not at.is_zero() and at.monic() == h.monic()


def test_every_generator_vanishes_at_e2():
    for m in point_ideal(make_A(gr(2))).generators:
        acc = gr(0)
        for mono, c in m.terms.items():
            term = c
            for coord, e in zip(E2.coords, mono):
                term = term * coord ** e
            acc = acc + term
        assert acc.is_zero()


def test_rho_system_values():
    rho1, rho2, rho3 = rho_system(gr(1))
    assert rho1 == parse_poly("x4^8 - 4*x4^4 + 1", CHART_VARS)
    assert rho2 == parse_poly("x3^2 - i*x3*x4^2 - 1", CHART_VARS)
    assert rho3 == parse_poly("x2 - 2*i*x4^3 + x3*x4^5", CHART_VARS)


def test_rho1_square_at_gamma_two():
    rho1, _, _ = rho_system(gr(2))
    square = parse_poly("(x4^4 - 2)^2", CHART_VARS)
    assert rho1 == square
    assert root_multiplicities(rho1, "x4") == {2: 4}


def test_root_multiplicities():
    x = VarSet(["x"])
    f = parse_poly("(x - 1)^3 * (x + 1) * (x^2 + 1)^2", x)
    assert root_multiplicities(f, "x") == {3: 1, 1: 1, 2: 2}
    # rho1 = x4^8 - 4 x4^4 + gamma^2 has a double root iff gamma^2 = 4;
    # at gamma = +-2i, gamma^2 = -4 and x4^4 = 2 +- 2 sqrt(2) are distinct
    for gv in (gr(2), gr(-2)):
        assert root_multiplicities(rho_system(gv)[0], "x4") == {2: 4}
    for gv in (gr(0, 2), gr(0, -2), gr(1), gr(4), gr(Fraction(3, 2), 1)):
        assert root_multiplicities(rho_system(gv)[0], "x4") == {1: 8}
    with pytest.raises(ValueError):
        root_multiplicities(parse_poly("x3 + x4", CHART_VARS), "x4")


def test_rho2_independent_of_gamma():
    assert rho_system(gr(1))[1] == rho_system(gr(7))[1]


def test_rho_derivation_verified():
    for gv in (1, 2, 4, 5):
        assert all(verify_rho_derivation(gr(gv)).values())


def test_rho_zero_gamma():
    with pytest.raises(ZeroGammaError):
        rho_system(gr(0))


def test_count_points_gamma_one():
    rep = count_points(make_A(gr(1)))
    assert rep.distinct_count == 20
    assert rep.multiplicity_profile == {1: 20}
    assert rep.total_with_multiplicity == 20
    assert rep.sigma_orbits == (2, 2, 4, 4, 4, 4)
    assert rep.ok


def test_count_points_gamma_two():
    rep = count_points(make_A(gr(2)))
    assert rep.distinct_count == 12
    assert rep.multiplicity_profile == {1: 4, 2: 8}
    assert rep.total_with_multiplicity == 20
    assert rep.sigma_orbits == (2, 2, 4, 4)
    assert not rep.rho1_squarefree
    assert rep.ok


def test_chart_dimension_17():
    assert rep_chart_dim(gr(1)) == 17


def rep_chart_dim(g):
    from qp3.groebner import quotient_dimension

    return quotient_dimension(chart_ideal(make_A(g), 0))


def test_sigma_basis_swaps():
    A = make_A(gr(1))
    assert sigma(E1, A) == E2
    assert sigma(E2, A) == E1
    assert sigma(E3, A) == E4
    assert sigma(E4, A) == E3
    for e in (E1, E2, E3, E4):
        assert sigma(sigma(e, A), A) == e


@pytest.mark.parametrize("text", DIGEST_GAMMAS)
def test_derived_sigma_is_the_typed_sigma(text):
    # sigma read off the relations agrees with the paper's formulas: the
    # swaps at e1..e4, and the chart map on Z_gamma modulo rho, compared
    # projectively by the 2x2 minors of the two vectors
    A = make_A(parse_gamma(text))
    basis = list(BASIS_POINTS.values())
    assert [sigma(e, A) for e in basis] == [basis[SIGMA_SWAPS[k]] for k in range(4)]
    gb = zgamma_gb(A.gamma)
    derived = sigma_symbolic(symbolic_point(), A)
    typed = sigma_chart_map(*symbolic_point(), gr(0, 1))
    assert all(normal_form(derived[j] * typed[k] - derived[k] * typed[j], gb).is_zero()
               for j in range(4) for k in range(j + 1, 4))


def test_sigma_forms_are_the_typed_chart_map():
    # the rows SIGMA_ROWS give i times the typed projective form, which
    # leaves out gamma; at a point off the scheme, with x3 != 0, the
    # chart image is (1, i*a2/a3^2, 1/a3, -i*a4)
    i = gr(0, 1)
    typed = sigma_chart_map(*(Polynomial.variable(X_VARS, n) for n in X_VARS.names), i)
    for gv in (gr(1), gr(3, 2), gr(-4)):
        assert sigma_forms(make_A(gv)) == tuple(i * f for f in typed)
    at = dict(zip(X_VARS.names, (1, 2, 4, 3)))
    q = ProjectivePoint([substitute(f, at).constant_value() for f in sigma_forms(make_A(gr(1)))])
    quarter = gr(1) / gr(4)
    assert q == ProjectivePoint((1, i * gr(2) * quarter * quarter, quarter, -i * gr(3)))


def test_sigma_rejects_points_off_the_scheme():
    with pytest.raises(NotOnSchemeError):
        sigma(ProjectivePoint((1, 1, 1, 1)), make_A(gr(1)))


def test_sigma_refuses_a_point_whose_kernel_is_a_plane():
    # with relation 3 replaced by a copy of relation 5, R(e1) has rank 2
    A = make_A(gr(1))
    B = object.__new__(QuadraticAlgebra)
    object.__setattr__(B, "gamma", A.gamma)
    object.__setattr__(B, "relations", A.relations[:2] + (A.relations[4],) + A.relations[3:])
    with pytest.raises(ValueError, match="rank below 3"):
        sigma(E1, B)


def test_sigma_orbit_certificates():
    for gv in (1, 2, 4):
        cert = sigma_orbit_certificates(make_A(gr(gv)))
        assert cert["sigma4_is_identity"]
        assert cert["sigma2_fixed_point_free"]
        assert cert["sigma_fixed_point_free"]
        assert cert["sigma_preserves_point_ideal"]
        assert cert["x3_is_unit_on_Z"]


def test_sigma_squared_is_coordinate_sign_flip():
    # sigma^2(p) is (1, -x2, x3, -x4) up to a unit factor: the 2x2
    # cross-minors of the two vectors vanish modulo rho
    A = make_A(gr(1))
    p = symbolic_point()
    s2 = sigma_symbolic(sigma_symbolic(p, A), A)
    one, x2, x3, x4 = p
    flip = (one, -x2, x3, -x4)
    gb = zgamma_gb(A.gamma)
    assert all(normal_form(s2[j] * flip[k] - s2[k] * flip[j], gb).is_zero()
               for j in range(4) for k in range(j + 1, 4))
    assert is_unit_mod(s2[0], zgamma_ideal(A.gamma))
    # and not p itself: sigma^2 moves x2 and x4
    assert not normal_form(s2[0] * x2 - s2[1], gb).is_zero()


@pytest.mark.parametrize("gamma", [gr(1), gr(2), gr(4), gr(-4), gr(3, 3), gr(1, 3)],
                         ids=str)
def test_vanishing_pairs(gamma):
    assert verify_vanishing_pairs(make_A(gamma))


def test_vanishing_pairs_negative_control():
    # relation three evaluated at (e1, e3) is x3 x1 - x1 x3 + x2^2 at
    # p = e1, q = e3: the word x1 x3 contributes -1
    A = make_A(gr(1))
    val = bilinear_value(A.relations[2], E1.coords, E3.coords)
    assert val.constant_value() == gr(-1)


def test_vanishing_pairs_fail_where_sigma_p_is_not_the_only_partner():
    # a relation replaced by a copy of another still vanishes on every
    # (p, sigma p), but the five distinct ones leave R(p) of rank 2 at some
    # basis point.  The copy would be refused by the constructor, so the
    # record is filled in directly.
    A = make_A(gr(3, 2))
    p_sym = symbolic_point()
    q_sym = sigma_symbolic(p_sym, A)
    gb = buchberger(zgamma_ideal(A.gamma))
    for f in A.relations:
        assert all(bilinear_value(f, p.coords, sigma(p, A).coords).is_zero()
                   for p in BASIS_POINTS.values())
        assert normal_form(bilinear_value(f, p_sym, q_sym), gb).is_zero()
    for r in range(6):
        for src in range(6):
            if r == src:
                continue
            B = object.__new__(QuadraticAlgebra)
            object.__setattr__(B, "gamma", A.gamma)
            object.__setattr__(B, "relations",
                               A.relations[:r] + (A.relations[src],) + A.relations[r + 1:])
            assert not verify_vanishing_pairs(B), (r, src)


def test_alpha3_nonzero_on_Z():
    # 1 in <rho1, rho2, rho3, x3>: sigma's first form, i*x3^2 on the
    # chart, vanishes nowhere on Z_gamma
    rho = zgamma_ideal(gr(1))
    x3 = Polynomial.variable(CHART_VARS, "x3")
    G = buchberger(Ideal(list(rho.generators) + [x3]))
    assert G.contains_one()


def test_separability_witness_is_unit_mod_rho1():
    rho1, _, _ = rho_system(gr(5))
    disc = parse_poly("4 - x4^4", CHART_VARS)
    assert is_unit_mod(disc, Ideal([rho1]))


def test_sigma_at_x3_zero():
    # the chart map divides by x3; sigma, the kernel of R(p), does not: on
    # the scheme x3 = 0 holds at e1, e2 and e4, and off it sigma refuses
    A = make_A(gr(1))
    basis = list(BASIS_POINTS.values())
    for k in (0, 1, 3):
        assert sigma(basis[k], A) == basis[SIGMA_SWAPS[k]]
    with pytest.raises(NotOnSchemeError):
        sigma(ProjectivePoint((1, 5, 0, 3)), A)
    # a residue vector whose x3 is no unit modulo rho: the first image
    # coordinate, i*x1*x3^2 there, is no unit either
    one, x2, _, x4 = symbolic_point()
    image = sigma_symbolic((one, x2, x4 * x4 * x4 * x4 - 2, x4), make_A(gr(2)))
    assert not is_unit_mod(image[0], zgamma_ideal(gr(2)))


def test_count_points_builds_the_point_ideal_once(fresh_caches, monkeypatch):
    # chart_ideal (four charts) and the rho and sigma certificates all
    # share one set of fifteen minors per algebra
    import qp3.point_scheme as ps

    builds = []
    real = ps.all_minors

    def counted(m, k):
        builds.append(k)
        return real(m, k)

    monkeypatch.setattr(ps, "all_minors", counted)
    assert count_points(make_A(gr(1))).ok
    assert builds == [4]


def test_count_points_builds_each_chart_ideal_once(fresh_caches, monkeypatch):
    # the chart loop and the rho certificate share the chart x1 = 1: each
    # chart's minors are substituted once per algebra
    import qp3.point_scheme as ps

    charts = Counter()
    real = ps.substitute

    def counted(f, assign, *args, **kwargs):
        charts.update(k for k, spec in enumerate(ps.CHART_SPECS) if assign == spec[1])
        return real(f, assign, *args, **kwargs)

    monkeypatch.setattr(ps, "substitute", counted)
    A = make_A(gr(Fraction(3, 2), 1))
    assert count_points(A).ok
    minors = len(point_ideal(A).generators)
    assert charts == {k: minors for k in range(len(ps.CHART_SPECS))}


def test_count_points_parses_the_rho_system_once(fresh_caches, monkeypatch):
    # the rho certificate, the sigma orbits and Z_gamma's basis all read
    # rho1, rho2 and rho3, and each text is parsed once per gamma
    import qp3.point_scheme as ps

    parsed = []
    real = ps.parse_poly

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(ps, "parse_poly", counted)
    assert count_points(make_A(gr(Fraction(5, 2)))).ok
    assert sorted(t for t in parsed if t in ps.RHO_STRINGS) == sorted(ps.RHO_STRINGS)


def test_certificate_caches_respect_the_limits(capsys):
    # the bases and the answers are cached per input and per limits, so
    # an unrestricted run cannot lend its results to a narrow one
    narrow = GroebnerLimits(max_pairs=20)
    A = make_A(gr(1))
    with pytest.raises(ResourceLimitError):
        with limits_scope(narrow):
            count_points(A)
    assert count_points(A).ok
    with pytest.raises(ResourceLimitError):
        with limits_scope(narrow):
            count_points(A)
    # line-scheme --verify forms no S-pair, but its basis of the 46 has 46
    # elements; the largest run of lines-through --symbolic forms 14 pairs
    for flag, command in (("--max-basis=20", ["line-scheme", "--verify"]),
                          ("--max-pairs=10", ["lines-through", "--symbolic"])):
        assert cli.main(["--gamma=1", *command]) == cli.EXIT_OK
        assert cli.main(["--gamma=1", flag, *command]) == cli.EXIT_RESOURCE
    assert "resource limit" in capsys.readouterr().err
