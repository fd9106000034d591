from fractions import Fraction

import pytest

from qp3.gaussian import gr
from qp3.multipoly import Polynomial, VarSet, parse_poly
from qp3.groebner import (GroebnerLimits, Ideal, ResourceLimitError, buchberger,
                          ideals_equal, is_unit_mod, limits_scope)
from qp3.quadratic_algebra import CHART_VARS, ZeroGammaError, make_A
from qp3.point_scheme import (E1, E2, E3, E4, NotOnSchemeError,
                              ProjectivePoint, UndefinedAtPointError,
                              chart_ideal, count_points, point_ideal,
                              rho_system, root_multiplicities, sigma,
                              sigma_orbit_certificates, symbolic_point,
                              sigma_symbolic, verify_rho_derivation,
                              verify_vanishing_pairs, zgamma_ideal,
                              _sigma_formula)
from qp3.quadratic_algebra import tensor_bilinear
from qp3.fixtures import load_fixtures
from qp3 import cli


def test_point_ideal_generator_count():
    assert len(point_ideal(make_A(gr(1))).generators) == 15


def test_point_ideal_matches_fixture_ideal():
    for gv in (1, 4, 5):
        PI = point_ideal(make_A(gr(gv)))
        FI = Ideal(load_fixtures().parse_point_polys(gr(gv)))
        assert ideals_equal(PI, FI)


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
        assert verify_rho_derivation(gr(gv))["all"]


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
    g = gr(1)
    assert sigma(E1, g) == E2
    assert sigma(E2, g) == E1
    assert sigma(E3, g) == E4
    assert sigma(E4, g) == E3
    for e in (E1, E2, E3, E4):
        assert sigma(sigma(e, g), g) == e


def test_sigma_rejects_points_off_the_scheme():
    with pytest.raises(NotOnSchemeError):
        sigma(ProjectivePoint((1, 1, 1, 1)), gr(1))


def test_sigma_orbit_certificates():
    for gv in (1, 2, 4):
        cert = sigma_orbit_certificates(gr(gv))
        assert cert["sigma4_is_identity"]
        assert cert["sigma2_fixed_point_free"]
        assert cert["sigma_fixed_point_free"]
        assert cert["sigma_preserves_point_ideal"]
        assert cert["x3_is_unit_on_Z"]


def test_sigma_squared_is_coordinate_sign_flip():
    g = gr(1)
    p = symbolic_point()
    s2 = sigma_symbolic(sigma_symbolic(p, g), g)
    x2 = Polynomial.variable(CHART_VARS, "x2")
    x3 = Polynomial.variable(CHART_VARS, "x3")
    x4 = Polynomial.variable(CHART_VARS, "x4")
    assert s2[1] == -x2 and s2[2] == x3 and s2[3] == -x4


def test_vanishing_pairs():
    assert verify_vanishing_pairs(make_A(gr(1)))
    assert verify_vanishing_pairs(make_A(gr(4)))


def test_vanishing_pairs_negative_control():
    # relation three evaluated at (e1, e3) is x3 x1 - x1 x3 + x2^2 at
    # p = e1, q = e3: the x1 (x) x3 slot contributes -1
    A = make_A(gr(1))
    val = tensor_bilinear(A.relations[2], E1.coords, E3.coords)
    assert not val.is_zero()


def test_alpha3_nonzero_on_Z():
    # 1 in <rho1, rho2, rho3, x3>: sigma's formula never divides by zero
    rho = zgamma_ideal(gr(1))
    x3 = Polynomial.variable(CHART_VARS, "x3")
    G = buchberger(Ideal(list(rho.generators) + [x3]))
    assert G.contains_one()


def test_separability_witness_is_unit_mod_rho1():
    rho1, _, _ = rho_system(gr(5))
    disc = parse_poly("4 - x4^4", CHART_VARS)
    assert is_unit_mod(disc, Ideal([rho1]))


def test_sigma_formula_path():
    # formula arithmetic on a synthetic chart point, off the scheme, so
    # without sigma's scheme check
    p = ProjectivePoint((1, 2, 4, 3))
    q = _sigma_formula(p)
    i = gr(0, 1)
    quarter = gr(1) / gr(4)
    assert q.coords[0] == gr(1)
    assert q.coords[1] == i * gr(2) * (quarter * quarter)
    assert q.coords[2] == quarter
    assert q.coords[3] == -i * gr(3)


def test_sigma_undefined_at_x3_zero():
    with pytest.raises(UndefinedAtPointError):
        _sigma_formula(ProjectivePoint((1, 5, 0, 3)))


def test_count_points_builds_the_point_ideal_once(fresh_caches, monkeypatch):
    # chart_ideal (four charts), sigma (four basis points) and the rho and
    # sigma certificates all share one set of fifteen minors per algebra
    import qp3.point_scheme as ps

    builds = []
    real = ps.all_minors

    def counted(m, k):
        builds.append(k)
        return real(m, k)

    monkeypatch.setattr(ps, "all_minors", counted)
    assert count_points(make_A(gr(1))).ok
    assert builds == [4]


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
    for command in (["line-scheme", "--verify"], ["lines-through", "--symbolic"]):
        assert cli.main(["--gamma=1", *command]) == cli.EXIT_OK
        assert (cli.main(["--gamma=1", "--max-pairs=20", *command])
                == cli.EXIT_RESOURCE)
    assert "resource limit" in capsys.readouterr().err
