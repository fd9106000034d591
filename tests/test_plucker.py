import json
import random
from fractions import Fraction

import pytest

from qp3.gaussian import ZERO, gr
from qp3.multipoly import Polynomial, parse_poly, substitute
from qp3.quadratic_algebra import X_VARS
from qp3.point_scheme import BASIS_POINTS, E1, E2, E3, E4, ProjectivePoint
from qp3 import cli, groebner, plucker
from qp3.groebner import Ideal
from qp3.line_scheme import (ComponentCatalog, component_catalog,
                             line_scheme_ideal, scheme_in_ideal)
from qp3.plucker import (DependentPointsError, PluckerLine, ZeroParameterError,
                         evaluate_in_M, line_family, line_from_points,
                         line_in_component, lines_through_point, pluecker_join,
                         point_on_line, ruling_lines, surface_containment)

from printed import TABLES


def test_line_from_basis_points():
    l = line_from_points(E1, E2)
    assert l.normalized() == (gr(1), ZERO, ZERO, ZERO, ZERO, ZERO)
    l34 = line_from_points(E3, E4)
    assert l34.normalized() == (ZERO, ZERO, ZERO, ZERO, ZERO, gr(1))


def test_line_from_family_matrix_rows():
    # rows (a1, 0, a3, 0) and (0, b2, 0, b4) give the stated coordinates
    a1, a3, b2, b4 = gr(2), gr(3), gr(5), gr(7)
    l = line_from_points(ProjectivePoint((a1, 0, a3, 0)),
                         ProjectivePoint((0, b2, 0, b4)))
    assert l.coords == (a1 * b2, ZERO, a1 * b4, -(a3 * b2), ZERO, a3 * b4)


def test_dependent_points_rejected():
    with pytest.raises(DependentPointsError):
        line_from_points(E1, ProjectivePoint((2, 0, 0, 0)))


def test_point_on_line_examples():
    l = line_from_points(E1, E2)
    assert point_on_line(E1, l)
    assert point_on_line(E2, l)
    assert not point_on_line(E3, l)
    assert point_on_line(ProjectivePoint((2, 3, 0, 0)), l)


def test_point_on_line_family_instance():
    alpha, beta = gr(3), gr(Fraction(1, 2))
    l = line_from_points(ProjectivePoint((alpha, 0, 1, 0)),
                         ProjectivePoint((0, beta, 0, 1)))
    p = ProjectivePoint((1, beta, alpha.inverse(), 1))
    # p = (1, beta, 1/alpha, 1) satisfies x1 = alpha x3 and x2 = beta x4
    assert point_on_line(p, l)


def _random_point(rng):
    while True:
        c = [gr(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(4)]
        if any(not x.is_zero() for x in c):
            return ProjectivePoint(c)


def test_pluecker_identity_random():
    rng = random.Random(31)
    n = 0
    while n < 100:
        a, b = _random_point(rng), _random_point(rng)
        try:
            l = line_from_points(a, b)
        except DependentPointsError:
            continue
        n += 1
        m12, m13, m14, m23, m24, m34 = l.coords
        assert (m12 * m34 - m13 * m24 + m14 * m23).is_zero()
        assert point_on_line(a, l) and point_on_line(b, l)


def test_incidence_agrees_with_rank_oracle():
    from oracles import rank

    rng = random.Random(37)
    n = 0
    while n < 100:
        a, b = _random_point(rng), _random_point(rng)
        try:
            l = line_from_points(a, b)
        except DependentPointsError:
            continue
        n += 1
        p = _random_point(rng) if n % 2 else a
        stacked = [list(a.coords), list(b.coords), list(p.coords)]
        assert point_on_line(p, l) == (rank(stacked) == 2)


def test_six_lines_generic_gamma_one():
    rep = lines_through_point("generic", gr(1))
    assert rep.ok
    assert rep.total == 6
    assert len(rep.branches) == 2
    for b in rep.branches:
        assert b.proper and b.quotient_dim == 8 and b.distinct
        names = [l.component for l in b.lines]
        assert names[0] == "L1" and set(names[1:5]) == {"L2", "L3", "L4", "L5"}
        assert names[5] in ("L6a", "L6b")


def test_six_lines_generic_gamma_four():
    rep = lines_through_point("generic", gr(4))
    assert rep.ok
    assert rep.total == 6
    assert len(rep.branches) == 4
    for b in rep.branches:
        assert b.proper and b.quotient_dim == 4 and b.distinct
        assert b.lines[0].component in ("L1a", "L1b")


@pytest.mark.parametrize("gamma, runs, images", [(gr(Fraction(3, 2), 1), 17, 28),
                                                  (gr(4), 27, 32)])
def test_six_lines_ask_each_question_once(fresh_caches, monkeypatch, gamma, runs,
                                          images):
    # rho is counted in lex, -x2 and i*x4 read the unit answers of x2 and
    # x4, and each line's images are built once for every branch: before,
    # these read 27 runs and 48 images at 3/2+i, 47 and 96 at 4
    calls = {"runs": 0, "images": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(groebner, "_buchberger", counted("runs", groebner._buchberger))
    monkeypatch.setattr(plucker, "evaluate_in_M", counted("images", plucker.evaluate_in_M))
    assert lines_through_point("generic", gamma).ok
    assert calls["runs"] <= runs and calls["images"] <= images


def test_line_scheme_lies_in_every_component_ideal():
    # in_line_scheme is certified through this membership, so at these
    # gamma every component certifies its own lines
    for g in (gr(1), gr(4), gr(3, 2)):
        L = line_scheme_ideal(g)
        assert all(scheme_in_ideal(L, c.ideal) for c in component_catalog(g))
    # at -4 the L1 line of a branch lies in the other L1 conic's component,
    # whose ideal holds the 46 too
    rep = lines_through_point("generic", gr(-4))
    assert all(l.in_line_scheme for b in rep.branches for l in b.lines)


def test_in_line_scheme_needs_the_46_in_the_component_ideal(monkeypatch, capsys,
                                                           fresh_caches):
    # L2 without its cubic is a larger component whose ideal misses the
    # 46: its line still lies in it, but is not certified in the scheme.
    # The CLI's answer memo would read back an earlier gamma = 1 answer
    C = component_catalog(gr(1))
    l2 = C.get("L2")
    weak = l2._replace(ideal=Ideal(list(l2.ideal.generators[:-1])))
    assert not scheme_in_ideal(line_scheme_ideal(gr(1)), weak.ideal)
    catalog = ComponentCatalog(gamma=C.gamma, components=tuple(
        weak if c.name == "L2" else c for c in C))
    monkeypatch.setattr(plucker, "component_catalog", lambda gamma: catalog)
    rep = lines_through_point("generic", gr(1))
    for b in rep.branches:
        for l in b.lines:
            assert l.in_component
            assert l.in_line_scheme == (l.component != "L2")
    assert not rep.ok
    assert cli.main(["--gamma", "1", "lines-through", "--symbolic"]) == 2
    assert "verified: NO" in capsys.readouterr().out


def test_basis_points_infinite():
    for name in ("e1", "e2", "e3", "e4"):
        rep = lines_through_point(name, gr(1))
        assert rep.infinite and rep.total == "infinite"
    rep2 = lines_through_point("e2", gr(1))
    # the pencil through e2 comes from L2
    assert rep2.component_dimensions["L2"][0] == 1
    assert all(d <= 0 for n, (d, _) in rep2.component_dimensions.items()
               if n != "L2")


@pytest.mark.parametrize("point", ["e5", "E2", "", None, E2],
                         ids=["e5", "E2", "empty", "None", "ProjectivePoint"])
def test_lines_through_takes_only_a_point_name(point):
    # the CLI's names and nothing else: no None for generic, no point object
    with pytest.raises(ValueError, match="point must be a basis point or 'generic'"):
        lines_through_point(point, gr(1))


def test_pencil_component_matches_fixture_table():
    table = TABLES["pencil_points"]
    for comp_name, point_name in table.items():
        rep = lines_through_point(point_name, gr(1))
        assert rep.component_dimensions[comp_name][0] == 1


@pytest.mark.parametrize("gamma", [gr(1), gr(5), gr(Fraction(3, 2), 1), gr(4)],
                         ids=["1", "5", "3/2+i", "4"])
def test_pencil_lines_pull_back_to_the_plane_cubics(gamma):
    # L_k is the pencil of lines joining its pencil point to the points of
    # a plane: on the join with a generic point of that plane, the linear
    # generators of L_k vanish and its cubic is +- the plane's cubic
    for name, (plane, cubic) in TABLES["planar_curves"].items():
        pencil = [Polynomial.constant(X_VARS, c)
                  for c in BASIS_POINTS[TABLES["pencil_points"][name]].coords]
        point = [Polynomial.zero(X_VARS) if n == plane else Polynomial.variable(X_VARS, n)
                 for n in X_VARS.names]
        join = pluecker_join(pencil, point)
        *linear, curve = (evaluate_in_M(f, join, X_VARS)
                          for f in component_catalog(gamma).get(name).ideal.generators)
        assert all(f.is_zero() for f in linear)
        plane_cubic = parse_poly(cubic, X_VARS, gamma=gamma)
        assert curve in (plane_cubic, -plane_cubic)


_CONTAINMENT_GAMMAS = pytest.mark.parametrize(
    "gamma", [gr(1), gr(5), gr(3, 2)], ids=["1", "5", "3+2*i"])


@_CONTAINMENT_GAMMAS
def test_surface_containment_quartic(gamma):
    fam = line_family("L1", gamma)
    quartic = parse_poly(TABLES["surfaces"]["quartic"], X_VARS, gamma=gamma)
    assert surface_containment(fam, quartic)


@_CONTAINMENT_GAMMAS
def test_surface_containment_quadrics(gamma):
    q6a = parse_poly(TABLES["surfaces"]["Q6a"], X_VARS)
    q6b = parse_poly(TABLES["surfaces"]["Q6b"], X_VARS)
    fam_a = line_family("L6a", gamma)
    fam_b = line_family("L6b", gamma)
    assert surface_containment(fam_a, q6a)
    assert not surface_containment(fam_a, q6b)
    assert surface_containment(fam_b, q6b)
    assert not surface_containment(fam_b, q6a)


@_CONTAINMENT_GAMMAS
def test_family_constraints_are_the_swept_surfaces(gamma):
    # the conics' joins are their whole families; the L1 join is cut out by
    # the quartic its lines sweep, read in the rows' parameters x1..x4
    assert line_family("L6a", gamma).constraints == ()
    assert line_family("L6b", gamma).constraints == ()
    (c,) = line_family("L1", gamma).constraints
    quartic = parse_poly(TABLES["surfaces"]["quartic"], X_VARS, gamma=gamma)
    unit = c.leading_coefficient() * quartic.leading_coefficient().inverse()
    assert c == quartic * unit


def test_surface_containment_gamma4():
    qa = parse_poly(TABLES["surfaces"]["Qa"], X_VARS)
    qb = parse_poly(TABLES["surfaces"]["Qb"], X_VARS)
    assert surface_containment(line_family("L1a", gr(4)), qa)
    assert surface_containment(line_family("L1b", gr(4)), qb)


def test_surface_containment_gamma_minus4():
    # A(gamma) and A(-gamma) are isomorphic by x2 -> -x2, which takes the
    # gamma = 4 quadrics to the ones the gamma = -4 families sweep, with
    # the roles of Qa and Qb exchanged
    flip = {"x2": -Polynomial.variable(X_VARS, "x2")}
    qa, qb = (substitute(parse_poly(TABLES["surfaces"][q], X_VARS), flip)
              for q in ("Qa", "Qb"))
    assert surface_containment(line_family("L1a", gr(-4)), qb)
    assert surface_containment(line_family("L1b", gr(-4)), qa)


def test_ruling_lines_examples():
    cat = component_catalog(gr(1))
    l = ruling_lines("Q6a", (1, 0))
    assert l.normalized() == (ZERO, ZERO, ZERO, ZERO, gr(1), ZERO)
    assert line_in_component(l, cat.get("L6a").ideal)
    l2 = ruling_lines("Q6b", (0, 1))
    assert line_in_component(l2, cat.get("L6b").ideal)
    # the (0,1) member of the Q6b ruling is V(x2, x4) = span(e1, e3)
    assert l2 == line_from_points(E1, E3)
    cat4 = component_catalog(gr(4))
    l3 = ruling_lines("Qa", 0)
    assert l3 == line_from_points(E3, ProjectivePoint((0, 1, 0, 1)))
    assert line_in_component(l3, cat4.get("L1a").ideal)
    l4 = ruling_lines("Qb", 0)
    assert line_in_component(l4, cat4.get("L1b").ideal)


def test_ruling_lines_sweep_components():
    cat = component_catalog(gr(1))
    rng = random.Random(41)
    for _ in range(10):
        d, e = rng.randint(-3, 3), rng.randint(-3, 3)
        if d == 0 and e == 0:
            continue
        assert line_in_component(ruling_lines("Q6a", (d, e)), cat.get("L6a").ideal)
        assert line_in_component(ruling_lines("Q6b", (d, e)), cat.get("L6b").ideal)
    cat4 = component_catalog(gr(4))
    for a in (-2, -1, 1, 2, 5, None):
        assert line_in_component(ruling_lines("Qa", a), cat4.get("L1a").ideal)
        assert line_in_component(ruling_lines("Qb", a), cat4.get("L1b").ideal)


_I, _Z = gr(0, 1), gr(Fraction(3, 2), 1)


@pytest.mark.parametrize("quadric, param, expected", [
    ("Q6a", (1, 0), ("0", "0", "0", "0", "1", "0")),
    ("Q6a", (0, 1), ("0", "1", "0", "0", "0", "0")),
    ("Q6a", (2, -3), ("1", "3/2*i", "0", "0", "2/3", "i")),
    ("Q6a", (_I, _Z), ("1", "-3/2 - i", "0", "0", "-4/13 - 6/13*i", "i")),
    ("Q6b", (1, 0), ("0", "0", "0", "0", "1", "0")),
    ("Q6b", (0, 1), ("0", "1", "0", "0", "0", "0")),
    ("Q6b", (2, -3), ("1", "-3/2", "0", "0", "2/3*i", "-i")),
    ("Q6b", (_I, _Z), ("1", "1 - 3/2*i", "0", "0", "6/13 - 4/13*i", "-i")),
    ("Qa", 0, ("0", "0", "0", "1", "0", "-1")),
    ("Qa", 1, ("0", "0", "1", "0", "0", "1")),
    ("Qa", -1, ("1", "0", "0", "1", "0", "0")),
    ("Qa", gr(Fraction(1, 3)), ("1", "0", "2", "-3", "0", "6")),
    ("Qa", gr(1, 2), ("1", "0", "-1 + i", "-1/5 + 2/5*i", "0", "1/5 + 3/5*i")),
    ("Qa", None, ("1", "0", "-1", "0", "0", "0")),
    ("Qb", 0, ("1", "0", "1", "0", "0", "0")),
    ("Qb", 1, ("1", "0", "0", "-1", "0", "0")),
    ("Qb", -1, ("0", "0", "1", "0", "0", "-1")),
    ("Qb", gr(Fraction(1, 3)), ("1", "0", "1/2", "-1/3", "0", "1/6")),
    ("Qb", gr(1, 2), ("1", "0", "-1/2 - 1/2*i", "-1 - 2*i", "0", "1/2 - 3/2*i")),
    ("Qb", None, ("0", "0", "0", "1", "0", "1")),
])
def test_ruling_lines_pinned(quadric, param, expected):
    # the rulings as the transcribed point pairs gave them
    assert tuple(map(str, ruling_lines(quadric, param).normalized())) == expected


def test_ruling_zero_parameter():
    with pytest.raises(ZeroParameterError):
        ruling_lines("Q6a", (0, 0))


def test_l1_family_rational_instances():
    # (alpha^2-1)(beta^2-1) = gamma alpha beta instances land on V(I(L1))
    cases = {
        gr(1): [(gr(0), gr(1)), (gr(0), gr(-1)), (gr(1), gr(0)), (gr(-1), gr(0))],
        gr(4): [(gr(0), gr(1)), (gr(2), gr(Fraction(-1, 3))),
                (gr(3), gr(Fraction(-1, 2))), (gr(5), gr(Fraction(-2, 3)))],
    }
    for g, pairs in cases.items():
        cat = component_catalog(g)
        comp_names = ["L1"] if g == gr(1) else ["L1a", "L1b"]
        ideals = [cat.get(n).ideal for n in comp_names]
        for alpha, beta in pairs:
            lhs = (alpha * alpha - gr(1)) * (beta * beta - gr(1))
            assert lhs == g * alpha * beta
            l = line_from_points(ProjectivePoint((alpha, 0, 1, 0)),
                                 ProjectivePoint((0, beta, 0, 1)))
            if g == gr(1):
                assert line_in_component(l, ideals[0])
            else:
                assert any(line_in_component(l, I) for I in ideals)


def test_pluecker_line_validates_identity():
    with pytest.raises(ValueError):
        PluckerLine((1, 0, 0, 0, 0, 1))  # violates the quadric
    with pytest.raises(ValueError):
        PluckerLine((1, 0, 0, 0))


def test_pluecker_line_is_a_point_of_p5():
    l = PluckerLine((0, 0, 0, 0, 0, 2))
    assert isinstance(l, ProjectivePoint)
    assert l == line_from_points(E3, E4) and hash(l) == hash(line_from_points(E3, E4))
    assert repr(l) == "PluckerLine(0, 0, 0, 0, 0, 1)"
    assert l.__eq__(E4) is NotImplemented and E4.__eq__(l) is NotImplemented
    assert l != E4 and E4 != l


@pytest.mark.xfail(strict=True, reason="the gamma = -4 row of plucker._branch_factors "
                   "swaps L1a and L1b (ROADMAP item 1)")
def test_gamma_minus_4_six_lines_are_verified(capsys):
    code = cli.main(["--gamma=-4", "lines-through", "--symbolic", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    checks = [l for b in report["branches"] for l in b["lines"]]
    assert len(checks) == 4 * 6
    assert [l["component"] for l in checks if not all(
        v for k, v in l.items() if k != "component")] == []
    assert code == 0 and report["verified"]


def test_line_check_transcript_serializes():
    import json

    rep = lines_through_point("generic", gr(1))
    doc = rep.to_json_dict()
    text = json.dumps(doc)
    assert json.loads(text)["total"] == 6
