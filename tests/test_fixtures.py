import pytest

from qp3.gaussian import gr
from qp3.multipoly import parse_poly
from qp3.quadratic_algebra import M_VARS, X_VARS
from qp3.fixtures import load_fixtures

from oracles import TABLES


def test_counts():
    fx = load_fixtures()
    assert len(fx.point_scheme_polys) == 15
    assert len(fx.line_scheme_polys) == 46


def test_first_point_fixture():
    fx = load_fixtures()
    f = parse_poly(fx.point_scheme_polys[0], X_VARS, gamma=gr(1))
    assert f == parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS)


def test_first_line_fixture_is_pluecker_polynomial():
    fx = load_fixtures()
    P = parse_poly(fx.line_scheme_polys[0], M_VARS, gamma=gr(1))
    assert P == parse_poly("M12*M34 - M13*M24 + M14*M23", M_VARS)


def test_second_line_fixture_value():
    fx = load_fixtures()
    f = parse_poly(fx.line_scheme_polys[1], M_VARS, gamma=gr(1))
    assert f == parse_poly("2*M13*M14*M23*M24", M_VARS)


def test_degrees_and_homogeneity():
    fx = load_fixtures()
    for gv in (1, 2):
        for text in fx.point_scheme_polys:
            f = parse_poly(text, X_VARS, gamma=gr(gv))
            assert f.is_homogeneous() and f.degree() == 4
        for k, text in enumerate(fx.line_scheme_polys):
            f = parse_poly(text, M_VARS, gamma=gr(gv))
            assert f.is_homogeneous()
            assert f.degree() == (2 if k == 0 else 4)


def test_component_generator_data_present():
    fx = load_fixtures()
    assert list(fx.component_generators) == ["L1", "L2", "L4", "L6a"]
    assert all(len(gens) == 4 for gens in fx.component_generators.values())
    for gamma in (None, gr(2)):
        parsed = fx.parse_components(gamma)
        assert list(parsed) == ["L1", "L2", "L3", "L4", "L5", "L6a", "L6b"]
        assert all(len(gens) == 4 for gens in parsed.values())
    assert {"quartic", "Q6a", "Q6b", "Qa", "Qb"} <= set(fx.surfaces)
    assert set(TABLES["planar_curves"]) == {"L2", "L3", "L4", "L5"}


@pytest.mark.parametrize("errata, reason", [
    ({0: "M12*M34 - M13*M24 + i*M14*M23"}, "not a quartic entry"),
    ({46: "M12^4"}, "not a quartic entry"),
    ({31: "g*M12*M13*M14*M23 + i*M12^2*M14*M24 - M12*M13*"}, "position"),
    ({31: "g*M12*M13*M14*M23 + i*M12^2*M14*M24 - M12*M13*M23^2"
          " - M13*M14*M23*M34 - i*M13*M23*M24"}, "not a quartic:"),
    # identical to the printed entry: no coefficient changed
    ({31: "g*M12*M13*M14*M23 + M12^2*M14*M24 - M12*M13*M23^2"
          " - M13*M14*M23*M34 - i*M13*M23*M24^2"}, "changes 0"),
    ({31: "g*M12*M13*M14*M23 + i*M12^2*M14*M24 - M12*M13*M23^2"
          " - M13*M14*M23*M34 + i*M13*M23*M24^2"}, "changes 2"),
])
def test_validate_rejects_bad_erratum(errata, reason):
    # the errata are checked where they are applied, at every gamma
    fx = load_fixtures()
    bad = fx._replace(line_scheme_errata=errata)
    for gamma in (gr(1), gr(4), None):
        fx.parse_line_polys(gamma, corrected=True)
        bad.parse_line_polys(gamma)
        with pytest.raises(ValueError, match=reason):
            bad.parse_line_polys(gamma, corrected=True)


@pytest.mark.parametrize("field, k, text, reason", [
    ("point_scheme_polys", 3, "x1^3*x2 + x3", "point-scheme fixture not a quartic"),
    ("point_scheme_polys", 0, "g*x1^4 - g*x1^4", "point-scheme fixture not a quartic"),
    ("line_scheme_polys", 0, "M12*M34 - M13*M24 + M14*M23*M12", "fixture 0 has wrong degree"),
    ("line_scheme_polys", 7, "M12^3", "fixture 7 has wrong degree"),
])
def test_parse_rejects_fixture_of_wrong_degree(field, k, text, reason):
    # each text is checked where it is parsed, with g bound or symbolic
    fx = load_fixtures()
    texts = list(getattr(fx, field))
    texts[k] = text
    bad = fx._replace(**{field: tuple(texts)})
    parse = (bad.parse_point_polys if field == "point_scheme_polys"
             else bad.parse_line_polys)
    for gamma in (gr(1), None):
        with pytest.raises(ValueError, match=reason):
            parse(gamma)


def test_loading_parses_no_fixture_text(monkeypatch):
    # a command that reads only components.json pays for no parse
    from qp3 import fixtures

    calls = []
    monkeypatch.setattr(fixtures, "parse_poly",
                        lambda *a, **k: calls.append(a) or parse_poly(*a, **k))
    load_fixtures.cache_clear()
    try:
        load_fixtures()
    finally:
        load_fixtures.cache_clear()
    assert calls == []


def test_memoized_fixtures_are_read_only():
    # every catalog is built from the one FixtureSet load_fixtures keeps
    from qp3.line_scheme import component_catalog

    fx = load_fixtures()
    with pytest.raises(TypeError):
        fx.component_generators["L1"] = ("M12",)
    with pytest.raises(AttributeError):
        fx.component_generators["L1"].append("M12")
    with pytest.raises(TypeError):
        fx.line_scheme_errata[31] = "M12"
    assert len(load_fixtures().component_generators["L1"]) == 4
    assert len(component_catalog(gr(3)).get("L1").ideal.generators) == 4
