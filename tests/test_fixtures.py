from importlib import resources

import pytest

from qp3.gaussian import gr
from qp3.multipoly import parse_poly
from qp3.quadratic_algebra import M_VARS, X_VARS
from qp3.fixtures import load_fixtures, table_polys

import printed
import table_texts
from printed import (LINE_SCHEME_POLYS, POINT_SCHEME_POLYS, TABLES, parse_line_polys,
                     parse_point_polys)


def test_counts():
    assert len(POINT_SCHEME_POLYS) == 15
    assert len(LINE_SCHEME_POLYS) == 46


def test_first_point_fixture():
    f = parse_poly(POINT_SCHEME_POLYS[0], X_VARS, gamma=gr(1))
    assert f == parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS)


def test_first_line_fixture_is_pluecker_polynomial():
    P = parse_poly(LINE_SCHEME_POLYS[0], M_VARS, gamma=gr(1))
    assert P == parse_poly("M12*M34 - M13*M24 + M14*M23", M_VARS)


def test_second_line_fixture_value():
    f = parse_poly(LINE_SCHEME_POLYS[1], M_VARS, gamma=gr(1))
    assert f == parse_poly("2*M13*M14*M23*M24", M_VARS)


def test_degrees_and_homogeneity():
    for gv in (1, 2):
        for text in POINT_SCHEME_POLYS:
            f = parse_poly(text, X_VARS, gamma=gr(gv))
            assert f.is_homogeneous() and f.degree() == 4
        for k, text in enumerate(LINE_SCHEME_POLYS):
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
    assert {"quartic", "Q6a", "Q6b", "Qa", "Qb"} <= set(TABLES["surfaces"])
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
def test_validate_rejects_bad_erratum(errata, reason, monkeypatch):
    # the errata are checked where they are applied, at every gamma
    for gamma in (gr(1), gr(4), None):
        parse_line_polys(gamma, corrected=True)
        with monkeypatch.context() as m:
            m.setattr(printed, "LINE_SCHEME_ERRATA", errata)
            parse_line_polys(gamma)
            with pytest.raises(ValueError, match=reason):
                parse_line_polys(gamma, corrected=True)


@pytest.mark.parametrize("field, k, text, reason", [
    ("POINT_SCHEME_POLYS", 3, "x1^3*x2 + x3", "point-scheme fixture not a quartic"),
    ("POINT_SCHEME_POLYS", 0, "g*x1^4 - g*x1^4", "point-scheme fixture not a quartic"),
    ("LINE_SCHEME_POLYS", 0, "M12*M34 - M13*M24 + M14*M23*M12", "fixture 0 has wrong degree"),
    ("LINE_SCHEME_POLYS", 7, "M12^3", "fixture 7 has wrong degree"),
])
def test_parse_rejects_fixture_of_wrong_degree(field, k, text, reason, monkeypatch):
    # each text is checked where it is parsed, with g bound or symbolic
    texts = list(getattr(printed, field))
    texts[k] = text
    monkeypatch.setattr(printed, field, tuple(texts))
    parse = parse_point_polys if field == "POINT_SCHEME_POLYS" else parse_line_polys
    for gamma in (gr(1), None):
        with pytest.raises(ValueError, match=reason):
            parse(gamma)


def test_loading_parses_no_fixture_text(monkeypatch, fresh_caches):
    # loading the tables and building all three at a gamma and over Q(i)[g]
    # parses no text: the rows are read by multipoly.from_rows alone
    import sys
    from qp3 import multipoly

    calls = []
    original = multipoly.parse_poly
    for name, mod in list(sys.modules.items()):
        if name.startswith("qp3") and getattr(mod, "parse_poly", None) is original:
            monkeypatch.setattr(mod, "parse_poly",
                                lambda *a, **k: calls.append(a) or original(*a, **k))
    fx = load_fixtures()
    for gamma in (gr(3), None):
        fx.parse_components(gamma)
        table_polys(fx.line_scheme, gamma)
        table_polys(fx.components_intersection, gamma)
    assert calls == []


def test_the_shipped_rows_are_the_text_oracles():
    # components.json is exactly what tests/table_texts.py writes from the
    # texts there: a table changed in one place and not the other fails
    shipped = resources.files("qp3").joinpath("data", "components.json").read_text()
    assert shipped == table_texts.components_json()


def _terms(rows):
    a, b, d, *body = rows
    return (a, b, d), [tuple(body[k:k + 9]) for k in range(0, len(body), 9)], len(body) % 9


def test_every_shipped_row_is_well_formed():
    # each polynomial: a scale with d > 0 and a + b*i nonzero, then rows of
    # the ring's arity (six M_ij, g, and x, y), exponents inside the 15-bit
    # fields, no zero coefficient and no monomial twice
    fx = load_fixtures()
    tables = [*fx.component_generators.values(), fx.line_scheme, fx.components_intersection]
    assert [len(t) for t in tables] == [4, 4, 4, 4, 46, 14]
    for table in tables:
        for rows in table:
            (a, b, d), terms, rest = _terms(rows)
            assert d > 0 and (a or b) and terms and not rest
            assert all(0 <= e < 2 ** 15 for t in terms for e in t[:7])
            assert all(t[7] or t[8] for t in terms)
            assert len({t[:7] for t in terms}) == len(terms)


MALFORMED = {
    "arity": (lambda r: r + (0,), "rows of 9 ints"),
    "no term": (lambda r: r[:3], "scale"),
    "no scale": (lambda r: r[:2], "scale"),
    "denominator": (lambda r: r[:2] + (0,) + r[3:], "scale"),
    "zero scale": (lambda r: (0, 0) + r[2:], "scale"),
    "wide exponent": (lambda r: r[:3] + (2 ** 15,) + r[4:], "exponent outside"),
    "negative exponent": (lambda r: r[:3] + (-1,) + r[4:], "exponent outside"),
    "zero coefficient": (lambda r: r[:10] + (0, 0) + r[12:], "coefficient zero"),
    "repeated monomial": (lambda r: r + r[3:12], "repeats"),
}


@pytest.mark.parametrize("malformed", MALFORMED)
def test_a_malformed_row_is_refused(malformed, monkeypatch, fresh_caches):
    # a bad row in a table stops the builder that reads it with a
    # ValueError that names what is wrong: the 46 and the components at a
    # gamma and over Q(i)[g], the intersection in the verify
    import qp3.line_scheme as ls

    change, reason = MALFORMED[malformed]
    fx = load_fixtures()
    bad = change(fx.line_scheme[1])
    gamma = gr(2)
    for field, table, build, gammas in (
            ("line_scheme", (fx.line_scheme[0], bad), ls.line_scheme_ideal, (gamma, None)),
            ("component_generators", {"L2": (bad,)},
             lambda g: ls.load_fixtures().parse_components(g), (gamma, None)),
            ("components_intersection", (bad,), ls.verify_decomposition, (gamma,))):
        mutated = fx._replace(**{field: table})
        monkeypatch.setattr(ls, "load_fixtures", lambda: mutated)
        for g in gammas:
            with pytest.raises(ValueError, match=reason):
                build(g)


def test_memoized_fixtures_are_read_only():
    # every catalog is built from the one FixtureSet load_fixtures keeps
    from qp3.line_scheme import component_catalog

    fx = load_fixtures()
    with pytest.raises(TypeError):
        fx.component_generators["L1"] = ("M12",)
    with pytest.raises(AttributeError):
        fx.component_generators["L1"].append("M12")
    assert len(load_fixtures().component_generators["L1"]) == 4
    assert len(component_catalog(gr(3)).get("L1").ideal.generators) == 4
