import numpy as np
import pytest

from qp3.gaussian import gr
from qp3.multipoly import VarSet, parse_poly
from qp3.point_scheme import (ProjectivePoint, UndefinedAtPointError, _sigma_formula,
                             count_points)
from qp3.quadratic_algebra import M_VARS, make_A
from qp3 import numeric
from qp3.cli import parse_gamma
from qp3.numeric import (DEFAULT_TOL, DISTINCT_TOL, RECOMPUTE_ABOVE,
                         ComplexPoint, ConvergenceError, DegeneratePointError,
                         distinct_count, enumerate_points,
                         line_residual, minor_residual, proj_distance,
                         sigma_numeric, six_lines_numeric)
from qp3.fixtures import load_fixtures
from qp3.line_scheme import component_catalog
from qp3.plucker import GENERIC_LINES


def _x4_roots(gamma):
    """The x4 coordinates of the sixteen chart points of enumerate_points."""
    return [p.coords[3] / p.coords[0] for p in enumerate_points(gamma)[4:]]


def _distinct(values, tol=1e-6):
    reps = []
    for v in values:
        if all(abs(v - r) > tol for r in reps):
            reps.append(v)
    return reps


def test_rho1_roots_gamma_one():
    roots = _distinct(_x4_roots(gr(1)))
    assert len(roots) == 8
    # x4^4 takes exactly the two values 2 +- sqrt(3)
    quads = sorted({round((r ** 4).real, 8) for r in roots})
    assert np.allclose(quads, [2 - np.sqrt(3), 2 + np.sqrt(3)])
    assert all(abs((r ** 4).imag) < 1e-8 for r in roots)


def test_rho1_roots_gamma_two_doubled():
    assert len(_distinct(_x4_roots(gr(2)))) == 4


@pytest.mark.parametrize("t", [1e-9, 1e-12])
def test_proj_distance_resolves_small_angles(t):
    # sqrt(1 - inner^2) cancels to 0.0 here; the wedge form keeps t
    d = proj_distance((1, 0, 0, 0, 0, 0), (1, t, 0, 0, 0, 0))
    assert d == pytest.approx(t, rel=1e-6)


def test_enumerate_points_counts():
    assert distinct_count(enumerate_points(gr(1))) == 20
    assert distinct_count(enumerate_points(gr(2))) == 12
    assert distinct_count(enumerate_points(gr(5))) == 20


@pytest.mark.parametrize("text", ["1", "3/2+i", "1/2^10"])
def test_closed_form_points_match_the_quadratic_formula(text):
    # where nothing cancels, the retry's closed forms give the same two
    # points over each x4, in the same order
    g = parse_gamma(text).to_complex()
    pts = enumerate_points(parse_gamma(text))[4:]
    for first, second in zip(pts[0::2], pts[1::2]):
        c = first.coords / first.coords[0]
        pair = numeric._points_without_cancellation(c[3], g, c[2])
        assert proj_distance(pair[0].coords, first.coords) < 1e-12
        assert proj_distance(pair[1].coords, second.coords) < 1e-12


@pytest.mark.parametrize("text", ["1/2^22", "1/2^30*i", "-1/2^38"])
def test_small_gamma_points_are_recomputed_without_cancellation(text):
    # the quadratic formula leaves minor residuals up to 0.14 here, where
    # enumerate_points used to raise; the two points over each x4 must stay
    # distinct after the recomputation, even where the discriminant is noise
    g = parse_gamma(text)
    pts = enumerate_points(g)
    assert max(minor_residual(p.coords, g.to_complex())
               for p in pts) < DEFAULT_TOL
    assert distinct_count(pts) == 20


@pytest.mark.parametrize("text", ["1/2^10*i", "-1/2^10*i", "1/2^23*i",
                                  "-1/2^23*i"])
def test_points_over_the_trigger_take_the_closed_forms(text):
    # the quadratic formula's points pass DEFAULT_TOL here (7.4e-9 and
    # 6.2e-9), but some of their lines fail it; the closed forms are tried
    # above RECOMPUTE_ABOVE and kept, and every line then passes
    g = parse_gamma(text)
    pts = enumerate_points(g)
    assert max(minor_residual(p.coords, g.to_complex())
               for p in pts) < RECOMPUTE_ABOVE
    assert all(len(six_lines_numeric(p, g)) == 6 for p in pts[4:])


def test_enumerate_matches_exact_counts():
    for gv in (1, 2, 4, 5):
        exact = count_points(make_A(gr(gv)))
        numeric = distinct_count(enumerate_points(gr(gv)))
        assert numeric == exact.distinct_count


def test_minor_residuals_small():
    for gv in (1, 2 ** 35):
        g = gr(gv)
        pts = enumerate_points(g, tol=float("inf"))
        assert max(minor_residual(p.coords, g.to_complex())
                   for p in pts) < DEFAULT_TOL


def test_six_lines_per_point():
    pts = enumerate_points(gr(1))
    for p in pts[4:]:
        lines = six_lines_numeric(p, gr(1))
        assert len(lines) == 6
        for m in lines:
            assert line_residual(m, 1.0) < 1e-8


def test_compiled_residuals_equal_evaluate_bit_for_bit():
    fx = load_fixtures()
    minors = fx.parse_point_polys(None)
    quartics = fx.parse_line_polys(None)
    m_names = ("M12", "M13", "M14", "M23", "M24", "M34")
    for text in ("1", "3/2+i", "1/7-2/3*i", "2^25"):
        g = parse_gamma(text).to_complex()
        pts = enumerate_points(parse_gamma(text))
        for p in pts:
            at = dict(zip(("x1", "x2", "x3", "x4"), p.coords), g=g)
            assert minor_residual(p.coords, g) == max(
                abs(f.evaluate(at)) for f in minors)
        for p in pts[4:]:
            for m in six_lines_numeric(p, g):
                at = dict(zip(m_names, m), g=g)
                assert line_residual(m, g) == max(
                    abs(f.evaluate(at)) for f in quartics)


def test_line_separation_scales_with_gamma():
    # below |gamma| = 1 the threshold is DISTINCT_TOL, as before; the least
    # distance between two lines falls like |gamma|^(-1/2), and so does it
    for g in (1, 1j, 0.5, -1 / 7):
        assert numeric._line_separation(g) == DISTINCT_TOL
    assert numeric._line_separation(4.0) == DISTINCT_TOL / 2
    assert numeric._line_separation(2.0 ** 60) == numeric.LINE_DISTINCT_FLOOR


def test_coincident_lines_raise(monkeypatch):
    p = enumerate_points(gr(1))[4]
    line = six_lines_numeric(p, gr(1))[0]
    monkeypatch.setattr(numeric, "_pluecker_join", lambda a, b: line)
    with pytest.raises(ConvergenceError, match="coincide"):
        six_lines_numeric(p, gr(1))


def test_l1_line_lies_on_quartic_surface():
    fx = load_fixtures()
    gvars = VarSet(["x1", "x2", "x3", "x4", "g"])
    quartic = parse_poly(fx.surfaces["quartic"], gvars)
    rng = np.random.default_rng(7)
    pts = enumerate_points(gr(1))
    p = pts[5]
    c = p.coords / p.coords[0]
    a = np.array([1, 0, c[2], 0], dtype=complex)
    b = np.array([0, c[1], 0, c[3]], dtype=complex)
    for _ in range(10):
        s, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = s * a + t * b
        val = quartic.evaluate({"x1": x[0], "x2": x[1], "x3": x[2],
                                "x4": x[3], "g": 1.0})
        assert abs(val) < 1e-8


@pytest.mark.parametrize("gv", [4, -4])
def test_split_conics_exactly_one_form_vanishes(gv):
    # at gamma^2 = 16 the L1 line of a generic point lies on exactly one of
    # the conics L1a and L1b: of the linear forms that cut them out of the
    # L1 quadrics, read from the catalog, exactly one vanishes on it
    cat = component_catalog(gr(gv))
    forms = [f for name in ("L1a", "L1b") for f in cat.get(name).ideal.generators
             if f.degree() == 1 and len(f.terms) > 1]
    assert len(forms) == 2
    for p in enumerate_points(gr(gv))[4:]:
        at = dict(zip(M_VARS.names, six_lines_numeric(p, gr(gv))[0]))
        small, large = sorted(abs(f.evaluate(at)) for f in forms)
        assert small < 1e-8 and large > 1e-3


@pytest.mark.parametrize("text", ["1", "4", "3/2+i", "2^40*i"])
def test_exact_generic_lines_agree_with_numeric_lines(text):
    # each exact line of the table, evaluated at a numeric generic point,
    # is the numeric line of its component there; of L6a and L6b exactly
    # the one the numeric path chose is
    g = parse_gamma(text)
    for p in enumerate_points(g)[4:]:
        c = p.coords / p.coords[0]
        at = dict(zip(("x2", "x3", "x4"), c[1:]))
        exact = {name: [f.evaluate(at) for f in coords]
                 for name, coords in GENERIC_LINES.items()}
        lines = six_lines_numeric(p, g)
        for name, m in zip(("L1", "L2", "L3", "L4", "L5"), lines):
            assert proj_distance(exact[name], m) < 1e-9
        near, far = sorted(proj_distance(exact[n], lines[5]) for n in ("L6a", "L6b"))
        assert near < 1e-9 < far


def test_degenerate_point_rejected():
    with pytest.raises(DegeneratePointError):
        six_lines_numeric(ComplexPoint((1, 0, 1, 1)), gr(1))


@pytest.mark.parametrize("coords", [(1, 2, 0, 1), (0, 1, 1, 0)])
def test_sigma_refuses_where_the_formula_is_undefined(coords):
    # off the basis points sigma's chart formula divides by x1 and x3
    with pytest.raises(UndefinedAtPointError):
        _sigma_formula(ProjectivePoint(coords))
    with pytest.raises(DegeneratePointError):
        sigma_numeric(ComplexPoint(coords))


@pytest.mark.parametrize("coords, image", [
    # sigma(1 : 1 : t : 1) = (t^2 : i : t : -i*t^2), near e2 for tiny t
    ((1, 1, 1e-200, 1), (0, 1, -1e-200j, 0)),
    # the chart image (1 : i/t : 1 : -i/t) of (t : 1 : t : 1), scaled
    ((1e-200, 1, 1e-200, 1), (-1e-200j, 1, -1e-200j, -1)),
], ids=["tiny x3", "tiny x1 and x3"])
def test_sigma_numeric_at_tiny_coordinates_divides_by_none(coords, image):
    # a RuntimeWarning (divide by zero) is an error under the pytest config
    q = sigma_numeric(ComplexPoint(coords))
    assert np.all(np.abs(q.coords - np.array(image)) <= 1e-12 * np.abs(image))


def test_sigma_numeric_snaps_only_exact_basis_points():
    # 1e-100 from e2, yet sigma maps it to (1 : i*1e-50 : 1e-150 : -i),
    # about 0.7 from e1 = sigma(e2); the third coordinate underflows
    q = sigma_numeric(ComplexPoint((1e-250, 1, 1e-100, 1e-250)))
    assert np.allclose(q.coords, (1, 1e-50j, 0, -1j), rtol=1e-12, atol=0)
    for k, swap in ((0, 1), (1, 0), (2, 3), (3, 2)):
        assert np.array_equal(sigma_numeric(ComplexPoint(np.eye(4)[k])).coords,
                              np.eye(4)[swap])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_complex_point_refuses_non_finite_coordinates(bad):
    with pytest.raises(DegeneratePointError):
        ComplexPoint((1, bad, 1, 1))


def test_sigma_permutes_points_with_orbit_profile():
    pts = enumerate_points(gr(1))
    n = len(pts)
    perm = []
    for p in pts:
        q = sigma_numeric(p)
        dists = [proj_distance(q.coords, r.coords) for r in pts]
        k = int(np.argmin(dists))
        assert dists[k] < 1e-6
        perm.append(k)
    assert sorted(perm) == list(range(n))
    seen = set()
    sizes = []
    for start in range(n):
        if start in seen:
            continue
        size = 0
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            size += 1
        sizes.append(size)
    assert sorted(sizes) == [2, 2, 4, 4, 4, 4]


def test_complex_points_compare_and_hash_by_identity():
    p, q = ComplexPoint((1, 2, 3, 4)), ComplexPoint((1, 2, 3, 5))
    assert p == p and p != q
    assert len({p, q, p}) == 2
    assert repr(p).startswith("ComplexPoint(coords=")
