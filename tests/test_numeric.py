import numpy as np
import pytest

from qp3.gaussian import gr
from qp3.multipoly import VarSet, parse_poly
from qp3.point_scheme import (BASIS_POINTS, NotOnSchemeError, ProjectivePoint,
                              count_points, point_ideal, sigma)
from qp3.quadratic_algebra import M_VARS, make_A
from qp3 import numeric
from qp3.cli import parse_gamma
from qp3.numeric import (DEFAULT_TOL, DISTINCT_TOL, RECOMPUTE_ABOVE,
                         ComplexPoint, ConvergenceError, DegeneratePointError,
                         distinct_count, enumerate_points,
                         line_residual, minor_residual, proj_distance,
                         sigma_numeric, six_lines_numeric)
from qp3.line_scheme import component_catalog, line_scheme_ideal
from qp3.plucker import GENERIC_LINES
from oracles import SIGMA_SWAPS, evaluate, sigma_chart_map
from printed import TABLES


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
    # the tables compile the builders' lists over Q(i)[g]: the 15 minors
    # made monic and the 46
    minors = [p.monic() for p in point_ideal(make_A(None)).generators]
    quartics = line_scheme_ideal(None).polys
    m_names = ("M12", "M13", "M14", "M23", "M24", "M34")
    for text in ("1", "3/2+i", "1/7-2/3*i", "2^25"):
        g = parse_gamma(text).to_complex()
        pts = enumerate_points(parse_gamma(text))
        for p in pts:
            at = dict(zip(("x1", "x2", "x3", "x4"), p.coords), g=g)
            assert minor_residual(p.coords, g) == max(
                abs(evaluate(f, at)) for f in minors)
        for p in pts[4:]:
            for m in six_lines_numeric(p, g):
                at = dict(zip(m_names, m), g=g)
                assert line_residual(m, g) == max(
                    abs(evaluate(f, at)) for f in quartics)


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
    gvars = VarSet(["x1", "x2", "x3", "x4", "g"])
    quartic = parse_poly(TABLES["surfaces"]["quartic"], gvars)
    rng = np.random.default_rng(7)
    pts = enumerate_points(gr(1))
    p = pts[5]
    c = p.coords / p.coords[0]
    a = np.array([1, 0, c[2], 0], dtype=complex)
    b = np.array([0, c[1], 0, c[3]], dtype=complex)
    for _ in range(10):
        s, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = s * a + t * b
        val = evaluate(quartic, {"x1": x[0], "x2": x[1], "x3": x[2],
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
        small, large = sorted(abs(evaluate(f, at)) for f in forms)
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
        exact = {name: [evaluate(f, at) for f in coords]
                 for name, coords in GENERIC_LINES.items()}
        lines = six_lines_numeric(p, g)
        for name, m in zip(("L1", "L2", "L3", "L4", "L5"), lines):
            assert proj_distance(exact[name], m) < 1e-9
        near, far = sorted(proj_distance(exact[n], lines[5]) for n in ("L6a", "L6b"))
        assert near < 1e-9 < far


def test_degenerate_point_rejected():
    with pytest.raises(DegeneratePointError):
        six_lines_numeric(ComplexPoint((1, 0, 1, 1)), gr(1))


def _typed_sigma(p: ComplexPoint) -> np.ndarray:
    """The paper's sigma in complex floats: the swaps at e1..e4, elsewhere
    the division-free chart map."""
    if np.count_nonzero(p.coords) == 1:
        return np.eye(4)[SIGMA_SWAPS[int(np.argmax(np.abs(p.coords)))]]
    return np.array(sigma_chart_map(*p.coords, 1j))


@pytest.mark.parametrize("text", ["1", "3/2+i", "2^40"])
def test_sigma_numeric_is_the_exact_sigma(text):
    # at e1..e4 the exact sigma, the kernel of R(p) over Q(i); at the
    # sixteen points of Z_gamma the paper's chart map
    g = parse_gamma(text)
    points = enumerate_points(g)
    for p, e in zip(points, BASIS_POINTS.values()):    # e1..e4 come first
        exact = [c.to_complex() for c in sigma(e, make_A(g)).coords]
        assert proj_distance(sigma_numeric(p, g).coords, exact) < 1e-9
    for p in points:
        assert proj_distance(sigma_numeric(p, g).coords, _typed_sigma(p)) < 1e-9


@pytest.mark.parametrize("coords", [(1, 2, 0, 1), (0, 1, 1, 0)])
def test_sigma_refuses_points_off_the_scheme_where_the_chart_map_divides(coords):
    # the chart map divides by x1 and x3, sigma reads the kernel of R(p):
    # these points are off the scheme, so R(p) has rank 4
    with pytest.raises(NotOnSchemeError):
        sigma(ProjectivePoint(coords), make_A(gr(1)))


def _tiny_points(g):
    """The points of Z_gamma at which every coordinate is nonzero."""
    return [p for p in enumerate_points(g)[4:] if np.all(p.coords != 0)]


def test_sigma_numeric_at_tiny_coordinates_divides_by_none():
    # at gamma = 2^200 the points of Z_gamma hold coordinates near 1e-45,
    # 1e-30 and 1e-15, and so do their images; each coordinate matches the
    # chart map's to 1e-12 relative, and a RuntimeWarning (divide by zero)
    # is an error under the pytest config
    g = parse_gamma("2^200")
    points = _tiny_points(g)
    assert len(points) == 8
    for p in points:
        assert np.min(np.abs(p.coords)) < 1e-44
        q = sigma_numeric(p, g).coords
        image = ComplexPoint(_typed_sigma(p)).coords
        assert np.min(np.abs(image)) < 1e-44
        assert np.all(np.abs(q - image) <= 1e-12 * np.abs(image))


def test_sigma_numeric_near_a_basis_point_is_not_its_swap():
    # sigma blows up near e1..e4: at gamma = 2^200 a point of Z_gamma
    # within 1e-14 of e2 goes near e4, not to sigma(e2) = e1; at the basis
    # points themselves sigma_numeric gives the swaps exactly
    g = parse_gamma("2^200")
    e = np.eye(4)
    for p in _tiny_points(g):
        q = sigma_numeric(p, g).coords
        assert proj_distance(p.coords, e[1]) < 1e-14
        assert proj_distance(q, e[3]) < 1e-14 and proj_distance(q, e[0]) > 0.99
    for k in range(4):
        assert np.array_equal(sigma_numeric(ComplexPoint(e[k]), g).coords,
                              e[SIGMA_SWAPS[k]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_complex_point_refuses_non_finite_coordinates(bad):
    with pytest.raises(DegeneratePointError):
        ComplexPoint((1, bad, 1, 1))


def test_sigma_permutes_points_with_orbit_profile():
    pts = enumerate_points(gr(1))
    n = len(pts)
    perm = []
    for p in pts:
        q = sigma_numeric(p, gr(1))
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


@pytest.mark.xfail(strict=True, reason="enumerate_points returns false points at tiny "
                   "and huge gamma (ROADMAP item 11)")
def test_enumerated_points_are_twenty_or_refused_at_extreme_gamma():
    # at tiny gamma, x2 = (2i x4^3 - x3 x4^5) / gamma cancels at the roots
    # with x4^4 near 4 and lands near e2, which the absolute minor residual
    # passes; at 2^200, x3 reads 0.0 where it is about 1e-45 of the largest
    # coordinate.  distinct_count reads 16, 6 and 4
    for text in ("1/2^40", "1/2^100", "2^200"):
        try:
            points = enumerate_points(parse_gamma(text))
        except ConvergenceError:
            continue
        assert distinct_count(points) == 20, text
