"""Every printed sigma check of `point-scheme`, its check that the chart
x1 = x2 = x3 = 0 is e4, two of its three membership facts for rho, and
the cover check of `line-scheme --verify` read
off the table of the components' intersection can say NO, and so can the
test that certifies that table.

For each check a seeded mutation of the data the check reads turns it
False, and the mutation is shown to change that data:
- a relation plus a seeded multiple of one word, a form outside the span
  of the six relations;
- a rho system with one polynomial changed by a seeded amount, the new
  polynomial outside the rho ideal, or, for rho1 times x4 - 1, rho1
  outside the new ideal.
A relation mutation is read through `count_points` of the mutated
algebra; a rho mutation replaces `point_scheme.rho_system`, with every
memo of qp3 emptied before and after (`fresh_caches`).
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import qp3.line_scheme as ls
import qp3.point_scheme as ps
from qp3 import cli
from qp3.fixtures import load_fixtures, table_polys
from qp3.gaussian import gr
from qp3.groebner import Ideal, buchberger, normal_form
from qp3.multipoly import Polynomial, parse_poly
from qp3.point_scheme import count_points, zgamma_ideal
from oracles import (MGT_ORDER, MGT_VARS, certifies_intersection_table, rank,
                     specialises_everywhere)
from qp3.quadratic_algebra import (CHART_VARS, M_VARS, MG_VARS, X_VARS, XY_VARS,
                                   QuadraticAlgebra, make_A)
from table_texts import rows

GAMMA = gr(Fraction(3, 2), 1)
SEED = 1990


def _scalar(rng):
    """A seeded nonzero Gaussian rational of small height."""
    return gr(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(1, 9))


def _outside_span(f, relations):
    """f is no linear combination of the relations."""
    forms = (*relations, f)
    words = sorted({m for g in forms for m in g.terms})
    return rank([[g.terms.get(w, gr(0)) for w in words] for g in forms]) == len(forms)


def _with_word(r, word, c):
    """A(GAMMA) with relation r plus c times the word."""
    A = make_A(GAMMA)
    f = A.relations[r] + c * parse_poly(word, XY_VARS)
    assert _outside_span(f, A.relations)
    return QuadraticAlgebra(GAMMA, A.relations[:r] + (f,) + A.relations[r + 1:])


# (check, relation index, word).  Sigma's forms stay monomials: rows 2
# and 4 of R lie outside SIGMA_ROWS, and row 3 changes a coefficient only
# (`test_forms_that_are_not_monomials_read_false` takes row 1).
RELATION_MUTATIONS = [
    # R(e1) gains c in column 2: its kernel, (0, 1, c, 0), is no basis point
    ("sigma_basis_swaps", 2, "x1*y2"),
    # the x2*y3 entry of row 3 becomes -(i - c)*x2: sigma^4 scales x2 by
    # (i - c)^4, not 1
    ("sigma_sigma4_is_identity", 3, "x2*y3"),
    # the point scheme moves off sigma(Z_gamma)
    ("sigma_sigma_preserves_point_ideal", 4, "x1*y1"),
    # R(e4) gains c in column 3 and has rank 4: a minor is a nonzero
    # constant on the chart x1 = x2 = x3 = 0, which holds no point
    ("chart_x4_is_e4", 2, "x4*y3"),
]


@pytest.mark.parametrize("check, r, word", RELATION_MUTATIONS,
                         ids=[m[0] for m in RELATION_MUTATIONS])
def test_a_relation_mutation_turns_the_check_false(check, r, word, fresh_caches):
    assert count_points(make_A(GAMMA)).checks[check]
    c = _scalar(random.Random(SEED))
    if check == "sigma_sigma4_is_identity":
        assert (gr(0, 1) - c) ** 4 != gr(1)
    report = count_points(_with_word(r, word, c))
    assert report.checks[check] is False and not report.ok


def _rho_mutations(rng):
    """{check: (rho1, rho2, rho3)} of the mutated systems at GAMMA."""
    rho1, rho2, rho3 = ps.rho_system(GAMMA)
    x3, x4 = (Polynomial.variable(CHART_VARS, n) for n in ("x3", "x4"))
    c, d = _scalar(rng), _scalar(rng)
    # x4 = 0 becomes a root of rho1; with rho2 and rho3 there, x3^2 = 1 and
    # x2 = 0, and sigma fixes (1, 0, +-1, 0)
    fixed_rho1 = rho1 - GAMMA * GAMMA + c * x4
    return {
        "sigma_sigma_fixed_point_free": (fixed_rho1, rho2, rho3),
        # with x3^2 = 1 + d there instead, sigma moves (1, 0, x3, 0) to
        # (1, 0, 1/x3, 0) and back, so sigma^2 fixes it
        "sigma_sigma2_fixed_point_free": (fixed_rho1, rho2 - d, rho3),
        # x3 = 0 becomes a root of rho2, where sigma leaves the chart x1 = 1
        "sigma_x3_is_unit_on_Z": (rho1, x3 * (x3 - d), rho3),
        # x4 * (rho2 + c*x3) lies in the chart ideal J only if x4*x3 does
        "rho_x4_rho_vanish_on_chart": (rho1, rho2 + c * x3, rho3),
        # the roots x4 = 1 join Z_gamma, where the minors do not vanish; the
        # multiple x4 * rho1 * (x4 - 1) stays in J
        "rho_minors_vanish_on_Z": (rho1 * (x4 - 1), rho2, rho3),
    }


RHO_MUTATIONS = ["sigma_sigma_fixed_point_free", "sigma_sigma2_fixed_point_free",
                 "sigma_x3_is_unit_on_Z", "rho_x4_rho_vanish_on_chart",
                 "rho_minors_vanish_on_Z"]


@pytest.mark.parametrize("check", RHO_MUTATIONS)
def test_a_rho_mutation_turns_the_check_false(check, monkeypatch, fresh_caches):
    assert count_points(make_A(GAMMA)).checks[check]
    mutated = _rho_mutations(random.Random(SEED))[check]
    # the mutation changes the ideal: a mutated polynomial lies outside
    # <rho>, or, for rho1 * (x4 - 1), which lies in it, rho1 lies outside
    # the mutated ideal
    G, H = buchberger(zgamma_ideal(GAMMA)), buchberger(Ideal(list(mutated)))
    assert (any(not normal_form(f, G).is_zero() for f in mutated)
            or any(not normal_form(f, H).is_zero() for f in ps.rho_system(GAMMA)))
    monkeypatch.setattr(ps, "rho_system", lambda gamma: mutated)
    report = count_points(make_A(GAMMA))
    assert report.checks[check] is False and not report.ok
    if check == "sigma_sigma2_fixed_point_free":
        # sigma itself keeps no fixed point: the mutation reaches sigma^2 only
        assert report.checks["sigma_sigma_fixed_point_free"]
    if check == "rho_minors_vanish_on_Z":
        # the two facts are independent: (iii) still holds
        assert report.checks["rho_x4_rho_vanish_on_chart"]


def test_forms_that_are_not_monomials_read_false(fresh_caches):
    """Relation 1 plus a seeded multiple of x3*y4 gives two of sigma's
    forms a second term.  sigma acts projectively, so it still applies
    them: sigma^4, the point ideal and the basis swaps read False, and
    nothing raises."""
    A = _with_word(1, "x3*y4", _scalar(random.Random(SEED)))
    assert [len(f.terms) for f in ps.sigma_forms(A)] == [1, 2, 2, 1]
    report = count_points(A)
    for check in ("sigma_sigma4_is_identity", "sigma_sigma_preserves_point_ideal",
                  "sigma_basis_swaps"):
        assert report.checks[check] is False, check
    assert not report.ok
    assert ps.verify_vanishing_pairs(A) is False


def test_the_unit_check_reads_the_first_image_coordinate(monkeypatch, fresh_caches):
    """Forms x3 * (x1, x2, x3, x4) give the first image coordinate x3;
    where x3 = 0 meets Z_gamma it is no unit, and the check reads False."""
    x = [Polynomial.variable(X_VARS, n) for n in X_VARS.names]
    monkeypatch.setattr(ps, "sigma_forms", lambda A: tuple(x[2] * v for v in x))
    mutated = _rho_mutations(random.Random(SEED))["sigma_x3_is_unit_on_Z"]
    monkeypatch.setattr(ps, "rho_system", lambda gamma: mutated)
    assert ps.sigma_orbit_certificates(make_A(GAMMA))["x3_is_unit_on_Z"] is False


@pytest.mark.parametrize("check", ["sigma_sigma_fixed_point_free",
                                   "rho_x4_rho_vanish_on_chart", "rho_minors_vanish_on_Z"])
def test_the_cli_says_no_under_a_mutation(check, monkeypatch, fresh_caches):
    mutated = _rho_mutations(random.Random(SEED))[check]
    monkeypatch.setattr(ps, "rho_system", lambda gamma: mutated)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--gamma=3/2+i", "point-scheme"])
    assert code == cli.EXIT_VERIFICATION
    text = out.getvalue()
    assert f"check {check}: FAIL" in text
    assert text.rstrip().endswith("verified: NO")


def test_a_generator_outside_the_intersection_turns_the_cover_false(
        monkeypatch, fresh_caches):
    """M12, added to the table's rows, lies outside the intersection: its
    normal form modulo the table's basis is nonzero.  The cover check then
    reads False, and the command exits 2."""
    fx = load_fixtures()
    table = Ideal(table_polys(fx.components_intersection, GAMMA))
    m12 = Polynomial.variable(M_VARS, "M12")
    assert not normal_form(m12, buchberger(table)).is_zero()
    mutated = fx._replace(components_intersection=fx.components_intersection + (
        tuple(rows(Polynomial.variable(MG_VARS, "M12"))),))
    monkeypatch.setattr(ls, "load_fixtures", lambda: mutated)
    report = ls.verify_decomposition(GAMMA)
    assert report.poly_in_components and not report.intersection_in_radical
    assert not report.ok
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--gamma=3/2+i", "line-scheme", "--verify"])
    assert code == cli.EXIT_VERIFICATION
    text = out.getvalue()
    assert "scheme_covered_by_components: False" in text
    assert text.rstrip().endswith("verified: False")


def test_the_table_certificate_refuses_a_dropped_or_changed_generator():
    rng = random.Random(SEED)
    table = table_polys(load_fixtures().components_intersection, None)
    assert certifies_intersection_table(table)
    k = rng.randrange(len(table))
    assert not certifies_intersection_table(table[:k] + table[k + 1:])
    f = table[k]
    m = rng.choice(f.monomials())
    changed = f + _scalar(rng) * Polynomial(MG_VARS, {m: gr(1)})
    assert sorted(changed.monomials()) == sorted(f.monomials()) and changed != f
    assert not certifies_intersection_table(table[:k] + [changed] + table[k + 1:])


@pytest.mark.parametrize("text, ok", [
    ("M12*g^2 + i*M13*g - M14", True),
    # the leading coefficient g - 4 vanishes at gamma = 4
    ("M12*g - 4*M12 + M13", False),
    # not homogeneous in the M_ij
    ("M12*g + M13^2", False)])
def test_the_specialisation_clause_says_no(text, ok):
    assert specialises_everywhere(parse_poly(text, MGT_VARS, order=MGT_ORDER)) is ok
