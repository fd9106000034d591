import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qp3.gaussian import ONE, ZERO, gr
from qp3.multipoly import Polynomial, parse_poly, print_poly, substitute
from qp3.groebner import Ideal, ideals_equal
from qp3.polylinalg import PolyMatrix, minor, rank
from qp3.quadratic_algebra import (M_VARS, MG_VARS, X_VARS, XY_VARS, Z_VARS,
                                   ZW_VARS, QuadraticAlgebra, RankDeficiencyError,
                                   ZeroGammaError, gamma_sign_on_pluecker,
                                   koszul_dual_relations, m_hat, make_A,
                                   psi1_on_pluecker, psi2_on_pluecker,
                                   relation_matrix, with_g, _PIVOTS, _coefficients)
from qp3.cli import parse_gamma
from qp3.line_scheme import component_catalog, line_scheme_ideal
from qp3.fixtures import _catalog_form, load_fixtures

from oracles import TABLES

I = gr(0, 1)

# The six relations as the paper writes them.  Each is stored as (left
# side) - (right side); the table lists its nonzero entries {(i, j):
# coefficient of the word x_(i+1) x_(j+1)}, with "g" for gamma.
PAPER_RELATIONS = (
    ("x4 x1 = i x1 x4", {(3, 0): ONE, (0, 3): -I}),
    ("x3^2 = x1^2", {(2, 2): ONE, (0, 0): -ONE}),
    ("x3 x1 = x1 x3 - x2^2", {(2, 0): ONE, (0, 2): -ONE, (1, 1): ONE}),
    ("x3 x2 = i x2 x3", {(2, 1): ONE, (1, 2): -I}),
    ("x4^2 = x2^2", {(3, 3): ONE, (1, 1): -ONE}),
    ("x4 x2 = x2 x4 - g x1^2", {(3, 1): ONE, (1, 3): -ONE, (0, 0): "g"}),
)


def entries(f):
    """{(i, j): coefficient of x_(i+1)*y_(j+1)} of a bilinear form on XY_VARS
    or ZW_VARS; asserts that every term is such a word."""
    assert all(sum(m[:4]) == 1 == sum(m[4:]) for m in f.terms)
    return {(m.index(1), m.index(1, 4) - 4): c for m, c in f.terms.items()}


def times_right(M, varset):
    """The rows of M (linear forms in the first four variables of varset)
    times the last four variables, as forms on varset."""
    right = [Polynomial.variable(varset, n) for n in varset.names[4:]]
    return [sum((substitute(e, {}, varset) * v for e, v in zip(row, right)),
                Polynomial.zero(varset)) for row in M.entries]


@pytest.mark.parametrize("gamma", [gr(1), gr(-4), gr(3, 2) + I], ids=str)
def test_relations_as_the_paper_writes_them(gamma):
    A = make_A(gamma)
    assert A is make_A(gamma)
    assert len(A.relations) == len(PAPER_RELATIONS)
    for f, (text, table) in zip(A.relations, PAPER_RELATIONS):
        expected = {k: gamma if c == "g" else c for k, c in table.items()}
        assert f.varset == XY_VARS and entries(f) == expected, text


def test_relation_two_tensor():
    A = make_A(gr(1))
    assert entries(A.relations[1]) == {(2, 2): ONE, (0, 0): gr(-1)}


def test_relation_six_tensor_gamma_coefficient():
    # relation six stored as (left - right) carries +gamma at the word
    # x1 x1: x4 x2 - x2 x4 + gamma x1^2
    e = entries(make_A(gr(4)).relations[5])
    assert e[(0, 0)] == gr(4)
    assert e[(3, 1)] == ONE and e[(1, 3)] == gr(-1)


def test_zero_gamma_rejected():
    with pytest.raises(ZeroGammaError):
        make_A(gr(0))


def test_relation_matrix_displayed_rows():
    M = relation_matrix(make_A(gr(1)))
    assert [print_poly(e) for e in M.row(0)] == ["x4", "0", "0", "-i*x1"]
    assert [print_poly(e) for e in M.row(5)] == ["x1", "x4", "0", "-x2"]
    # the shipped displayed matrix, with g = gamma, holds the same six
    # relations: rows 1 and 6 in place, rows 2-5 permuted, two negated
    shipped = TABLES["displayed_relation_matrix"]
    assert len(shipped) == 6
    placed = ((0, 1), (3, 1), (1, -1), (4, -1), (2, 1), (5, 1))
    for g in (gr(1), gr(4), gr(3, 2) + gr(0, 1)):
        M = relation_matrix(make_A(g))
        for row, (r, sign) in zip(shipped, placed):
            assert [sign * e for e in M.row(r)] == [
                parse_poly(t, X_VARS, gamma=g) for t in row]


def test_relation_matrix_row6_general_gamma():
    M = relation_matrix(make_A(gr(4)))
    assert [print_poly(e) for e in M.row(5)] == ["4*x1", "x4", "0", "-x2"]


def test_relation_matrix_reproduces_the_forms():
    A = make_A(gr(5))
    assert times_right(relation_matrix(A), XY_VARS) == list(A.relations)


def test_koszul_dual_has_ten_relations():
    duals = koszul_dual_relations(make_A(gr(1)))
    assert len(duals) == 10
    with pytest.raises(ValueError, match="tensor_order"):
        koszul_dual_relations(make_A(gr(1)), "up")


def test_koszul_duals_orthogonal_to_relations():
    A = make_A(gr(5))
    for w in koszul_dual_relations(A):
        assert w.varset == ZW_VARS
        for f in A.relations:
            e = entries(f)
            assert sum((c * e.get(k, ZERO) for k, c in entries(w).items()), ZERO).is_zero()


def test_koszul_dual_of_commutative_analogue_is_symmetric():
    # six commutators x_i x_j - x_j x_i: the dual relations are exactly the
    # ten symmetric forms
    rels = tuple(parse_poly(f"x{i}*y{j} - x{j}*y{i}", XY_VARS)
                 for i in range(1, 5) for j in range(i + 1, 5))
    A = QuadraticAlgebra(gr(1), rels)
    duals = koszul_dual_relations(A)
    assert len(duals) == 10
    for w in duals:
        e = entries(w)
        for i in range(4):
            for j in range(4):
                assert e.get((i, j), ZERO) == e.get((j, i), ZERO)


def test_m_hat_shape_and_reproduction():
    A = make_A(gr(1))
    mh = m_hat(A)
    assert (mh.rows, mh.cols) == (10, 4)
    assert times_right(mh, ZW_VARS) == koszul_dual_relations(A)


# make_A and m_hat over forty gammas, counting Polynomial.__eq__ calls
EQ_CALLS = """
from qp3.gaussian import gr
from qp3.multipoly import Polynomial
from qp3.quadratic_algebra import m_hat, make_A

calls = []
eq = Polynomial.__eq__
Polynomial.__eq__ = lambda self, other: calls.append(1) or eq(self, other)
for k in range(1, 41):
    m_hat(make_A(gr(k, 1)))
print(len(calls))
"""


def test_forty_gammas_compare_few_polynomials():
    # a hash blind to the coefficients let the memoized ideals of every
    # gamma collide, and each lookup compared them: over 22,000 calls
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", EQ_CALLS], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert int(run.stdout) < 40


def test_m_hat_rank_deficiency_error():
    A = make_A(gr(1))
    rels = (A.relations[0],) * 6
    with pytest.raises(RankDeficiencyError):
        QuadraticAlgebra(gr(1), rels)


def test_rank_deficiency_error_on_a_hidden_dependence():
    # no relation repeats, but the sixth is a combination of two others
    rels = make_A(gr(3, 2)).relations
    combo = 2 * rels[0] + I * rels[3]
    with pytest.raises(RankDeficiencyError):
        QuadraticAlgebra(gr(3, 2), rels[:5] + (combo,))


@pytest.mark.parametrize("text", ["z1*w2", "x1*x2", "y1*y2", "x1", "1", "x1^2*y1"])
def test_a_relation_that_is_no_bilinear_form_is_refused(text):
    rels = make_A(gr(1)).relations
    bad = parse_poly(text, ZW_VARS if "z" in text else XY_VARS)
    with pytest.raises(ValueError, match="bilinear form") as err:
        QuadraticAlgebra(gr(1), (bad,) + rels[1:])
    assert not isinstance(err.value, RankDeficiencyError)


def test_a_relation_that_is_no_polynomial_is_refused():
    grid = ((ONE, ZERO, ZERO, ZERO),) + ((ZERO,) * 4,) * 3
    with pytest.raises(ValueError, match="bilinear form"):
        QuadraticAlgebra(gr(1), (grid,) + make_A(gr(1)).relations[1:])


@pytest.mark.parametrize("count", [0, 5, 7])
def test_six_relations_and_no_other_count(count):
    rels = make_A(gr(1)).relations
    with pytest.raises(ValueError, match="six relations"):
        QuadraticAlgebra(gr(1), (rels * 2)[:count])


# The symmetries of the family, checked on the relations themselves: a
# map of the generators sends A onto B when the images of A's relations,
# and those together with B's, both have rank 6.  These back the Pluecker
# maps gamma_sign_on_pluecker, psi1_on_pluecker and psi2_on_pluecker.

XY = {n: Polynomial.variable(XY_VARS, n) for n in XY_VARS.names}


def maps_onto(A, assignment, B):
    images = [substitute(f, assignment) for f in A.relations]
    rows = [[entries(f).get((i, j), ZERO) for i in range(4) for j in range(4)]
            for f in images + list(B.relations)]
    return rank(rows[:6]) == 6 and rank(rows) == 6


def reversed_map(images):
    """The antihomomorphism with x_k -> images[k]: the factors of each word
    swap, so x_k goes to the image on the y's and y_k to it on the x's."""
    out = {}
    for k, (c, j) in images.items():
        out[f"x{k}"], out[f"y{k}"] = c * XY[f"y{j}"], c * XY[f"x{j}"]
    return out


def forward_map(images):
    out = {}
    for k, (c, j) in images.items():
        out[f"x{k}"], out[f"y{k}"] = c * XY[f"x{j}"], c * XY[f"y{j}"]
    return out


@pytest.mark.parametrize("gamma", [gr(1), gr(3, 3), gr(4), gr(-4), gr(16), gr(0, 2)],
                         ids=str)
def test_x2_sign_maps_A_gamma_onto_A_minus_gamma(gamma):
    flip = forward_map({1: (ONE, 1), 2: (-ONE, 2), 3: (ONE, 3), 4: (ONE, 4)})
    assert maps_onto(make_A(gamma), flip, make_A(-gamma))
    assert not maps_onto(make_A(gamma), flip, make_A(gamma))


@pytest.mark.parametrize("gamma", [gr(1), gr(3, 3), gr(4), gr(-4), gr(16), gr(0, 2)],
                         ids=str)
def test_psi1_is_an_antiautomorphism_and_no_automorphism(gamma):
    psi1 = {1: (ONE, 3), 2: (ONE, 4), 3: (ONE, 1), 4: (ONE, 2)}
    A = make_A(gamma)
    assert maps_onto(A, reversed_map(psi1), A)
    assert not maps_onto(A, forward_map(psi1), A)


@pytest.mark.parametrize("lam", [gr(1), I, gr(1, 1), gr(1, -1), gr(2), gr(3)], ids=str)
def test_psi2_is_an_antiautomorphism_of_A_lambda_to_the_fourth(lam):
    inv = lam.inverse()
    psi2 = {1: (inv, 4), 2: (lam, 3), 3: (inv, 2), 4: (lam, 1)}
    A = make_A(lam ** 4)
    assert maps_onto(A, reversed_map(psi2), A)
    assert not maps_onto(A, forward_map(psi2), A)


# The psi1 partners as the paper prints them.  components.json ships only
# L1, L2, L4 and L6a, and psi1 derives these three from L2, L4 and L6a.
PAPER_PSI1_PARTNERS = {
    "L3": ("M12", "M13", "M23", "M34^3 - M14^2*M34 + i*M14*M24^2"),
    "L5": ("M23", "M24", "M34", "M12*M14^2 - i*g*M13^2*M14 - M12^3"),
    "L6b": ("M14", "M23", "M12*M34 - M13*M24", "M12 - i*M34"),
}


@pytest.mark.parametrize("gamma", [None, gr(1), gr(4), gr(-4), gr(Fraction(3, 2), 1),
                                   gr(Fraction(1, 3), Fraction(-7, 3))], ids=str)
def test_psi1_derives_the_paper_partners(gamma):
    vs = M_VARS if gamma is not None else MG_VARS
    comps = load_fixtures().parse_components(gamma)
    assert list(comps) == ["L1", "L2", "L3", "L4", "L5", "L6a", "L6b"]
    for name, texts in PAPER_PSI1_PARTNERS.items():
        assert comps[name] == [parse_poly(t, vs, gamma=gamma) for t in texts]
    # the catalog form leaves the shipped lists as they are, and psi1
    # fixes L1 list for list
    for name in load_fixtures().component_generators:
        assert _catalog_form(comps[name]) == comps[name]
    assert _catalog_form(map(psi1_on_pluecker, comps["L1"])) == comps["L1"]
    if gamma is not None and gamma * gamma == gr(16):
        cat = component_catalog(gamma)
        a, b = (list(cat.get(n).ideal.generators) for n in ("L1a", "L1b"))
        assert _catalog_form(map(psi1_on_pluecker, a)) == b


def test_psi1_takes_the_M_variables_alone_or_with_g():
    f = parse_poly("M12*M13 + g*M24^2", MG_VARS)
    assert print_poly(psi1_on_pluecker(f)) == "M24^2*g - M13*M34"
    with pytest.raises(ValueError, match="M variables"):
        psi1_on_pluecker(Polynomial.variable(X_VARS, "x1"))


def test_psi1_involution_random():
    rng = random.Random(3)
    for _ in range(50):
        terms = {}
        for _ in range(4):
            m = tuple(rng.randint(0, 2) for _ in range(6))
            terms[m] = gr(rng.randint(-4, 4), rng.randint(-4, 4))
        f = Polynomial(M_VARS, terms)
        assert psi1_on_pluecker(psi1_on_pluecker(f)) == f


def test_psi1_preserves_line_scheme_ideal():
    for gv in (1, 4):
        L = line_scheme_ideal(gr(gv))
        img = Ideal([psi1_on_pluecker(p) for p in L.ideal.generators])
        assert ideals_equal(img, L.ideal)


def test_psi2_maps_L2_to_L4_and_L3_to_L5():
    # the induced Pluecker action needs only s = lambda^2, a square root of
    # gamma: s = 1 at gamma = 1 and s = 2 at gamma = 4
    for gv, s in ((1, 1), (4, 2)):
        cat = component_catalog(gr(gv))
        img = Ideal([psi2_on_pluecker(p, gr(s))
                     for p in cat.get("L2").ideal.generators])
        assert ideals_equal(img, cat.get("L4").ideal)
        img35 = Ideal([psi2_on_pluecker(p, gr(s))
                       for p in cat.get("L3").ideal.generators])
        assert ideals_equal(img35, cat.get("L5").ideal)


def test_psi2_involution():
    rng = random.Random(9)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            m = tuple(rng.randint(0, 2) for _ in range(6))
            terms[m] = gr(rng.randint(-4, 4), rng.randint(-4, 4))
        f = Polynomial(M_VARS, terms)
        assert psi2_on_pluecker(psi2_on_pluecker(f, gr(2)), gr(2)) == f


def test_gamma_sign_isomorphism_on_line_scheme():
    # A(g) ~ A(-g) via x2 -> -x2; the induced substitution identifies the
    # line scheme ideals
    Lp = line_scheme_ideal(gr(1))
    Lm = line_scheme_ideal(gr(-1))
    img = Ideal([gamma_sign_on_pluecker(p) for p in Lp.ideal.generators])
    assert ideals_equal(img, Lm.ideal)


def test_gamma_sign_isomorphism_at_four():
    Lp = line_scheme_ideal(gr(4))
    Lm = line_scheme_ideal(gr(-4))
    img = Ideal([gamma_sign_on_pluecker(p) for p in Lp.ideal.generators])
    assert ideals_equal(img, Lm.ideal)


# the gammas whose line-scheme --verify output tests/line_verify_digests.json pins
DIGEST_GAMMAS = ("1", "3/2+i", "2", "-2", "4", "-4", "2*i", "1/3")


@pytest.mark.parametrize("order, det", [("left", 1), ("right", -1)])
def test_the_pivot_minor_is_constant_over_q_i_g(order, det):
    # so Cramer's rule gives the dual over Q(i)[g], with no denominator
    rows = [_coefficients(f, order) for f in make_A(None).relations]
    assert minor(PolyMatrix(rows), range(6), _PIVOTS) == Polynomial.constant(
        with_g(XY_VARS, None), det)


@pytest.mark.parametrize("text", DIGEST_GAMMAS)
def test_the_algebra_over_q_i_g_specialises_to_each_gamma(text):
    # relations, dual forms in both orders and their matrices, with g -> gamma
    gamma = parse_gamma(text)
    A, At = make_A(None), make_A(gamma)

    def at(polys, vs):
        return [substitute(f, {"g": gamma}, target=vs) for f in polys]

    assert at(A.relations, XY_VARS) == list(At.relations)
    assert at(relation_matrix(A).entries[5], X_VARS) == relation_matrix(At).row(5)
    for order in ("left", "right"):
        assert at(koszul_dual_relations(A, order), ZW_VARS) == koszul_dual_relations(At, order)
        assert [at(row, Z_VARS) for row in m_hat(A, order).entries] == [
            list(row) for row in m_hat(At, order).entries]


def test_dependent_relations_over_q_i_g_are_refused():
    rels = make_A(None).relations
    with pytest.raises(RankDeficiencyError):
        QuadraticAlgebra(None, rels[:5] + (rels[0],))
