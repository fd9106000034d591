import random
from fractions import Fraction

import pytest

from qp3.gaussian import ONE, ZERO, gr
from qp3.multipoly import Polynomial, parse_poly, print_poly
from qp3.groebner import Ideal, ideals_equal
from qp3.quadratic_algebra import (M_VARS, MG_VARS, X_VARS, Psi2UnavailableError,
                                   QuadraticAlgebra, RankDeficiencyError,
                                   ZeroGammaError, expand_matrix_rows,
                                   gamma_sign_on_pluecker, koszul_dual_relations,
                                   m_hat, make_A, psi1_on_pluecker,
                                   psi2_on_pluecker, relation_matrix,
                                   tensor_pairing)
from qp3.line_scheme import component_catalog, line_scheme_ideal
from qp3.fixtures import _catalog_form, load_fixtures

I = gr(0, 1)

# The six relations as the paper writes them.  Each is stored as (left
# side) - (right side); the table lists its nonzero tensor entries
# {(i, j): coefficient of x_(i+1) (x) x_(j+1)}, with "g" for gamma.
PAPER_RELATIONS = (
    ("x4 x1 = i x1 x4", {(3, 0): ONE, (0, 3): -I}),
    ("x3^2 = x1^2", {(2, 2): ONE, (0, 0): -ONE}),
    ("x3 x1 = x1 x3 - x2^2", {(2, 0): ONE, (0, 2): -ONE, (1, 1): ONE}),
    ("x3 x2 = i x2 x3", {(2, 1): ONE, (1, 2): -I}),
    ("x4^2 = x2^2", {(3, 3): ONE, (1, 1): -ONE}),
    ("x4 x2 = x2 x4 - g x1^2", {(3, 1): ONE, (1, 3): -ONE, (0, 0): "g"}),
)


@pytest.mark.parametrize("gamma", [gr(1), gr(-4), gr(3, 2) + I], ids=str)
def test_relations_as_the_paper_writes_them(gamma):
    A = make_A(gamma)
    assert A is make_A(gamma)
    assert len(A.relations) == len(PAPER_RELATIONS)
    for t, (text, entries) in zip(A.relations, PAPER_RELATIONS):
        expected = {k: gamma if c == "g" else c for k, c in entries.items()}
        found = {(i, j): t[i][j] for i in range(4) for j in range(4)
                 if not t[i][j].is_zero()}
        assert found == expected, text


def test_relation_two_tensor():
    A = make_A(gr(1))
    t = A.relations[1]
    assert t[2][2] == ONE and t[0][0] == gr(-1)
    assert sum(1 for i in range(4) for j in range(4) if not t[i][j].is_zero()) == 2


def test_relation_six_tensor_gamma_coefficient():
    # relation six stored as (left - right) carries +gamma at the x1 (x) x1
    # slot: x4 x2 - x2 x4 + gamma x1^2
    A = make_A(gr(4))
    t = A.relations[5]
    assert t[0][0] == gr(4)
    assert t[3][1] == ONE and t[1][3] == gr(-1)


def test_zero_gamma_rejected():
    with pytest.raises(ZeroGammaError):
        make_A(gr(0))


def test_relation_matrix_displayed_rows():
    M = relation_matrix(make_A(gr(1)))
    assert [print_poly(e) for e in M.row(0)] == ["x4", "0", "0", "-i*x1"]
    assert [print_poly(e) for e in M.row(5)] == ["x1", "x4", "0", "-x2"]
    # the shipped displayed matrix, with g = gamma, holds the same six
    # relations: rows 1 and 6 in place, rows 2-5 permuted, two negated
    shipped = load_fixtures().displayed_relation_matrix
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


def test_relation_matrix_reproduces_tensors():
    A = make_A(gr(5))
    M = relation_matrix(A)
    assert expand_matrix_rows(M) == list(A.relations)


def test_koszul_dual_has_ten_relations():
    duals = koszul_dual_relations(make_A(gr(1)))
    assert len(duals) == 10


def test_koszul_duals_orthogonal_to_relations():
    A = make_A(gr(5))
    for w in koszul_dual_relations(A):
        for t in A.relations:
            assert tensor_pairing(t, w).is_zero()


def test_koszul_dual_of_commutative_analogue_is_symmetric():
    # six commutators x_i x_j - x_j x_i: the dual relations are exactly the
    # ten symmetric tensors
    rels = []
    for i in range(4):
        for j in range(i + 1, 4):
            grid = [[ZERO] * 4 for _ in range(4)]
            grid[i][j] = ONE
            grid[j][i] = -ONE
            rels.append(tuple(tuple(r) for r in grid))
    A = QuadraticAlgebra(gr(1), tuple(rels))
    duals = koszul_dual_relations(A)
    assert len(duals) == 10
    for w in duals:
        for i in range(4):
            for j in range(4):
                assert w[i][j] == w[j][i]


def test_m_hat_shape_and_reproduction():
    A = make_A(gr(1))
    mh = m_hat(A)
    assert (mh.rows, mh.cols) == (10, 4)
    assert expand_matrix_rows(mh) == koszul_dual_relations(A)


def test_m_hat_rank_deficiency_error():
    A = make_A(gr(1))
    rels = (A.relations[0],) * 6
    with pytest.raises(RankDeficiencyError):
        QuadraticAlgebra(gr(1), rels)


def test_rank_deficiency_error_on_a_hidden_dependence():
    # no relation repeats, but the sixth is a combination of two others
    rels = make_A(gr(3, 2)).relations
    i = gr(0, 1)
    combo = tuple(tuple(2 * a + i * b for a, b in zip(ra, rb))
                  for ra, rb in zip(rels[0], rels[3]))
    with pytest.raises(RankDeficiencyError):
        QuadraticAlgebra(gr(3, 2), rels[:5] + (combo,))


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
    # the induced Pluecker action needs only a square root of gamma, so it
    # exists at gamma = 1 and gamma = 4
    for gv in (1, 4):
        cat = component_catalog(gr(gv))
        img = Ideal([psi2_on_pluecker(p, gr(gv))
                     for p in cat.get("L2").ideal.generators])
        assert ideals_equal(img, cat.get("L4").ideal)
        img35 = Ideal([psi2_on_pluecker(p, gr(gv))
                       for p in cat.get("L3").ideal.generators])
        assert ideals_equal(img35, cat.get("L5").ideal)


def test_psi2_unavailable_at_nonsquare_gamma():
    with pytest.raises(Psi2UnavailableError):
        psi2_on_pluecker(Polynomial.variable(M_VARS, "M12"), gr(5))


def test_psi2_involution():
    rng = random.Random(9)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            m = tuple(rng.randint(0, 2) for _ in range(6))
            terms[m] = gr(rng.randint(-4, 4), rng.randint(-4, 4))
        f = Polynomial(M_VARS, terms)
        assert psi2_on_pluecker(psi2_on_pluecker(f, gr(4)), gr(4)) == f


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
