import random
from fractions import Fraction
from itertools import combinations

import pytest

from qp3.gaussian import ONE, ZERO, gr
from qp3.groebner import GroebnerLimits, limits_scope
from qp3.multipoly import (DEGREVLEX, ExponentOverflowError, MonomialOrder,
                           Polynomial, VarSet, VarSetMismatchError, parse_poly)
from qp3.polylinalg import (PolyMatrix, all_minors, cross_minors, minor, nullspace,
                            row_echelon)
from qp3.quadratic_algebra import X_VARS, XY_VARS, make_A, relation_matrix
from qp3.line_scheme import build_big_matrix
from oracles import det_bareiss, poly_exact_div, rank
from printed import parse_point_polys, solve


def _const_matrix(varset, grid):
    return PolyMatrix([[Polynomial.constant(varset, c) for c in row]
                       for row in grid])


def test_identity_minor():
    m = _const_matrix(X_VARS, [[1 if r == c else 0 for c in range(4)]
                               for r in range(4)])
    assert minor(m, (0, 1, 2, 3), (0, 1, 2, 3)) == Polynomial.constant(X_VARS, 1)


def test_two_by_two_cofactor():
    vs = X_VARS
    m = PolyMatrix([[Polynomial.variable(vs, "x1"), Polynomial.variable(vs, "x2")],
                    [Polynomial.variable(vs, "x3"), Polynomial.variable(vs, "x4")]])
    assert minor(m, (0, 1), (0, 1)) == parse_poly("x1*x4 - x2*x3", vs)


def test_cross_minors_are_the_two_row_minors_in_column_pair_order():
    for width in (2, 4, 6):
        rows = [[parse_poly(f"x{1 + (r + c) % 4} - {c}*x{1 + c % 4}", X_VARS)
                 for c in range(width)] for r in range(2)]
        assert list(cross_minors(*rows)) == [
            minor(PolyMatrix(rows), (0, 1), cols) for cols in combinations(range(width), 2)]


def test_relation_matrix_minor_in_point_ideal():
    from qp3.groebner import Ideal, buchberger, normal_form

    A = make_A(gr(1))
    M = relation_matrix(A)
    d = minor(M, (0, 1, 2, 3), (0, 1, 2, 3))
    fixture_ideal = Ideal(parse_point_polys(gr(1)))
    assert normal_form(d, buchberger(fixture_ideal)).is_zero()


def test_all_minors_counts():
    A = make_A(gr(1))
    assert len(all_minors(relation_matrix(A), 4)) == 15
    big = build_big_matrix(A)
    minors = [minor(big, rows, tuple(range(8)))
              for rows in __import__("itertools").combinations(range(10), 8)]
    assert len(minors) == 45
    for f in minors:
        assert {(sum(m[:4]), sum(m[4:])) for m in f.monomials()} == {(4, 4)}


def test_all_minors_full_size_equals_det():
    # det is all_minors at full size, so the oracle is Bareiss elimination
    vs = VarSet(["x"])
    m = _const_matrix(vs, [[2, 1, 0], [0, 3, 1], [1, 0, 1]])
    out = all_minors(m, 3)
    assert len(out) == 1
    assert out[0] == det_bareiss(m)


def test_minor_index_errors():
    vs = VarSet(["x"])
    m = _const_matrix(vs, [[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        minor(m, (0, 2), (0, 1))
    with pytest.raises(IndexError):
        all_minors(m, 3)


def test_nullspace_identity_empty():
    rows = [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    assert nullspace(rows) == []


def test_nullspace_zero_matrix():
    rows = [[ZERO] * 5, [ZERO] * 5]
    assert len(nullspace(rows)) == 5


def test_relation_coefficient_nullspace_has_ten_vectors():
    words = [parse_poly(f"x{i}*y{j}", XY_VARS).leading_monomial()
             for i in range(1, 5) for j in range(1, 5)]
    rows = [[f.terms.get(w, ZERO) for w in words] for f in make_A(gr(1)).relations]
    basis = nullspace(rows)
    assert len(basis) == 10
    for v in basis:
        for row in rows:
            assert sum((x * y for x, y in zip(row, v)), ZERO).is_zero()


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(30):
        n_rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        rows = [[gr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(cols)]
                for _ in range(n_rows)]
        assert rank(rows) + len(nullspace(rows)) == cols


def test_row_echelon_is_reduced_with_first_nonzero_columns_as_pivots():
    i = gr(0, 1)
    # the third row is the sum of the first two
    rows = [[ZERO, 2 * i, gr(4), ONE],
            [ZERO, ONE, ZERO, i],
            [ZERO, gr(1, 2), gr(4), gr(1, 1)]]
    echelon, pivots = row_echelon(rows)
    assert pivots == [1, 2]
    assert echelon == [[ZERO, ONE, ZERO, i],
                       [ZERO, ZERO, ONE, gr(3) / gr(4)]]


@pytest.mark.parametrize("rows", [[], [[ONE, ZERO], [ONE]]], ids=["no rows", "ragged"])
def test_row_reduction_refuses_a_malformed_matrix(rows):
    for fn in (row_echelon, nullspace, lambda r: solve(r, [ONE] * len(r))):
        with pytest.raises(ValueError):
            fn(rows)


def test_row_reduction_ignores_narrower_groebner_limits():
    rows = [[ONE if r == c else ZERO for c in range(3)] for r in range(3)]
    with limits_scope(GroebnerLimits(max_pairs=1, max_basis=1, max_degree=1)):
        assert row_echelon(rows)[1] == [0, 1, 2]


def test_solve_refuses_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError):
        solve([[ONE, ZERO], [ZERO, ONE]], [ONE])


def test_solve_returns_none_on_an_inconsistent_system():
    # x + y = 1 and 2x + 2y = 3 have no common solution
    assert solve([[ONE, ONE], [gr(2), gr(2)]], [ONE, gr(3)]) is None


def test_solve_returns_the_exact_solution_of_a_consistent_system():
    i = gr(0, 1)
    rows = [[ONE, i, ZERO], [ZERO, ONE, gr(2)], [gr(1, 1), ZERO, ONE]]
    x = [gr(1, 2) / gr(3), gr(-5), i]
    rhs = [sum((a * b for a, b in zip(row, x)), ZERO) for row in rows]
    assert solve(rows, rhs) == x


def test_solve_sets_free_columns_to_zero():
    # one equation in three unknowns: the pivot column takes the whole rhs
    assert solve([[ZERO, gr(2), gr(4)]], [gr(6)]) == [ZERO, gr(3), ZERO]


def _random_poly_matrix(rng, n, varset):
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < 0.3:
                row.append(Polynomial.zero(varset))
            else:
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    m = tuple(rng.randint(0, 1) for _ in varset.names)
                    terms[m] = gr(rng.randint(-3, 3), rng.randint(-1, 1))
                row.append(Polynomial(varset, terms))
        grid.append(row)
    return PolyMatrix(grid)


def test_bareiss_agrees_with_subset_expansion():
    rng = random.Random(13)
    vs = VarSet(["x", "y"])
    for n in (2, 3, 4, 5):
        for _ in range(6 if n < 5 else 3):
            m = _random_poly_matrix(rng, n, vs)
            assert all_minors(m, n)[0] == det_bareiss(m)


def test_row_swap_flips_sign():
    rng = random.Random(17)
    vs = VarSet(["x", "y"])
    for _ in range(10):
        m = _random_poly_matrix(rng, 3, vs)
        rows = m.entries
        swapped = PolyMatrix([rows[1], rows[0], rows[2]])
        assert all_minors(swapped, 3) == [-all_minors(m, 3)[0]]


def _random_qi_poly(rng, varset, order):
    """A nonzero seeded polynomial over Q(i) of up to four terms, degree <= 3
    in each variable, in the given order."""
    while True:
        f = Polynomial(varset, {
            tuple(rng.randint(0, 3) for _ in varset.names):
                gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))}, order)
        if not f.is_zero():
            return f


def test_poly_exact_div():
    f = parse_poly("x1^2 - x2^2", X_VARS)
    g = parse_poly("x1 - x2", X_VARS)
    assert poly_exact_div(f, g) == parse_poly("x1 + x2", X_VARS)
    with pytest.raises(ValueError):
        poly_exact_div(parse_poly("x1^2 + 1", X_VARS), g)
    # x divides the lead x*y, but not the 1 that is left after it
    vs = VarSet(["x", "y"])
    with pytest.raises(ValueError):
        poly_exact_div(parse_poly("x*y + 1", vs), parse_poly("x", vs))
    # the divisor's lead is read in the dividend's order: y^3 under DEGREVLEX
    lex = MonomialOrder.lex()
    f, g = parse_poly("x - 2*y + i", vs), parse_poly("x + y^3", vs, order=lex)
    assert poly_exact_div(f * g, g) == f
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(f, Polynomial.zero(vs))
    with pytest.raises(VarSetMismatchError):
        poly_exact_div(parse_poly("x1", X_VARS), f)
    # seeded products, with f and g in every pair of orders
    rng = random.Random(2903)
    vs = VarSet(["x", "y", "z"])
    orders = (DEGREVLEX, MonomialOrder.lex(), MonomialOrder.elimination(vs, ["y"]))
    for f_order in orders:
        for g_order in orders:
            for _ in range(6):
                f = _random_qi_poly(rng, vs, f_order)
                g = _random_qi_poly(rng, vs, g_order)
                assert poly_exact_div(f * g, g) == f
                if g.degree() > 0:    # then g does not divide f*g + 1
                    with pytest.raises(ValueError):
                        poly_exact_div(f * g + 1, g)


def test_big_matrix_minors_match_per_subset_minor_and_bareiss():
    from itertools import combinations
    from fractions import Fraction

    for g in (gr(1), gr(4), gr(Fraction(3, 2), 1)):
        A = make_A(g)
        for tensor_order in ("left", "right"):
            big = build_big_matrix(A, tensor_order)
            shared = all_minors(big, 8)
            rows_list = list(combinations(range(10), 8))
            assert len(shared) == len(rows_list) == 45
            for rows, f in zip(rows_list, shared):
                assert f == minor(big, rows, tuple(range(8)))
            for k in (0, 44):
                sub = PolyMatrix([big.entries[r] for r in rows_list[k]])
                assert shared[k] == det_bareiss(sub)


def test_all_minors_rectangular_with_zeros_matches_minor():
    from itertools import combinations

    rng = random.Random(31)
    vs = VarSet(["x", "y"])
    for rows, cols in ((5, 4), (3, 6), (4, 4)):
        grid = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                if rng.random() < 0.35:
                    row.append(Polynomial.zero(vs))
                else:
                    terms = {(rng.randint(0, 1), rng.randint(0, 1)):
                             gr(rng.randint(-3, 3), rng.randint(-2, 2))
                             for _ in range(2)}
                    row.append(Polynomial(vs, terms))
            grid.append(row)
        m = PolyMatrix(grid)
        for k in range(1, min(rows, cols) + 1):
            expected = [minor(m, r, c)
                        for r in combinations(range(rows), k)
                        for c in combinations(range(cols), k)]
            assert all_minors(m, k) == expected


def _sparse_qi_matrix(rng, rows, cols, varset, zero_cols=()):
    """A seeded sparse matrix over Q(i)[varset]: entries of one to three
    terms with denominators up to 6, about half of them zero, and the
    columns in `zero_cols` zero throughout."""
    grid = []
    for _ in range(rows):
        row = []
        for c in range(cols):
            if c in zero_cols or rng.random() < 0.5:
                row.append(Polynomial.zero(varset))
                continue
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in varset.names)
                terms[m] = gr(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 6)))
            row.append(Polynomial(varset, terms))
        grid.append(row)
    return PolyMatrix(grid)


def _bareiss_minors(m, k):
    """Every k x k minor by Bareiss elimination of its submatrix, in the
    order of `all_minors`, which computes them another way."""
    return [det_bareiss(PolyMatrix([[m.entries[i][j] for j in c] for i in r]))
            for r in combinations(range(m.rows), k)
            for c in combinations(range(m.cols), k)]


def test_all_minors_match_bareiss_on_sparse_matrices_over_qi():
    rng = random.Random(4099)
    vs = VarSet(["x", "y"])
    shapes = [(4, 5, ()), (5, 4, (1,)), (3, 6, (0, 4)), (5, 5, (2,)), (6, 3, ())]
    multi_term = denominators = 0
    for rows, cols, zero_cols in shapes:
        m = _sparse_qi_matrix(rng, rows, cols, vs, zero_cols)
        multi_term += sum(len(e.terms) > 1 for row in m.entries for e in row)
        denominators += sum(any(c.d > 1 for c in e.terms.values())
                            for row in m.entries for e in row)
        for k in range(1, min(rows, cols) + 1):
            assert all_minors(m, k) == _bareiss_minors(m, k), (rows, cols, k)
    assert multi_term > 10 and denominators > 10


def test_all_minors_odd_greedy_column_order():
    # column 2 has one nonzero row and column 0 has all four, so the
    # columns are taken as 2, 1, 0 for the set (0, 1, 2): an odd
    # permutation, whose sign the minors must carry
    vs = VarSet(["x", "y"])
    x, y = (Polynomial.variable(vs, n) for n in "xy")
    half = gr(Fraction(1, 2), 1)
    zero = Polynomial.zero(vs)
    m = PolyMatrix([[x + 1, y * half, zero],
                    [y, zero, x * x - y],
                    [x * y * 3, x - y * half, zero],
                    [half * x, zero, zero]])
    for k in (2, 3):
        assert all_minors(m, k) == _bareiss_minors(m, k)
    assert not all_minors(m, 3)[0].is_zero()


def test_all_minors_refuse_exponents_beyond_the_packed_width():
    # entries with exponents above 2^14 fit the fixed fields, and so do
    # their products up to 2^15 - 1; a product past that is refused
    vs = VarSet(["x", "y"])

    def matrix(a, b):
        return PolyMatrix([[parse_poly(t, vs) for t in row] for row in (
            (f"x^{a} + y", "2*y"), ("i", f"(1/3)*x^{b}"))])

    big = 2 ** 14 + 3
    with pytest.raises(ExponentOverflowError):
        all_minors(matrix(big, big), 2)
    fits = matrix(2 ** 14, 2 ** 14 - 1)
    det, = all_minors(fits, 2)
    assert det == det_bareiss(fits) and det.degree() == 2 ** 15 - 1
