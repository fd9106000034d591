import random

import pytest

from qp3.gaussian import gr
from qp3.multipoly import (MAX_NESTING, ExponentOverflowError, MonomialOrder,
                           PolyParseError, Polynomial, UnknownVariableError,
                           VarSet, VarSetMismatchError, height_bound,
                           parse_poly, print_poly, substitute)
from qp3.quadratic_algebra import CHART_VARS, M_VARS, UV_VARS, X_VARS
from qp3.fixtures import load_fixtures


def test_sub_self():
    x1 = Polynomial.variable(X_VARS, "x1")
    assert (x1 - x1).is_zero()


def test_case_vi_product():
    # (M12 + i M34)(M12 - i M34) = M12^2 + M34^2
    f = parse_poly("M12 + i*M34", M_VARS)
    g = parse_poly("M12 - i*M34", M_VARS)
    assert f * g == parse_poly("M12^2 + M34^2", M_VARS)


def test_relation_two_as_commutative_polys():
    x1 = Polynomial.variable(X_VARS, "x1")
    x3 = Polynomial.variable(X_VARS, "x3")
    assert x3 * x3 - x1 * x1 == parse_poly("x3^2 - x1^2", X_VARS)


def test_varset_mismatch_raises():
    with pytest.raises(VarSetMismatchError):
        Polynomial.variable(X_VARS, "x1") + Polynomial.variable(M_VARS, "M12")


def test_substitute_rho2_at_point():
    rho2 = parse_poly("x3^2 - i*x3*x4^2 - 1", CHART_VARS)
    img = substitute(rho2, {"x3": Polynomial.constant(CHART_VARS, 1),
                            "x4": Polynomial.constant(CHART_VARS, 0)})
    assert img.is_zero()


def test_substitute_first_minor_at_x1_one():
    f = parse_poly("x1^2*x2^2 + x3^2*x4^2", X_VARS)
    img = substitute(f, {"x1": Polynomial.constant(CHART_VARS, 1)},
                     target=CHART_VARS)
    assert img == parse_poly("x2^2 + x3^2*x4^2", CHART_VARS)


def test_substitute_pluecker_slice():
    P = parse_poly("M12*M34 - M13*M24 + M14*M23", M_VARS)
    img = substitute(P, {"M13": Polynomial.constant(M_VARS, 0),
                         "M24": Polynomial.constant(M_VARS, 0)},
                     target=M_VARS)
    assert img == parse_poly("M14*M23 + M12*M34", M_VARS)



def _image_products(f, images, target):
    """sum c * prod image^e with Polynomial products; unassigned variables
    map to themselves."""
    out = Polynomial.zero(target)
    for m, c in f.terms.items():
        term = Polynomial.constant(target, c)
        for name, e in zip(f.varset.names, m):
            v = images[name] if name in images else Polynomial.variable(target, name)
            if not isinstance(v, Polynomial):
                v = Polynomial.constant(target, v)
            term = term * v ** e
        out = out + term
    return out


@pytest.mark.parametrize("multi_term", [False, True])
def test_substitute_matches_products_of_images(multi_term):
    """Single-term images (scalars, zero, +-c*variable, c*monomial), and
    with one multi-term image the expansion; coefficients are non-units so
    that every power of an image coefficient shows."""
    from fractions import Fraction

    rng = random.Random(5)
    src = VarSet(["a", "b", "c", "d"])
    target = VarSet(["b", "x", "y"])

    def coeff():
        return gr(Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 3)),
                  rng.randint(-2, 2))

    for _ in range(150):
        f = Polynomial(src, {tuple(rng.randint(0, 3) for _ in range(4)): coeff()
                             for _ in range(rng.randint(1, 6))})
        images = {}
        for name in src.names:
            kind = rng.choice(["scalar", "zero", "variable", "monomial"]
                              + (["keep"] if name == "b" else []))
            if kind == "scalar":
                images[name] = coeff()
            elif kind == "zero":
                images[name] = 0
            elif kind == "variable":
                images[name] = rng.choice([1, -1]) * coeff() * \
                    Polynomial.variable(target, rng.choice(target.names))
            elif kind == "monomial":
                images[name] = Polynomial(target, {
                    tuple(rng.randint(0, 2) for _ in range(3)): coeff()})
        if multi_term:
            images["c"] = Polynomial(target, {(1, 0, 0): coeff(), (0, 1, 1): coeff()})
        got = substitute(f, images, target=target)
        assert got.varset == target
        assert got == _image_products(f, images, target)


def test_parse_rho1_with_gamma():
    f = parse_poly("x4^8 - 4*x4^4 + g^2", CHART_VARS, gamma=gr(1))
    assert f == parse_poly("x4^8 - 4*x4^4 + 1", CHART_VARS)


def test_parse_zero():
    assert parse_poly("0", X_VARS).is_zero()


def test_parse_pluecker():
    P = parse_poly("M12*M34 - M13*M24 + M14*M23", M_VARS)
    assert P.degree() == 2 and len(P.terms) == 3


def test_parse_errors_carry_position():
    with pytest.raises(UnknownVariableError):
        parse_poly("x1 + y7", X_VARS)
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x1 + + x2", X_VARS)
    assert exc.value.pos >= 0
    with pytest.raises(PolyParseError):
        parse_poly("x4^8 + g", CHART_VARS)  # no gamma bound


def test_print_zero():
    assert print_poly(Polynomial.zero(X_VARS)) == "0"


def test_print_rho3_descending_degrevlex():
    # terms come out in descending degrevlex order, highest degree first
    f = parse_poly("g*x2 - 2*i*x4^3 + x3*x4^5", CHART_VARS, gamma=gr(1))
    assert print_poly(f) == "x3*x4^5 - 2*i*x4^3 + x2"


def test_print_parse_idempotent_on_fixtures():
    fx = load_fixtures()
    for text in fx.point_scheme_polys:
        f = parse_poly(text, X_VARS, gamma=gr(1))
        s = print_poly(f)
        assert print_poly(parse_poly(s, X_VARS)) == s
    for text in fx.line_scheme_polys:
        f = parse_poly(text, M_VARS, gamma=gr(5))
        s = print_poly(f)
        assert print_poly(parse_poly(s, M_VARS)) == s


def _random_poly(rng, varset, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxdeg) for _ in varset.names)
        terms[m] = gr(rng.randint(-5, 5), rng.randint(-5, 5))
    return Polynomial(varset, terms)


def test_ring_axioms_random():
    rng = random.Random(7)
    vs = VarSet(["x", "y", "z"])
    for _ in range(100):
        f, g, h = (_random_poly(rng, vs) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_monomial_order_axioms_random():
    rng = random.Random(11)
    orders = [MonomialOrder.lex(), MonomialOrder.degrevlex(),
              MonomialOrder.elimination(VarSet(["x", "y", "z"]), ["x"])]
    for order in orders:
        key = order.key
        unit = (0, 0, 0)
        for _ in range(100):
            m1 = tuple(rng.randint(0, 5) for _ in range(3))
            m2 = tuple(rng.randint(0, 5) for _ in range(3))
            n = tuple(rng.randint(0, 5) for _ in range(3))
            # totality with compatible multiplication, 1 is minimal
            assert key(unit) <= key(m1)
            if key(m1) <= key(m2):
                prod1 = tuple(a + b for a, b in zip(m1, n))
                prod2 = tuple(a + b for a, b in zip(m2, n))
                assert key(prod1) <= key(prod2)


def test_bidegree_bookkeeping():
    f = parse_poly("u1*v2 - u2*v1", UV_VARS) ** 4
    assert f.bidegree(("u1", "u2", "u3", "u4")) == (4, 4)
    for m in f.terms:
        assert sum(m[:4]) == 4 and sum(m[4:]) == 4


def test_mixed_coefficient_roundtrip():
    f = parse_poly("(1/2 - 1/3*i)*x1^2 + 7*x2 - i", X_VARS)
    assert parse_poly(print_poly(f), X_VARS) == f


def test_height_bound_bounds_every_constant():
    # seeded random constant expressions: the token bound is never below
    # the bit length of the value's numerators and denominator
    rng = random.Random(11)

    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([str(rng.randint(0, 999)),
                               f"{rng.randint(0, 99)}/{rng.randint(1, 99)}", "i"])
        a, b = expr(depth - 1), expr(depth - 1)
        return rng.choice([f"({a}) + ({b})", f"({a}) - ({b})", f"({a})*({b})",
                           f"({a})^{rng.randint(0, 6)}", f"-({a})"])

    empty = VarSet([])
    several = ["2^100+2^100*i", "(2^3)^4*3^5 - 7^2", "(1+i)^7 - (2-3*i)^5*i^3",
               "1/3^4 + 5^6*i^3", "((1/2)^3 + i^2)^4 * (2/3)^2", "(1/255 + 1/253)^3",
               "-(3^2 - 1/7^2)^2*(i - 1/2)^5 + (2^10)^1"]
    for text in [expr(4) for _ in range(400)] + several:
        v = parse_poly(text, empty).constant_value()
        assert max(abs(v.a), abs(v.b), v.d).bit_length() <= height_bound(text), text
    # each power bounds only the subexpression it applies to
    assert height_bound("2^100+2^100*i") <= 110


@pytest.mark.parametrize("parse", [lambda text: parse_poly(text, VarSet([])),
                                   height_bound])
def test_nesting_and_zero_denominators_are_parse_errors(parse):
    # deep parentheses would otherwise end in RecursionError, and 1/0 in
    # the ZeroDivisionError of Fraction(1, 0)
    parse("(" * MAX_NESTING + "1" + ")" * MAX_NESTING)
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(PolyParseError, match="nested deeper than"):
            parse("(" * depth + "1" + ")" * depth)
    with pytest.raises(PolyParseError, match="division by zero"):
        parse("2 + 1/0")


def test_height_bound_of_a_zeroth_power_bounds_its_base():
    # x^0 is 1, but evaluating it evaluates x, so x must pass the bound
    assert height_bound("(2^9000)^0") > 9000
    assert height_bound("(2^100)^0") == height_bound("2^100")


def test_polynomial_exponents_beyond_the_packed_width_are_refused():
    # the fields are fixed at 15 bits: a product, power, parsed text or
    # substitute image with an exponent past 2^15 - 1 is refused
    vs = VarSet(["x", "y"])
    x = parse_poly("x^20000", vs)
    assert 2 ** 15 > 20000 and 40000 > 2 ** 15
    cubic = parse_poly("x^3 - x*y", vs)
    for make in (lambda: x * x, lambda: (x + 1) ** 2,
                 lambda: parse_poly("x^40000", vs),
                 lambda: substitute(cubic, {"x": parse_poly("y^20000", vs)})):
        with pytest.raises(ExponentOverflowError):
            make()
    # the or of a factor's exponents may pass the fields while the
    # product's exponents do not: that product is exact
    near = parse_poly("x^16384 + x^16383", vs) * parse_poly("x^16383 + y", vs)
    assert print_poly(near) == "x^32767 + x^32766 + x^16384*y + x^16383*y"
    # a lift, a renaming and a map that sends two variables to one are
    # exact when their exponents fit, though a bound on them does not
    big = parse_poly("x^20000*y^20000 + 1", vs)
    assert print_poly(substitute(big, {}, target=VarSet(["y", "x", "t"]))) == \
        "y^20000*x^20000 + 1"
    assert substitute(big, {"x": parse_poly("y", vs), "y": parse_poly("x", vs)}) == big
    both = parse_poly("x^20000 + y^20000", vs)
    assert print_poly(substitute(both, {"x": parse_poly("y", vs)})) == "2*y^20000"


def test_negative_exponents_are_refused():
    # a negative exponent would borrow from the neighbouring field: x^-1*y
    # used to pack as x^32767*y^32767
    vs = VarSet(["x", "y"])
    for m in ((-1, 0), (0, -1), (-40000, 3)):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(vs, {m: 1, (0, 1): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(vs, {(-1, 0): 1}, MonomialOrder.lex())
    assert not isinstance(ValueError("x"), ExponentOverflowError)
    assert print_poly(Polynomial(vs, {(0, 0): 1, (0, 1): 1})) == "y + 1"


def test_substitute_refuses_names_that_are_not_variables():
    # a misspelt name would otherwise leave its variable unmapped
    vs = VarSet(["x", "y"])
    f = parse_poly("x + y", vs)
    for assignment in ({"zz": 1}, {"x": 2, "zz": 1},
                       {"zz": parse_poly("x*y + 1", vs)}):
        with pytest.raises(VarSetMismatchError):
            substitute(f, assignment)
    assert print_poly(substitute(f, {"x": 2})) == "y + 2"
