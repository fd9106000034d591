import math
import random
from fractions import Fraction

import pytest

from qp3.gaussian import gr
from qp3.multipoly import (MAX_NESTING, ExponentOverflowError, MonomialOrder,
                           PolyParseError, Polynomial, UnknownVariableError,
                           VarSet, VarSetMismatchError, height_bound,
                           parse_poly, print_poly, substitute)
from qp3.quadratic_algebra import CHART_VARS, M_VARS, UV_VARS, X_VARS
from printed import LINE_SCHEME_POLYS, POINT_SCHEME_POLYS


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
    with two multi-term images the expansion; coefficients are non-units
    with denominators, so that every power of an image coefficient shows.
    Each `order=` (None keeps f's order) gets f and images in orders drawn
    independently of it."""
    from fractions import Fraction

    rng = random.Random(5)
    src = VarSet(["a", "b", "c", "d"])
    target = VarSet(["b", "x", "y"])
    src_orders = [MonomialOrder.degrevlex(), MonomialOrder.lex(),
                  MonomialOrder.elimination(src, ["a", "c"])]
    target_orders = [MonomialOrder.degrevlex(), MonomialOrder.lex(),
                     MonomialOrder.elimination(target, ["x"]),
                     MonomialOrder.elimination(target, ["b", "y"])]

    def coeff():
        return gr(Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 3)),
                  rng.randint(-2, 2))

    def on_target(terms):
        return Polynomial(target, terms, rng.choice(target_orders))

    for order in [None, *target_orders]:
        for _ in range(60):
            f = Polynomial(src, {tuple(rng.randint(0, 3) for _ in range(4)): coeff()
                                 for _ in range(rng.randint(1, 6))},
                           rng.choice(src_orders))
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
                        Polynomial.variable(target, rng.choice(target.names),
                                            rng.choice(target_orders))
                elif kind == "monomial":
                    images[name] = on_target({
                        tuple(rng.randint(0, 2) for _ in range(3)): coeff()})
            if multi_term:
                images["c"] = on_target({(1, 0, 0): coeff(), (0, 1, 1): coeff()})
                images["d"] = on_target({(0, 0, 2): coeff(), (1, 1, 0): coeff(),
                                         (0, 0, 0): coeff()})
            got = substitute(f, images, target=target, order=order)
            assert got.varset == target
            assert got.order == (f.order if order is None else order)
            assert got == _image_products(f, images, target)


def test_substitute_drops_a_term_with_a_zero_image_unchecked():
    # a term with a zero image is dropped before the powers of its other
    # images are formed, so y^2 -> z^40000 is never refused
    vs, target = VarSet(["x", "y", "w"]), VarSet(["z", "u"])
    images = {"x": 0, "y": parse_poly("z^20000", target),
              "w": parse_poly("u^20000", target)}
    for text, image in (("x*y^2 + y", "z^20000"),
                        ("x*y^2 + y*w", "z^20000*u^20000")):
        assert print_poly(substitute(parse_poly(text, vs), images,
                                     target=target)) == image


def test_substitute_onto_the_ring_with_no_variables():
    # a power of a constant image is a power of the empty monomial
    point = {"x1": 0, "x2": 0, "x3": 0, "x4": 1}
    for text, value in (("x4^2", 1), ("(2 + i)*x4^3 + x3*x4", gr(2, 1)), ("x1^5", 0)):
        img = substitute(parse_poly(text, X_VARS), point, target=VarSet([]))
        assert img == Polynomial.constant(VarSet([]), value)


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
    for text in POINT_SCHEME_POLYS:
        f = parse_poly(text, X_VARS, gamma=gr(1))
        s = print_poly(f)
        assert print_poly(parse_poly(s, X_VARS)) == s
    for text in LINE_SCHEME_POLYS:
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


ORDERS = (MonomialOrder.lex(), MonomialOrder.degrevlex(),
          MonomialOrder.elimination(VarSet(["x", "y", "z"]), ["x"]))


def test_equal_polynomials_hash_equal_in_every_order():
    # each order stores another primitive list and scale for one value
    rng = random.Random(23)
    vs = VarSet(["x", "y", "z"])
    p = (1 << 61) - 1    # a denominator the hash's modulus divides
    for k in range(60):
        scale = gr(Fraction(rng.randint(1, 9), p if k % 10 == 0 else rng.randint(1, 9)),
                   rng.randint(-3, 3))
        f = _random_poly(rng, vs) * scale
        views = [f.with_order(order) for order in ORDERS]
        for a in views:
            for b in views:
                assert a == b and hash(a) == hash(b)
    # across types: a constant polynomial equals no scalar, as its hash
    # is no scalar's, so a scalar is never found among polynomials
    for c in (0, 3, gr(3), gr(1, -2)):
        const = Polynomial.constant(vs, c)
        assert const != c and c != const
        assert c not in {const} and const not in {c}


def test_polynomials_that_differ_in_coefficients_hash_apart():
    rng = random.Random(29)
    vs = VarSet(["x", "y", "z"])
    for order in ORDERS:
        for _ in range(40):
            f = _random_poly(rng, vs).with_order(order)
            if f.is_zero():
                continue
            m = rng.choice(list(f.terms))
            g = f + Polynomial(vs, {m: gr(rng.randint(1, 5), rng.randint(-5, 5))}, order)
            for h in (f * 2, f * gr(0, 1), g):
                if h.monomials() == f.monomials():
                    assert h != f and hash(h) != hash(f)


def test_bidegree_bookkeeping():
    f = parse_poly("u1*v2 - u2*v1", UV_VARS) ** 4
    assert {(sum(m[:4]), sum(m[4:])) for m in f.monomials()} == {(4, 4)}
    for m in f.terms:
        assert sum(m[:4]) == 4 and sum(m[4:]) == 4


def test_mixed_coefficient_roundtrip():
    f = parse_poly("(1/2 - 1/3*i)*x1^2 + 7*x2 - i", X_VARS)
    assert parse_poly(print_poly(f), X_VARS) == f


def _gaussian_gcd(a, b):
    """A gcd in Z[i] of a and b, each a pair (real, imaginary), by Euclid's
    algorithm with the quotient rounded to a nearest Gaussian integer."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


STORED = ("(2+i)*x1 + 1", "(1+i)*x1^2 - 2*x2", "3*x1 - 6*i*x2 + 9")


@pytest.mark.parametrize("text", STORED)
def test_a_stored_list_has_a_positive_integer_lead_and_integer_content_one(text):
    stored = parse_poly(text, X_VARS)._list
    a, b = stored[0][2]
    assert a > 0 and b == 0
    assert math.gcd(*(c for _, _, pair in stored for c in pair)) == 1


@pytest.mark.xfail(strict=True, reason="_primitive leaves Gaussian content, "
                   "such as 2 - i in 5*x1 + (2 - i) (ROADMAP item 2)")
def test_a_stored_list_has_gaussian_content_one():
    stored = parse_poly("(2+i)*x1 + 1", X_VARS)._list
    content = (0, 0)
    for _, _, pair in stored:
        content = _gaussian_gcd(content, pair)
    assert content[0] ** 2 + content[1] ** 2 == 1


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
    # the exact rule: a term's image is refused when one of its exponents
    # passes 2^15 - 1, whatever the other terms' fields sum to
    xyzw = VarSet(["x", "y", "z", "w"])
    to_w = dict.fromkeys("xyz", parse_poly("w", xyzw))
    three = parse_poly("x^30000 + y^30000 + z^30000", xyzw)
    assert print_poly(substitute(three, to_w)) == "3*w^30000"
    # y^80000 would carry past the guard bit of its field
    for f, images in ((parse_poly("x^20000*y^20000", xyzw), to_w),
                      (parse_poly("x^4", vs), {"x": parse_poly("y^20000", vs)}),
                      (parse_poly("x^2", vs), {"x": parse_poly("y^20000 + 1", vs)})):
        with pytest.raises(ExponentOverflowError):
            substitute(f, images)


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
