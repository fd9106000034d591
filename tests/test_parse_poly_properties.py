"""Property test of the polynomial parser: on texts drawn from the grammar
of `multipoly`, `parse_poly`, which gathers each term as ints, and
`oracles.arithmetic_parse`, the same walk in Polynomial arithmetic,
return the same polynomial, or raise the same exception class with the
same message and position.  The draws cover signed sums, products and
powers of atoms and of parenthesised sums; n/d^k, i^k and g, bound, free
and a variable; whitespace, unknown names and stray tokens; 1/0;
parentheses nested MAX_NESTING deep and one level more; and exponents past
2^15 - 1, in one factor and summed over the factors of a term.

One message differs by design: for a single factor such as x^40000 the
oracle's binary powering reports its first square past the field,
x^32768, where `parse_poly` names the exponent asked for.  There the
class alone is compared.  The property needs hypothesis, which the `test`
extra installs."""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from oracles import arithmetic_parse
from qp3.gaussian import gr
from qp3.multipoly import (MAX_NESTING, DEGREVLEX, ExponentOverflowError,
                           MonomialOrder, VarSet, parse_poly, print_poly)

XY, XYG = VarSet(["x", "y"]), VarSet(["x", "y", "g"])
RINGS = ((XY, None, DEGREVLEX), (XY, gr(3, 2), DEGREVLEX),
         (XY, gr(2, -1), MonomialOrder.lex()), (XYG, None, DEGREVLEX),
         (XYG, gr(5), MonomialOrder.elimination(XYG, ["x"])))
LIMIT = 2 ** 15 - 1

blank = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
small = st.sampled_from(["0", "1", "2", "3"])
large = st.sampled_from(["16384", "20000", "32767", "32768", "40000"])
names = st.sampled_from(["x", "y", "z", "x1", "_a"])
scalars = st.one_of(    # g too, a number where it is bound
    st.sampled_from(["g", "i", "0", "1", "2", "7", "12", "1/0", "2/3", "12/5", "0/4"]),
    st.tuples(st.integers(0, 99), st.integers(1, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
)
stray = st.sampled_from(["+", ")", "^", "*", "/", "^x", "@", "(", "1/", "x^-1", ""])


def _factor(atom, powers):
    return st.tuples(atom, st.one_of(st.just(""), powers.map("^{}".format)),
                     blank).map("".join)


# large exponents on names other than g only: a number or a parenthesised
# sum to a large power expands too far to be drawn
atoms = st.one_of(_factor(names, st.one_of(small, large)),
                  _factor(scalars, st.one_of(small, st.just("22"))))


def _expr(factor):
    term = st.lists(factor, min_size=1, max_size=4).map("*".join)
    signs = st.sampled_from([" + ", " - ", "+", "-"])
    return st.tuples(st.sampled_from(["", "-", " - "]), term,
                     st.lists(st.tuples(signs, term).map("".join), max_size=3)
                     ).map(lambda t: t[0] + t[1] + "".join(t[2]))


def _nested(inner):
    return _expr(st.one_of(atoms, _factor(inner.map("({})".format), small)))


exprs = st.recursive(_expr(atoms), _nested, max_leaves=12)
deep = st.tuples(st.integers(MAX_NESTING - 1, MAX_NESTING + 1),
                 st.sampled_from(["1", "x", "x + 1", "2/3*y^2"])).map(
    lambda t: "(" * t[0] + t[1] + ")" * t[0])
texts = st.one_of(
    exprs, deep,
    st.tuples(exprs, stray, exprs).map("".join),
    st.tuples(blank, exprs, blank).map("".join),
)


def outcome(parse, text, ring):
    varset, gamma, order = ring
    try:
        f = parse(text, varset, gamma, order)
    except Exception as exc:    # the class and message are compared
        if isinstance(exc, ExponentOverflowError) and any(
                int(e) > LIMIT for e in re.findall(r"\^\s*(\d+)", text)):
            return type(exc)
        return type(exc), str(exc)
    return f, print_poly(f)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(texts, st.sampled_from(RINGS))
@example("x^20000*x^20000", RINGS[0])
@example("(x + 1)*x^20000*y*x^20000", RINGS[0])
@example("0*x^20000*x^20000 + y", RINGS[0])
@example("(x - x)*x^20000*x^20000", RINGS[3])
@example("x^40000", RINGS[0])
@example("1/2^22 - i^3*g^2", RINGS[1])
@example("2 + 1/0", RINGS[0])
@example("g*x", RINGS[0])
@example("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), RINGS[0])
def test_parse_poly_agrees_with_the_arithmetic_walk(text, ring):
    assert outcome(parse_poly, text, ring) == outcome(arithmetic_parse, text, ring)


def test_the_arithmetic_walk_names_the_first_square_past_the_field():
    # why a single factor's overflow compares the class alone
    for parse in (parse_poly, arithmetic_parse):
        with pytest.raises(ExponentOverflowError) as err:
            parse("x^40000", XY)
        assert str(err.value) == {parse_poly: "exponent 40000 exceeds 32767",
                                  arithmetic_parse: "exponent 32768 exceeds 32767"}[parse]
