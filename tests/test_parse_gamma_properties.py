"""Property test of `--gamma` parsing: on any text, `parse_gamma` returns a
nonzero Gaussian rational or raises UsageError, never anything else.  The
draws are texts of the grammar (sums, products, powers, fractions, i and
parentheses), parentheses nested up to several thousand deep, chains of
powers, division by zero and junk.  They need hypothesis, which the
`test` extra installs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from qp3.cli import UsageError, parse_gamma
from qp3.gaussian import GaussianRational

naturals = st.one_of(st.integers(0, 12), st.integers(0, 10 ** 30)).map(str)
atoms = st.one_of(naturals, st.just("i"),
                  st.tuples(naturals, naturals).map("/".join))
exponents = st.one_of(st.integers(0, 40), st.integers(0, 10 ** 12)).map(str)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        inner.map(lambda t: f"-{t}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, exponents).map(lambda te: f"({te[0]})^{te[1]}"),
    )


grammar = st.recursive(atoms, _compound, max_leaves=12)
nested = st.tuples(st.integers(0, 5000), atoms, st.booleans()).map(
    lambda t: "(" * t[0] + t[1] + ")" * (t[0] if t[2] else t[0] // 2))
power_chains = st.lists(exponents, min_size=1, max_size=6).map(
    lambda es: "2^" + "^".join(es))
nested_powers = st.lists(exponents, min_size=1, max_size=6).map(
    lambda es: "(" * len(es) + "2" + "".join(f")^{e}" for e in es))
junk = st.text(alphabet="0123456789+-*/^() igx._,\t", max_size=40)
texts = st.one_of(grammar, nested, power_chains, nested_powers, junk,
                  grammar.map(lambda t: f"{t}/0"))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(texts)
@example("(" * 5000 + "1" + ")" * 5000)
@example("(" * 247 + "1" + ")" * 247)
@example("1/0")
@example("(2^100000)^0")
def test_parse_gamma_returns_a_nonzero_value_or_a_usage_error(text):
    try:
        value = parse_gamma.__wrapped__(text)
    except UsageError:
        return
    assert isinstance(value, GaussianRational) and not value.is_zero()
