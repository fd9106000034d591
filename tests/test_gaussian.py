import random

from fractions import Fraction

import pytest

from qp3.gaussian import GaussianRational, I, ONE, ZERO, gr, sqrt


def test_mul_conjugate_pair():
    assert gr(1, 1) * gr(1, -1) == gr(2)


def test_mul_by_i():
    assert gr(4) * I == gr(0, 4)


def test_sub_self_is_zero():
    x = gr(Fraction(1, 2), Fraction(1, 3))
    assert (x - x).is_zero()


def test_inverse_of_i():
    assert I.inverse() == gr(0, -1)


def test_inverse_of_two():
    assert gr(2).inverse() == gr(Fraction(1, 2))


def test_inverse_one_plus_i_multiplies_back():
    x = gr(1, 1)
    inv = x.inverse()
    assert inv == gr(Fraction(1, 2), Fraction(-1, 2))
    assert x * inv == ONE


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        gr(1) / ZERO


def test_i_squared_is_minus_one():
    assert I * I == gr(-1)


def test_canonical_reduction():
    x = GaussianRational(Fraction(2, 4), Fraction(6, 4))
    assert (x.a, x.b, x.d) == (1, 3, 2)


def test_str_forms():
    assert str(gr(0)) == "0"
    assert str(gr(-1, 0)) == "-1"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(gr(0, 2)) == "2*i"
    assert str(gr(Fraction(1, 2), Fraction(-1, 3))) == "1/2 - 1/3*i"


def test_sqrt_and_fourth_root():
    assert sqrt(gr(4)) == gr(2)
    assert sqrt(gr(0, 2)) == gr(1, 1)       # (1+i)^2 = 2i
    assert sqrt(gr(5)) is None
    # fourth roots as square roots of square roots
    assert sqrt(sqrt(gr(-4))) == gr(1, 1)   # (1+i)^4 = -4
    assert sqrt(sqrt(gr(4))) is None        # needs sqrt(2)


def _random_gr(rng):
    return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_field_axioms_random():
    rng = random.Random(20240801)
    for _ in range(200):
        a, b, c = (_random_gr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ONE
        if not b.is_zero():
            assert (a / b) * b == a
