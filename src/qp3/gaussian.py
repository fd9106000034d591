"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every symbolic computation in this package runs over Q(i).  A value is
stored as a triple of integers (a, b, d) meaning (a + b*i)/d with d > 0
and gcd(a, b, d) = 1, which keeps field operations down to plain integer
arithmetic plus one gcd per normalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """An element (a + b*i)/d of Q(i), always stored in lowest terms."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            a, b, d = re.a, re.b, re.d
            if im != 0:
                raise TypeError("cannot combine GaussianRational with imaginary part")
        else:
            re = Fraction(re)
            im = Fraction(im)
            d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussianRational":
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self = object.__new__(GaussianRational)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational._make(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 as a rational number."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self) -> str:
        re_s = _frac_str(self.a, self.d)
        if self.b == 0:
            return re_s
        im_abs = _frac_str(abs(self.b), self.d)
        im_s = "i" if im_abs == "1" else im_abs + "*i"
        if self.a == 0:
            return im_s if self.b > 0 else "-" + im_s
        sign = " + " if self.b > 0 else " - "
        return re_s + sign + im_s

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


def _frac_str(num: int, den: int) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor, gr(1, -2) == 1 - 2i; gr(x) is x itself when
    x is already a GaussianRational."""
    if im == 0 and isinstance(re, GaussianRational):
        return re
    return GaussianRational(re, im)


def rational_sqrt(x: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if x < 0:
        return None
    pn = _isqrt_exact(x.numerator)
    if pn is None:
        return None
    pd = _isqrt_exact(x.denominator)
    if pd is None:
        return None
    return Fraction(pn, pd)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def sqrt(x: GaussianRational):
    """A square root of x inside Q(i) if one exists, else None.

    Solves (p + q*i)^2 = x exactly: p^2 - q^2 = re(x), 2pq = im(x).
    """
    n = rational_sqrt(x.norm())
    if n is None:
        return None
    # p^2 = (re + |x|)/2 and q^2 = (|x| - re)/2 must both be rational squares
    p2 = (x.re + n) / 2
    q2 = (n - x.re) / 2
    p = rational_sqrt(p2)
    q = rational_sqrt(q2)
    if p is None or q is None:
        return None
    if 2 * p * q != x.im:
        q = -q
        if 2 * p * q != x.im:
            return None
    return GaussianRational(p, q)
