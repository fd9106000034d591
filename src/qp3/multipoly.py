"""Sparse multivariate polynomials over Q(i).

Polynomials carry a VarSet (fixed variable tuple) and a MonomialOrder.
A polynomial is one exact scale in Q(i) times a term list over Z[i]
whose monomials and order keys are packed into ints (`_Packing`), the
representation the Groebner engine reduces directly: a divisibility test
is one subtraction and a mask test, and a product of monomials one int
addition.  The fields are fixed at 15 bits: an exponent that would
outgrow them raises `ExponentOverflowError`, so no exponent wraps.  The
text grammar is:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := rational | 'i' | 'g' | var | '(' expr ')'

where 'i' is the imaginary unit and 'g' is a placeholder that must be
bound to a concrete Gaussian rational before a polynomial is built.

`substitute` is the one ring map: every change of variables, every move
to another VarSet and every exact evaluation at a Q(i) point goes
through it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add, lshift, mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .gaussian import GaussianRational, ZERO, _Frozen, gr

Monomial = Tuple[int, ...]


class VarSetMismatchError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """A Buchberger limit or the exponent fields of `_Packing` were exceeded."""


class ExponentOverflowError(ResourceLimitError):
    """An exponent outgrew the fixed fields of `_Packing`: a stored
    monomial holds exponents up to 2^15 - 1, and a list the Groebner engine
    reduces against, or a multiplier it shifts one by, up to 2^14 - 1."""


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariableError(PolyParseError):
    pass


class VarSet(_Frozen):
    """Ordered set of variable names; the index order is total and fixed."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: k for k, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet({list(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def var_monomial(self, name: str) -> Monomial:
        k = self.index(name)
        return tuple(1 if j == k else 0 for j in range(len(self.names)))

    def extend(self, extra: Iterable[str]) -> "VarSet":
        return VarSet(self.names + tuple(extra))


class MonomialOrder(_Frozen):
    """A multiplicative well-order on monomials: lex, degrevlex, or a
    two-block elimination order (degrevlex inside each block).

    Keys are additive flat tuples, so key(m*n) = key(m) + key(n)
    componentwise; this is what lets term multiplication reuse keys.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: Optional[Tuple[int, ...]] = None):
        if kind not in ("lex", "degrevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        # indices of the variables being eliminated
        object.__setattr__(self, "block", block)

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def degrevlex() -> "MonomialOrder":
        return MonomialOrder("degrevlex")

    @staticmethod
    def elimination(varset: VarSet, eliminate: Sequence[str]) -> "MonomialOrder":
        idx = tuple(sorted(varset.index(v) for v in eliminate))
        return MonomialOrder("elim", idx)

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "degrevlex":
            return (sum(m),) + tuple(-e for e in reversed(m))
        first = self.block
        hi = tuple(m[k] for k in first)
        lo = tuple(e for k, e in enumerate(m) if k not in first)
        return (
            (sum(hi),)
            + tuple(-e for e in reversed(hi))
            + (sum(lo),)
            + tuple(-e for e in reversed(lo))
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', {self.block})"
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder.degrevlex()

Coefficient = Union[GaussianRational, int]


# ---------------------------------------------------------------------------
# term lists
# ---------------------------------------------------------------------------
# A term is (key, mono, (a, b)): mono is the monomial packed into one int,
# key the int order key of that monomial, and (a, b) the Gaussian integer
# a + b*i.  A list is sorted by descending key.

_TermList = List[Tuple[int, int, Tuple[int, int]]]

_BITS = 15    # exponent bits per field


class _Packing:
    """Monomials and order keys of one ring and order, each as one int.

    Exponent k of a monomial sits in field k of `mono`: bits k*w to
    k*w + _BITS - 1, with w = _BITS + 1.  The top bit of each field is a
    guard bit, always clear in a stored monomial, whose exponents are below
    2**_BITS.  The exponents of every list the Groebner engine reduces
    against, and of every multiplier it shifts one by, stay below
    2**(_BITS - 1), so a product never reaches a guard bit.  Then m divides
    n iff ((n | guard) - m) & guard == guard: a field of n below that of m
    borrows its own guard bit, and no borrow crosses a field.  `pack`,
    `check` and every product refuse an exponent past these bounds with
    ExponentOverflowError, and `pack` a negative one with ValueError.

    The order key is the sum of e_k * weights[k].  weights[k] packs column
    k of the rows of `MonomialOrder.key`, one row per digit in base
    2**kbits, first row most significant.  A row may be negative, but the
    base exceeds the range of every row over stored monomials, so two keys
    compare as their first differing row does: comparing key ints is
    comparing key tuples, for lex, degrevlex and elimination orders alike,
    and key(m*n) = key(m) + key(n).
    """

    __slots__ = ("order", "shifts", "mask", "guard", "high", "evens", "weights")

    def __init__(self, n: int, order: MonomialOrder):
        w = _BITS + 1
        self.order = order
        self.shifts = tuple(range(0, n * w, w))
        self.mask = (1 << _BITS) - 1
        self.guard = sum(1 << (s + _BITS) for s in self.shifts)
        self.high = self.guard >> 1    # the top exponent bit of each field
        # `degree`: odd fields added onto these fill 32-bit slots, summed mod 2**32 - 1
        self.evens = sum(self.mask << s for s in self.shifts[::2])
        cols = [order.key(tuple(int(i == k) for i in range(n))) for k in range(n)]
        rows = len(cols[0]) if cols else 0
        span = max((sum(abs(c[j]) for c in cols) for j in range(rows)), default=1)
        kbits = (span * self.mask).bit_length()
        self.weights = tuple(sum(c[j] << (kbits * (rows - 1 - j))
                                 for j in range(rows)) for c in cols)

    def pack(self, m: Monomial) -> Tuple[int, int]:
        """(key, mono) of an exponent tuple."""
        if m and not 0 <= min(m) <= max(m) <= self.mask:    # a negative one would borrow
            raise (ValueError(f"negative exponent {min(m)}") if min(m) < 0 else
                   ExponentOverflowError(f"exponent {max(m)} exceeds {self.mask}"))
        return sum(map(mul, m, self.weights)), sum(map(lshift, m, self.shifts))

    def unpack(self, mono: int) -> Monomial:
        mask = self.mask
        return tuple([(mono >> s) & mask for s in self.shifts])

    def key(self, mono: int) -> int:
        return sum(map(mul, self.unpack(mono), self.weights))

    def degree(self, mono: int) -> int:
        return ((mono & self.evens) + (mono >> _BITS + 1 & self.evens)) % 0xFFFFFFFF

    def divides(self, m: int, n: int) -> bool:
        guard = self.guard
        return ((n | guard) - m) & guard == guard

    def lcm(self, m: int, n: int) -> int:
        """The fieldwise maximum: m where its field is at least n's, else n."""
        ge = ((m | self.guard) - n) & self.guard
        return n ^ ((m ^ n) & (ge - (ge >> _BITS)))

    def check(self, p: _TermList) -> None:
        """Raise ExponentOverflowError unless p may be reduced against."""
        high = self.high
        for _, m, _ in p:
            if m & high:
                raise ExponentOverflowError(f"reducer exponent above {self.mask >> 1}")


@lru_cache(maxsize=64)
def _packing(n: int, order: MonomialOrder) -> _Packing:
    return _Packing(n, order)


def _primitive(p: _TermList) -> Tuple[_TermList, Tuple[int, int], int]:
    """The one normal form of a nonzero term list: (p*c/g, c, g).

    c is the conjugate of the lead divided by the gcd of its two parts,
    and g the integer gcd of the coefficients of p*c.  The lead becomes a
    positive integer, and lists that differ by a factor in Q(i) get the
    same form: the monic polynomial times the least positive integer that
    clears its denominators.
    """
    a0, b0 = p[0][2]
    h = gcd(a0, b0)
    ca, cb = a0 // h, -b0 // h
    if cb:
        q = [(k, m, (a * ca - b * cb, a * cb + b * ca)) for k, m, (a, b) in p]
    elif ca < 0:
        q = [(k, m, (-a, -b)) for k, m, (a, b) in p]
    else:
        q = p
    g = 0
    for _, _, (a, b) in q:
        g = gcd(g, a, b)
        if g == 1:
            return q, (ca, cb), 1
    return [(k, m, (a // g, b // g)) for k, m, (a, b) in q], (ca, cb), g


def _iadd(p: _TermList, q: _TermList) -> _TermList:
    out: _TermList = []
    i = j = 0
    np_, nq = len(p), len(q)
    while i < np_ and j < nq:
        kp, kq = p[i][0], q[j][0]
        if kp > kq:
            out.append(p[i])
            i += 1
        elif kp < kq:
            out.append(q[j])
            j += 1
        else:
            a1, b1 = p[i][2]
            a2, b2 = q[j][2]
            a, b = a1 + a2, b1 + b2
            if a or b:
                out.append((kp, p[i][1], (a, b)))
            i += 1
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return out


def _times(p: _TermList, x: int, y: int) -> _TermList:
    """(x + y*i) * p."""
    if y:
        return [(k, m, (a * x - b * y, a * y + b * x)) for k, m, (a, b) in p]
    return p if x == 1 else [(k, m, (a * x, b * x)) for k, m, (a, b) in p]


def _ishift(p: _TermList, key_u: int, u: int, c: Tuple[int, int]) -> _TermList:
    """c * x^u * p; key addition keeps the list sorted."""
    if c == (1, 0):
        return [(key + key_u, m + u, d) for key, m, d in p]
    x, y = c
    return [(key + key_u, m + u, (a * x - b * y, a * y + b * x))
            for key, m, (a, b) in p]


def _field_max(p: _TermList, pk: _Packing) -> List[int]:
    """The largest exponent of each variable in the nonzero list p."""
    return list(map(max, zip(*(pk.unpack(m) for _, m, _ in p))))


def _product(p: _TermList, q: _TermList, pk: _Packing) -> _TermList:
    """p*q for nonzero lists packed by pk.  Raises ExponentOverflowError
    when an exponent of the product outgrows the fields."""
    top_p = top_q = 0
    for _, m, _ in p:
        top_p |= m
    for _, m, _ in q:
        top_q |= m
    # the or of the fields bounds their largest exponents; when the bound
    # reaches a guard bit, the exact largest exponent of the product, the
    # sum of the factors', decides
    if (top_p + top_q) & pk.guard:
        top = max(map(add, _field_max(p, pk), _field_max(q, pk)))
        if top > pk.mask:
            raise ExponentOverflowError(f"exponent {top} exceeds {pk.mask}")
    if len(q) == 1:
        return _ishift(p, *q[0])
    if len(p) == 1:
        return _ishift(q, *p[0])
    acc: Dict[int, list] = {}
    for k1, m1, (a1, b1) in p:
        for k2, m2, (a2, b2) in q:
            t = acc.get(m1 + m2)
            if t is None:
                acc[m1 + m2] = [k1 + k2, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                t[1] += a1 * a2 - b1 * b2
                t[2] += a1 * b2 + b1 * a2
    return _collected(acc)


def _collected(acc: Dict[int, list]) -> _TermList:
    """The sorted term list of {mono: [key, a, b]}, without zero terms."""
    return sorted(((k, m, (a, b)) for m, (k, a, b) in acc.items() if a or b),
                  reverse=True)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------
# A scale (a, b, d) is the Gaussian rational (a + b*i)/d, with d > 0 and
# gcd(a, b, d) = 1.

_Scale = Tuple[int, int, int]
_UNIT: _Scale = (1, 0, 1)
_P = (1 << 61) - 1    # the modulus of `Polynomial.__hash__`


def _lowest(a: int, b: int, d: int) -> _Scale:
    g = gcd(a, b, d)
    return (a // g, b // g, d // g) if g > 1 else (a, b, d)


def _normalized(p: _TermList, a: int, b: int, d: int) -> Tuple[_TermList, _Scale]:
    """(q, s): q the primitive form of the nonzero list p, and the scale s
    with s*q = (a + b*i)/d * p."""
    q, (ca, cb), g = _primitive(p)
    # p = q * g / c
    if cb:
        a, b, d = a * ca + b * cb, b * ca - a * cb, d * (ca * ca + cb * cb)
    elif ca < 0:
        a, b = -a, -b
    return q, _lowest(a * g, b * g, d)


def _wrap(varset: VarSet, pk: _Packing, p: _TermList, scale: _Scale,
          obj: Optional["Polynomial"] = None) -> "Polynomial":
    """The polynomial scale * p, for a primitive list p packed by pk."""
    if obj is None:
        obj = object.__new__(Polynomial)
    _SET_VARSET(obj, varset)
    _SET_ORDER(obj, pk.order)
    _SET_PK(obj, pk)
    _SET_LIST(obj, p)
    _SET_SCALE(obj, scale)
    return obj


def _poly(varset: VarSet, pk: _Packing, p: _TermList, a: int = 1, b: int = 0,
          d: int = 1, obj: Optional["Polynomial"] = None) -> "Polynomial":
    """The polynomial (a + b*i)/d * p, for any sorted list p packed by pk."""
    if not p:
        return _wrap(varset, pk, p, _UNIT, obj)
    return _wrap(varset, pk, *_normalized(p, a, b, d), obj)


def _constant(c: Coefficient) -> Tuple[_TermList, _Scale]:
    """(list, scale) of the constant c, on any packing."""
    if not isinstance(c, int):
        c = gr(c)
        return ([(0, 0, (1, 0))], (c.a, c.b, c.d)) if c else ([], _UNIT)
    return ([(0, 0, (1, 0))], (c, 0, 1)) if c else ([], _UNIT)


class Polynomial(_Frozen):
    """Immutable sparse polynomial over Q(i) on a fixed VarSet.

    The value is s times a term list over Z[i]: the list is primitive
    (`_primitive`) and packed by the one `_Packing` of its ring and order,
    and s is one exact scale in Q(i) in lowest terms.  For a given order
    both are unique, so equality compares them structurally; the hash
    reads what does not depend on the order, the packed monomials and the
    coefficients s times the list's.
    Arithmetic, `derivative`, `with_order` and `substitute` work on the
    packed ints; `terms` is a read-only view {exponent tuple:
    GaussianRational}, built when first asked for.
    """

    # `_view` and `_hash` are set when first asked for
    __slots__ = ("varset", "order", "_pk", "_list", "_scale", "_view", "_hash")

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, GaussianRational],
                 order: MonomialOrder = DEGREVLEX):
        n = len(varset)
        clean = {}
        denom = 1
        for m, c in terms.items():
            if len(m) != n:
                raise VarSetMismatchError("monomial length does not match VarSet")
            c = gr(c)
            if c:
                clean[m] = c
                denom = lcm(denom, c.d)
        pk = _packing(n, order)
        pack = pk.pack
        p = sorted(((*pack(m), (c.a * (denom // c.d), c.b * (denom // c.d)))
                    for m, c in clean.items()), reverse=True)
        _poly(varset, pk, p, 1, 0, denom, self)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(varset: VarSet, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        return Polynomial(varset, {}, order)

    @staticmethod
    def constant(varset: VarSet, c: Coefficient,
                 order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        return _wrap(varset, _packing(len(varset), order), *_constant(c))

    @staticmethod
    def variable(varset: VarSet, name: str,
                 order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        k = varset.index(name)
        pk = _packing(len(varset), order)
        return _wrap(varset, pk, [(pk.weights[k], 1 << pk.shifts[k], (1, 0))], _UNIT)

    # -- the packed form ------------------------------------------------

    def _packed(self, pk: _Packing) -> Tuple[_TermList, _Scale]:
        """(list, scale) of self with its terms packed by pk, a packing of
        the same ring.  Packings are compared by value: after `_packing`'s
        cache is cleared, an equal packing may be another object."""
        own = self._pk
        if pk is own or pk.order == own.order or not self._list:
            return self._list, self._scale
        unpack, pack = own.unpack, pk.pack
        p = sorted(((*pack(unpack(m)), c) for _, m, c in self._list), reverse=True)
        return _normalized(p, *self._scale)    # a new lead

    def _common(self, other: "Polynomial"):
        """(pk, p, s, q, t): self = s*p and other = t*q, both packed by pk
        in self's order."""
        self._check(other)
        pk = self._pk
        if other._pk is pk:
            return pk, self._list, self._scale, other._list, other._scale
        return (pk, self._list, self._scale, *other._packed(pk))

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, GaussianRational]:
        """{exponent tuple: coefficient}, in descending order."""
        try:
            return self._view
        except AttributeError:
            a, b, d = self._scale
            unpack, make = self._pk.unpack, GaussianRational._make
            view = MappingProxyType({unpack(m): make(a * x - b * y, a * y + b * x, d)
                                     for _, m, (x, y) in self._list})
            object.__setattr__(self, "_view", view)
            return view

    def monomials(self) -> List[Monomial]:
        """The exponent tuples of the terms, in descending order."""
        unpack = self._pk.unpack
        return [unpack(m) for _, m, _ in self._list]

    def is_zero(self) -> bool:
        return not self._list

    def leading_monomial(self) -> Monomial:
        if not self._list:
            raise ValueError("zero polynomial has no leading monomial")
        return self._pk.unpack(self._list[0][1])

    def leading_coefficient(self) -> GaussianRational:
        a, b, d = self._scale
        x = self._list[0][2][0]    # a positive integer
        return GaussianRational._make(a * x, b * x, d)

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial."""
        if self.is_zero():
            return ZERO
        if len(self._list) == 1 and self._list[0][1] == 0:
            return self.leading_coefficient()
        raise ValueError("polynomial is not constant")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((self._pk.degree(m) for _, m, _ in self._list), default=-1)

    def degree_in(self, name: str) -> int:
        s, mask = self._pk.shifts[self.varset.index(name)], self._pk.mask
        return max(((m >> s) & mask for _, m, _ in self._list), default=-1)

    def is_homogeneous(self) -> bool:
        return len({self._pk.degree(m) for _, m, _ in self._list}) <= 1

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        if order == self.order:
            return self
        pk = _packing(len(self.varset), order)
        return _wrap(self.varset, pk, *self._packed(pk))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.varset is not other.varset and self.varset != other.varset:
            raise VarSetMismatchError("polynomials live on different VarSets")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.varset, other, self.order)
        pk, p, (a1, b1, d1), q, (a2, b2, d2) = self._common(other)
        if not q:
            return self
        if (a1, b1, d1) == (a2, b2, d2):
            return _poly(self.varset, pk, _iadd(p, q), a1, b1, d1)
        # s*p + t*q = (s*d1*d2/h * p + t*d1*d2/h * q) * h/(d1*d2), h = gcd(d1, d2)
        h = gcd(d1, d2)
        e1, e2 = d2 // h, d1 // h
        return _poly(self.varset, pk, _iadd(_times(p, a1 * e1, b1 * e1),
                                            _times(q, a2 * e2, b2 * e2)),
                     1, 0, d1 * e1)

    __radd__ = __add__

    def __neg__(self):
        if not self._list:
            return self
        a, b, d = self._scale
        return _wrap(self.varset, self._pk, self._list, (-a, -b, d))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.varset, other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int)):
            c = gr(other)
            if c.is_zero():
                return Polynomial.zero(self.varset, self.order)
            if not self._list:
                return self
            a, b, d = self._scale
            return _wrap(self.varset, self._pk, self._list,
                         _lowest(a * c.a - b * c.b, a * c.b + b * c.a, d * c.d))
        pk, p, (a1, b1, d1), q, (a2, b2, d2) = self._common(other)
        if not p or not q:
            return Polynomial.zero(self.varset, self.order)
        pq = _product(p, q, pk)
        scale = (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
        if len(p) == 1 or len(q) == 1:    # x^u times a primitive list is one
            return _wrap(self.varset, pk, pq, _lowest(*scale))
        return _poly(self.varset, pk, pq, *scale)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return Polynomial.constant(self.varset, 1, self.order) if result is None else result

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return _wrap(self.varset, self._pk, self._list, (1, 0, self._list[0][2][0]))

    def __eq__(self, other):
        # a scalar is no Polynomial, even a constant one: it hashes apart
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.varset != other.varset:
            return False
        other = other.with_order(self.order)
        return self._scale == other._scale and self._list == other._list

    def __hash__(self):
        # each term's monomial and coefficient modulo the prime P = 2^61 - 1;
        # P is prime in Z[i] too, so if it divides the scale's d in one
        # order it divides it in every order, and then only monomials count
        try:
            return self._hash
        except AttributeError:
            a, b, d = self._scale
            t = pow(d, -1, _P) if d % _P else 0
            a, b = a * t % _P, b * t % _P
            h = hash((self.varset, frozenset([(m, (a * x - b * y) % _P, (a * y + b * x) % _P)
                                              for _, m, (x, y) in self._list])))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return f"Polynomial({print_poly(self)!r})"

    # -- calculus / maps -----------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        # x_k^e -> e*x_k^(e-1) lowers every key by the same weight, so the
        # list stays sorted
        pk = self._pk
        k = self.varset.index(name)
        s, mask, w = pk.shifts[k], pk.mask, pk.weights[k]
        out = []
        for key, m, (a, b) in self._list:
            e = (m >> s) & mask
            if e:
                out.append((key - w, m - (1 << s), (a * e, b * e)))
        return _poly(self.varset, pk, out, *self._scale)


_SET_VARSET, _SET_ORDER, _SET_PK, _SET_LIST, _SET_SCALE = (
    getattr(Polynomial, name).__set__
    for name in ("varset", "order", "_pk", "_list", "_scale"))


def _power(varset: VarSet, pk: _Packing, p: _TermList, s: _Scale,
           e: int) -> Tuple[_TermList, _Scale]:
    """(s*p)^e as (primitive list, scale), for a primitive list p packed by
    pk.  Raises ExponentOverflowError when an exponent outgrows the fields."""
    if len(p) > 1:
        w = _wrap(varset, pk, p, s) ** e
        return w._list, w._scale
    (key, m, c), = p    # c is 1
    top = max(pk.unpack(m)) * e
    if top > pk.mask:
        raise ExponentOverflowError(f"exponent {top} exceeds {pk.mask}")
    x, y, d = s
    a, b, n = 1, 0, e
    while n:    # (x + y*i)^e by binary powering
        if n & 1:
            a, b = a * x - b * y, a * y + b * x
        x, y, n = x * x - y * y, 2 * x * y, n >> 1
    return [(key * e, m * e, c)], (a, b, d ** e)


def substitute(f: Polynomial,
               assignment: Mapping[str, Union[Polynomial, GaussianRational, int]],
               target: Optional[VarSet] = None,
               order: Optional[MonomialOrder] = None) -> Polynomial:
    """The ring map sending each variable of f to its image on `target`.

    An assigned variable goes to its value, a polynomial on `target` or a
    scalar; every other variable must exist (by name) in `target` and
    goes to itself.  Every assigned name must be a variable of f.
    `target` defaults to f's VarSet and `order` to f's order.

    Each image is a primitive list packed for `target` and `order`, times
    a scale.  A term of f with a zero image is dropped; any other maps to
    the product of its images' powers, which raises ExponentOverflowError
    exactly when one of its exponents exceeds 2^15 - 1.  A one-term power
    is added to the term's monomial, both with every field below 2^15, so
    no field carries and a field reaches 2^15 exactly when its guard bit
    is set.  Powers of more terms multiply in by `_product`, which checks.
    """
    target = f.varset if target is None else target
    order = f.order if order is None else order
    pk, fpk = _packing(len(target), order), f._pk
    # (k, e): the image of variable k of f to the e, as (list, scale)
    pows: Dict[Tuple[int, int], Tuple[_TermList, _Scale]] = {}
    zero = 0    # the fields of the variables with a zero image
    for k, name in enumerate(f.varset.names):
        if name in assignment:
            v = assignment[name]
            if not isinstance(v, Polynomial):
                image = _constant(v)
            elif v.varset is not target and v.varset != target:
                raise VarSetMismatchError("assigned value on wrong VarSet")
            else:
                image = v._packed(pk)
            if not image[0]:
                zero |= fpk.mask << fpk.shifts[k]
        elif name in target:
            j = target.index(name)
            image = [(pk.weights[j], 1 << pk.shifts[j], (1, 0))], _UNIT
        else:
            raise VarSetMismatchError(
                f"variable {name!r} neither assigned nor present in target")
        pows[(k, 1)] = image
    if not assignment.keys() <= f.varset._index.keys():
        unknown = sorted(n for n in assignment if n not in f.varset)
        raise VarSetMismatchError(f"assigned names not in the VarSet: {unknown}")
    guard, unpack = pk.guard, fpk.unpack
    parts = []    # per term kept: (list, a, b, d), its image (a + b*i)/d * list
    for _, m, (a, b) in f._list:
        if m & zero:
            continue
        key, mono, d, rest = 0, 0, 1, None    # rest: the longer powers' product
        for k, e in enumerate(unpack(m)):
            if e:
                p = pows.get((k, e))
                if p is None:
                    p = pows[(k, e)] = _power(target, pk, *pows[(k, 1)], e)
                q, (x, y, z) = p
                a, b, d = a * x - b * y, a * y + b * x, d * z
                if len(q) > 1:
                    rest = q if rest is None else _product(rest, q, pk)
                    continue
                key, mono = key + q[0][0], mono + q[0][1]
                if mono & guard:
                    raise ExponentOverflowError(f"exponent exceeds {pk.mask}")
        t = [(key, mono, (1, 0))]
        parts.append((t if rest is None else _product(rest, t, pk), a, b, d))
    denom = lcm(*(d for *_, d in parts))
    acc: Dict[int, list] = {}
    for q, a, b, d in parts:
        for key, mono, (x, y) in _times(q, a * (denom // d), b * (denom // d)):
            t = acc.setdefault(mono, [key, 0, 0])
            t[1] += x
            t[2] += y
    sa, sb, sd = f._scale
    return _poly(target, pk, _collected(acc), sa, sb, sd * denom)


# ---------------------------------------------------------------------------
# parser / printer
# ---------------------------------------------------------------------------


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.k = 0

    def _scan(self):
        text = self.text
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("nat", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise PolyParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok


# the deepest parentheses the parsers take: each level costs four Python
# frames, so a deeper text would end in RecursionError
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the grammar.  The values are Polynomials,
    built by `constant` and `variable` and the arithmetic operators."""

    def __init__(self, text: str, varset: VarSet,
                 gamma: Optional[GaussianRational], order: MonomialOrder):
        self.lex = _Lexer(text)
        self.varset = varset
        self.gamma = gamma
        self.order = order
        self.depth = 0

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.lex.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        negate = False
        if self.lex.peek()[0] == "-":
            self.lex.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            tok = self.lex.peek()
            if tok[0] == "+":
                self.lex.next()
                p = p + self.term()
            elif tok[0] == "-":
                self.lex.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.lex.peek()[0] == "*":
            self.lex.next()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.atom()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            tok = self.lex.next()
            if tok[0] != "nat":
                raise PolyParseError("exponent must be a natural number", tok[2])
            p = p ** int(tok[1])
        return p

    def atom(self) -> Polynomial:
        tok = self.lex.next()
        kind, value, pos = tok
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than "
                                     f"{MAX_NESTING}", pos)
            p = self.expr()
            self.depth -= 1
            closing = self.lex.next()
            if closing[0] != ")":
                raise PolyParseError("expected ')'", closing[2])
            return p
        if kind == "nat":
            num = int(value)
            if self.lex.peek()[0] == "/":
                self.lex.next()
                den_tok = self.lex.next()
                if den_tok[0] != "nat":
                    raise PolyParseError("expected denominator", den_tok[2])
                den = int(den_tok[1])
                if den == 0:
                    raise PolyParseError("division by zero", den_tok[2])
                from fractions import Fraction

                c = GaussianRational(Fraction(num, den))
            else:
                c = GaussianRational(num)
            return self.constant(c)
        if kind == "name":
            if value == "i":
                return self.constant(gr(0, 1))
            if value in self.varset:
                return self.variable(value)
            if value == "g":
                if self.gamma is None:
                    raise PolyParseError("placeholder 'g' used but no gamma bound", pos)
                return self.constant(self.gamma)
            raise UnknownVariableError(f"unknown variable {value!r}", pos)
        raise PolyParseError(f"unexpected token {value!r}", pos)

    def constant(self, c: GaussianRational) -> Polynomial:
        return Polynomial.constant(self.varset, c, self.order)

    def variable(self, name: str) -> Polynomial:
        return Polynomial.variable(self.varset, name, self.order)


def parse_poly(text: str, varset: VarSet,
               gamma: Optional[GaussianRational] = None,
               order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Parse a polynomial; 'g' is replaced by the bound gamma value."""
    return _Parser(text, varset, gamma, order).parse()


class _Height:
    """A bound on a Gaussian rational (a + b*i)/d from how it was written:
    |a|, |b| <= 2^num and d <= 2^den, with `real` when b = 0.  Each
    operator bounds its exact, unreduced result from its operands."""

    __slots__ = ("num", "den", "real")

    def __init__(self, num: int, den: int, real: bool):
        self.num, self.den, self.real = num, den, real

    def __add__(self, other: "_Height") -> "_Height":
        return _Height(max(self.num + other.den, other.num + self.den) + 1,
                       self.den + other.den, self.real and other.real)

    __sub__ = __add__

    def __neg__(self) -> "_Height":
        return self

    def __mul__(self, other: "_Height") -> "_Height":
        real = self.real and other.real
        return _Height(self.num + other.num + (not real), self.den + other.den, real)

    def __pow__(self, n: int) -> "_Height":
        # |z^n| = |z|^n, and |z| <= 2^(num + 1/2); z^0 is 1, but z is
        # still evaluated, so it is bounded like z^1
        n = max(n, 1)
        return _Height(n * self.num + (0 if self.real else (n + 1) // 2),
                       n * self.den, self.real)


class _HeightParser(_Parser):
    def constant(self, c: GaussianRational) -> _Height:
        return _Height((max(abs(c.a), abs(c.b), 1) - 1).bit_length(),
                       (c.d - 1).bit_length(), not c.b)


def height_bound(text: str) -> int:
    """An upper bound on the bit length of the numerators and denominator
    of the constant that `text` denotes.

    The parser's own grammar is walked with a bound in place of each
    value: a sum needs one bit more than its larger operand, a product
    the sum of its operands, and x^n n times x, with denominators
    multiplying.  Nothing is evaluated: a text such as 2^1000000000 is
    bounded at once.
    """
    h = _HeightParser(text, VarSet([]), None, DEGREVLEX).parse()
    return max(h.num, h.den) + 1


def _coeff_str(c: GaussianRational) -> Tuple[bool, str]:
    """(negated, body) split used when joining terms with + and -."""
    if c.b == 0 or c.a == 0:
        neg = (c.a < 0) or (c.a == 0 and c.b < 0)
        body = str(-c if neg else c)
        return neg, body
    return False, "(" + str(c) + ")"


def _monomial_str(varset: VarSet, m: Monomial) -> str:
    parts = []
    for name, e in zip(varset.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly(f: Polynomial) -> str:
    """Deterministic text form: terms descending in the ambient order."""
    if f.is_zero():
        return "0"
    pieces = []
    for k, (m, c) in enumerate(f.terms.items()):
        neg, body = _coeff_str(c)
        mono = _monomial_str(f.varset, m)
        if mono:
            text = mono if body == "1" else body + "*" + mono
        else:
            text = body
        if k == 0:
            pieces.append("-" + text if neg else text)
        else:
            pieces.append((" - " if neg else " + ") + text)
    return "".join(pieces)
